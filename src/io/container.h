// Versioned, CRC-checked, mmap-able binary container — the on-disk unit of
// the persistence layer (ROADMAP "memory-mapped binary store").
//
// File layout (all integers little-endian, write-once read-many):
//
//   ┌────────────────────────────────────────────────────────┐
//   │ FileHeader (32 B): magic "DMTBIN01", format version,   │
//   │   artifact type, section count, file size, header CRC  │
//   ├────────────────────────────────────────────────────────┤
//   │ SectionEntry table (32 B each): id, offset, length,    │
//   │   payload CRC32                                        │
//   ├────────────────────────────────────────────────────────┤
//   │ section payloads, each 8-byte aligned, zero-padded     │
//   └────────────────────────────────────────────────────────┘
//
// The header CRC covers the header (with the CRC field zeroed) plus the
// whole section table; each section carries its own CRC32 over the
// payload bytes. ContainerReader::Map validates everything eagerly —
// magic, version, declared vs actual file size, section bounds/alignment/
// overlap-free placement, and every checksum — and returns
// core::Status::Corruption on the first mismatch. A malformed file can
// therefore never crash a loader or hand out an out-of-bounds span.
//
// Fixed-width numeric arrays (transaction offsets, item ids, supports,
// dataset columns) live in their own sections so readers can use them in
// place from the mapping (zero copy); variable-length payloads (schemas,
// rules, tree nodes) are ByteWriter/ByteReader streams.
#ifndef DMT_IO_CONTAINER_H_
#define DMT_IO_CONTAINER_H_

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/mmap_file.h"
#include "core/status.h"
#include "io/bytes.h"

namespace dmt::io {

/// First 8 bytes of every container file.
inline constexpr char kMagic[8] = {'D', 'M', 'T', 'B', 'I', 'N', '0', '1'};

/// Current (and only) format version. Readers reject anything else.
inline constexpr uint32_t kFormatVersion = 1;

/// Section payloads start on 8-byte boundaries so u64 arrays can be read
/// in place from the mapping.
inline constexpr uint64_t kSectionAlignment = 8;

/// What a container file holds; loaders check it before touching
/// sections so a Dataset file cannot be loaded as a TransactionDatabase.
enum class ArtifactType : uint32_t {
  kTransactionDatabase = 1,
  kDataset = 2,
  kMiningResult = 3,
  kRuleSet = 4,
  kDecisionTree = 5,
  kKMeansModel = 6,
  kQuantRuleSet = 7,
};

/// Stable name for error messages and `dmt_pack info`.
std::string_view ArtifactTypeName(ArtifactType type);

/// On-disk header, 32 bytes.
struct FileHeader {
  char magic[8];
  uint32_t format_version = 0;
  uint32_t artifact_type = 0;
  uint32_t section_count = 0;
  /// CRC32 of header (this field zeroed) + section table.
  uint32_t header_crc32 = 0;
  uint64_t file_size = 0;
};
static_assert(sizeof(FileHeader) == 32, "FileHeader must pack to 32 bytes");

/// On-disk section-table entry, 32 bytes.
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved0 = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc32 = 0;
  uint32_t reserved1 = 0;
};
static_assert(sizeof(SectionEntry) == 32,
              "SectionEntry must pack to 32 bytes");

/// Assembles a container in memory and writes it atomically. Sections are
/// laid out in AddSection/AddArraySection order; ids must be unique within
/// one file. Each payload is copied once, into Serialize's buffer: streams
/// are moved in and arrays are borrowed.
class ContainerWriter {
 public:
  explicit ContainerWriter(ArtifactType type) : type_(type) {}

  /// Adds a section whose payload is a finished stream, moved in.
  void AddSection(uint32_t id, ByteWriter&& stream);

  /// Adds a section holding a raw array of trivially copyable elements.
  /// The array is not copied: `values` must stay alive and unchanged until
  /// the last Serialize or WriteToFile call.
  template <typename T>
  void AddArraySection(uint32_t id, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    sections_.push_back({id, ByteWriter(), std::as_bytes(values)});
  }
  /// A temporary array would be gone before the write.
  template <typename T>
  void AddArraySection(uint32_t id, std::vector<T>&& values) = delete;

  /// Serializes header + table + payloads and writes them via
  /// core::WriteFileBytes (atomic rename).
  core::Status WriteToFile(const std::string& path) const;

  /// Serialized container bytes: the one layout routine, which
  /// WriteToFile writes and tests corrupt.
  std::vector<std::byte> Serialize() const;

 private:
  struct Section {
    uint32_t id;
    ByteWriter stream;                 // AddSection's payload
    std::span<const std::byte> array;  // AddArraySection's, borrowed
    std::span<const std::byte> payload() const {
      return stream.bytes().empty() ? array : stream.bytes();
    }
  };

  ArtifactType type_;
  std::vector<Section> sections_;
};

/// Maps a container file and validates the full envelope eagerly (see the
/// file comment). Section spans point into the mapping and stay valid for
/// the reader's lifetime.
class ContainerReader {
 public:
  /// An empty reader with no sections; assign a Map/FromBytes result over
  /// it (lets owners hold a reader as a plain member).
  ContainerReader() = default;

  /// Maps and validates `path`. `expected` guards against loading the
  /// wrong artifact kind.
  static core::Result<ContainerReader> Map(const std::string& path,
                                           ArtifactType expected);

  /// Validates an already-mapped file (Map's worker; exposed so tests can
  /// validate in-memory buffers without touching disk).
  static core::Result<ContainerReader> FromBytes(
      std::span<const std::byte> bytes, ArtifactType expected,
      std::string name = "<memory>");

  ArtifactType artifact_type() const { return type_; }
  size_t num_sections() const { return entries_.size(); }

  /// Payload of the section with `id`; NotFound when absent.
  core::Result<std::span<const std::byte>> Section(uint32_t id) const;

  /// Section reinterpreted as an array of T. Corruption when the length
  /// is not a multiple of sizeof(T) (alignment is guaranteed by Map's
  /// offset checks plus the page-aligned mapping).
  template <typename T>
  core::Result<std::span<const T>> SectionAs(uint32_t id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    DMT_ASSIGN_OR_RETURN(std::span<const std::byte> raw, Section(id));
    if (raw.size() % sizeof(T) != 0) {
      return core::Status::Corruption(
          name_ + ": section " + std::to_string(id) + " length " +
          std::to_string(raw.size()) + " is not a multiple of element size " +
          std::to_string(sizeof(T)));
    }
    return std::span<const T>(reinterpret_cast<const T*>(raw.data()),
                              raw.size() / sizeof(T));
  }

  /// Bytes this reader keeps mapped (0 for FromBytes readers).
  uint64_t bytes_mapped() const { return file_.size(); }

  /// The mapped path or the FromBytes name (for error messages).
  const std::string& name() const { return name_; }

  /// Raw entries, for `dmt_pack info`.
  const std::vector<SectionEntry>& entries() const { return entries_; }

 private:
  core::MappedFile file_;
  std::span<const std::byte> bytes_;
  std::string name_;
  ArtifactType type_ = ArtifactType::kTransactionDatabase;
  std::vector<SectionEntry> entries_;
};

}  // namespace dmt::io

#endif  // DMT_IO_CONTAINER_H_
