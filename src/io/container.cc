#include "io/container.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "core/crc32.h"
#include "core/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmt::io {

static_assert(std::endian::native == std::endian::little,
              "the container format is little-endian; big-endian hosts "
              "would need byte swaps in ContainerReader/Writer");

std::string_view ArtifactTypeName(ArtifactType type) {
  switch (type) {
    case ArtifactType::kTransactionDatabase:
      return "TransactionDatabase";
    case ArtifactType::kDataset:
      return "Dataset";
    case ArtifactType::kMiningResult:
      return "MiningResult";
    case ArtifactType::kRuleSet:
      return "RuleSet";
    case ArtifactType::kDecisionTree:
      return "DecisionTree";
    case ArtifactType::kKMeansModel:
      return "KMeansModel";
    case ArtifactType::kQuantRuleSet:
      return "QuantRuleSet";
  }
  return "Unknown";
}

namespace {

uint64_t AlignUp(uint64_t value) {
  return (value + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

}  // namespace

void ContainerWriter::AddSection(uint32_t id, ByteWriter&& stream) {
  sections_.push_back({id, std::move(stream), {}});
}

std::vector<std::byte> ContainerWriter::Serialize() const {
  FileHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.format_version = kFormatVersion;
  header.artifact_type = static_cast<uint32_t>(type_);
  header.section_count = static_cast<uint32_t>(sections_.size());

  std::vector<SectionEntry> entries(sections_.size());
  uint64_t cursor =
      sizeof(FileHeader) + sections_.size() * sizeof(SectionEntry);
  for (size_t s = 0; s < sections_.size(); ++s) {
    const std::span<const std::byte> payload = sections_[s].payload();
    entries[s].id = sections_[s].id;
    entries[s].offset = cursor;
    entries[s].length = payload.size();
    entries[s].crc32 = core::Crc32(payload);
    cursor = AlignUp(cursor + payload.size());
  }
  header.file_size = cursor;

  // Header CRC covers the header with the CRC field zeroed, then the
  // whole section table.
  uint32_t crc = core::Crc32(&header, sizeof(header));
  crc = core::Crc32(entries.data(), entries.size() * sizeof(SectionEntry),
                    crc);
  header.header_crc32 = crc;

  std::vector<std::byte> out(cursor, std::byte{0});
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), entries.data(),
              entries.size() * sizeof(SectionEntry));
  for (size_t s = 0; s < sections_.size(); ++s) {
    const std::span<const std::byte> payload = sections_[s].payload();
    // An empty section's data() may be null, which memcpy must not get.
    if (payload.empty()) continue;
    std::memcpy(out.data() + entries[s].offset, payload.data(),
                payload.size());
  }
  return out;
}

core::Status ContainerWriter::WriteToFile(const std::string& path) const {
  const std::vector<std::byte> bytes = Serialize();
  return core::WriteFileBytes(path, bytes);
}

core::Result<ContainerReader> ContainerReader::Map(const std::string& path,
                                                   ArtifactType expected) {
  obs::Span span("io/container/map");
  DMT_ASSIGN_OR_RETURN(core::MappedFile file, core::MappedFile::Open(path));
  DMT_ASSIGN_OR_RETURN(ContainerReader reader,
                       FromBytes(file.bytes(), expected, path));
  reader.file_ = std::move(file);
  // Re-point at the mapping: FromBytes validated a span that belonged to
  // the (now moved) MappedFile, and spans into it stay valid because the
  // mapping address moves with the object.
  reader.bytes_ = reader.file_.bytes();
  span.AddArg("bytes", reader.bytes_.size());
  span.AddArg("sections", reader.entries().size());
  obs::Counter("io/bytes_mapped").Add(reader.bytes_.size());
  return reader;
}

core::Result<ContainerReader> ContainerReader::FromBytes(
    std::span<const std::byte> bytes, ArtifactType expected,
    std::string name) {
  core::WallTimer validate_timer;
  if (bytes.size() < sizeof(FileHeader)) {
    return core::Status::Corruption(
        name + ": truncated — " + std::to_string(bytes.size()) +
        " byte(s), smaller than the " + std::to_string(sizeof(FileHeader)) +
        "-byte header");
  }
  FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return core::Status::Corruption(
        name + ": bad magic (not a DMTBIN01 container)");
  }
  if (header.format_version != kFormatVersion) {
    return core::Status::InvalidArgument(
        name + ": unsupported format version " +
        std::to_string(header.format_version) + " (this build reads " +
        std::to_string(kFormatVersion) + ")");
  }
  if (header.file_size != bytes.size()) {
    return core::Status::Corruption(
        name + ": declared file size " + std::to_string(header.file_size) +
        " does not match actual size " + std::to_string(bytes.size()) +
        " (truncated or padded file)");
  }
  const uint64_t max_sections =
      (bytes.size() - sizeof(FileHeader)) / sizeof(SectionEntry);
  if (header.section_count > max_sections) {
    return core::Status::Corruption(
        name + ": section table of " + std::to_string(header.section_count) +
        " entries does not fit in the file");
  }

  std::vector<SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), bytes.data() + sizeof(FileHeader),
              entries.size() * sizeof(SectionEntry));

  // Checksum before interpreting the table further: a flipped bit in any
  // header/table field must surface as a CRC mismatch, not as a confusing
  // bounds error.
  FileHeader crc_header = header;
  crc_header.header_crc32 = 0;
  uint32_t crc = core::Crc32(&crc_header, sizeof(crc_header));
  crc = core::Crc32(entries.data(), entries.size() * sizeof(SectionEntry),
                    crc);
  if (crc != header.header_crc32) {
    return core::Status::Corruption(
        name + ": header/section-table CRC mismatch");
  }

  const uint64_t payload_start =
      sizeof(FileHeader) + entries.size() * sizeof(SectionEntry);
  std::vector<std::pair<uint64_t, uint64_t>> placements;
  for (const SectionEntry& entry : entries) {
    if (entry.offset % kSectionAlignment != 0) {
      return core::Status::Corruption(
          name + ": section " + std::to_string(entry.id) +
          " offset is not 8-byte aligned");
    }
    if (entry.offset < payload_start || entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return core::Status::Corruption(
          name + ": section " + std::to_string(entry.id) + " (offset " +
          std::to_string(entry.offset) + ", length " +
          std::to_string(entry.length) + ") lies outside the file");
    }
    placements.emplace_back(entry.offset, entry.length);
    const std::span<const std::byte> payload =
        bytes.subspan(entry.offset, entry.length);
    if (core::Crc32(payload) != entry.crc32) {
      return core::Status::Corruption(name + ": section " +
                                      std::to_string(entry.id) +
                                      " payload CRC mismatch");
    }
  }
  std::sort(placements.begin(), placements.end());
  for (size_t s = 1; s < placements.size(); ++s) {
    if (placements[s].first <
        placements[s - 1].first + placements[s - 1].second) {
      return core::Status::Corruption(name + ": overlapping sections");
    }
  }
  for (size_t a = 0; a < entries.size(); ++a) {
    for (size_t b = a + 1; b < entries.size(); ++b) {
      if (entries[a].id == entries[b].id) {
        return core::Status::Corruption(name + ": duplicate section id " +
                                        std::to_string(entries[a].id));
      }
    }
  }

  if (header.artifact_type != static_cast<uint32_t>(expected)) {
    const auto actual = static_cast<ArtifactType>(header.artifact_type);
    return core::Status::InvalidArgument(
        name + ": artifact type mismatch — file holds " +
        std::string(ArtifactTypeName(actual)) + " (" +
        std::to_string(header.artifact_type) + "), loader expected " +
        std::string(ArtifactTypeName(expected)));
  }

  // Validation telemetry: the section count is deterministic (counter);
  // the CRC wall time is not, so it lives in a histogram, outside the
  // deterministic counter contract.
  obs::Counter("io/sections_validated").Add(entries.size());
  obs::Histogram("io/crc_us")
      .Record(static_cast<uint64_t>(validate_timer.ElapsedSeconds() * 1e6));

  ContainerReader reader;
  reader.bytes_ = bytes;
  reader.name_ = std::move(name);
  reader.type_ = expected;
  reader.entries_ = std::move(entries);
  return reader;
}

core::Result<std::span<const std::byte>> ContainerReader::Section(
    uint32_t id) const {
  for (const SectionEntry& entry : entries_) {
    if (entry.id == id) return bytes_.subspan(entry.offset, entry.length);
  }
  return core::Status::NotFound(name_ + ": no section with id " +
                                std::to_string(id));
}

}  // namespace dmt::io
