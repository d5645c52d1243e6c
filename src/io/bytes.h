// Bounds-checked little-endian byte streams for variable-length container
// sections (schemas, rule lists, tree nodes). ByteWriter appends into a
// growable buffer; ByteReader consumes a read-only span and returns
// Corruption the moment a read would run past the end — the loaders'
// first line of defense against truncated or lying section payloads.
//
// Fixed-width arrays (offsets, supports, columns) do not go through these
// streams; they are stored as raw sections and read in place via
// ContainerReader::SectionAs.
#ifndef DMT_IO_BYTES_H_
#define DMT_IO_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/status.h"

namespace dmt::io {

/// Append-only byte buffer with primitive put operations. Values are
/// memcpy'd in host order; the container format is declared little-endian
/// and the library targets little-endian hosts (checked in container.cc).
class ByteWriter {
 public:
  void PutU8(uint8_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  /// u32 length prefix followed by the bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// Raw element copy with a u64 element-count prefix.
  template <typename T>
  void PutArray(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(values.size());
    PutRaw(values.data(), values.size_bytes());
  }

  void PutRaw(const void* data, size_t size) {
    const auto* bytes = static_cast<const std::byte*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  std::span<const std::byte> bytes() const { return buffer_; }

 private:
  std::vector<std::byte> buffer_;
};

/// Sequential reader over a section payload. Every read checks the
/// remaining length first; `context` names the section in error messages.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data,
                      std::string context = "section")
      : data_(data), context_(std::move(context)) {}

  core::Result<uint8_t> ReadU8() { return ReadScalar<uint8_t>(); }
  core::Result<uint32_t> ReadU32() { return ReadScalar<uint32_t>(); }
  core::Result<uint64_t> ReadU64() { return ReadScalar<uint64_t>(); }
  core::Result<double> ReadF64() { return ReadScalar<double>(); }

  core::Result<std::string> ReadString() {
    DMT_ASSIGN_OR_RETURN(uint32_t length, ReadU32());
    if (length > remaining()) return Truncated("string of length", length);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    length);
    pos_ += length;
    return out;
  }

  /// Reads a list count stored as T (uint32_t or uint64_t) and returns
  /// Corruption unless that many elements of at least
  /// `min_element_bytes` each fit in the bytes left in `elements` — this
  /// stream by default, or the reader of the section a META count sizes.
  /// Every loader sizes its lists from this result, so a lying count is
  /// rejected before it can become a huge allocation.
  template <typename T>
  core::Result<uint64_t> ReadCount(size_t min_element_bytes,
                                   const ByteReader* elements = nullptr) {
    DMT_ASSIGN_OR_RETURN(T count, ReadScalar<T>());
    const ByteReader& room = elements != nullptr ? *elements : *this;
    if (count > room.remaining() / min_element_bytes) {
      return core::Status::Corruption(
          context_ + ": list count " + std::to_string(count) +
          " exceeds what the " + std::to_string(room.remaining()) +
          " remaining byte(s) of " + room.context_ + " can hold");
    }
    return uint64_t{count};
  }

  /// Reads a u64 count followed by that many elements. `max_elements`
  /// caps the count so a corrupted length cannot trigger a huge
  /// allocation before the bounds check fires.
  template <typename T>
  core::Result<std::vector<T>> ReadArray(uint64_t max_elements) {
    static_assert(std::is_trivially_copyable_v<T>);
    DMT_ASSIGN_OR_RETURN(uint64_t count, ReadU64());
    if (count > max_elements) {
      return core::Status::Corruption(
          context_ + ": array count " + std::to_string(count) +
          " exceeds limit " + std::to_string(max_elements));
    }
    if (count > remaining() / sizeof(T)) {  // overflow-safe bounds check
      return Truncated("array of count", count);
    }
    std::vector<T> out(count);
    // An empty vector's data() may be null, which memcpy must not get.
    if (count > 0) {
      std::memcpy(out.data(), data_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// Corruption unless the stream was fully consumed (catches sections
  /// with trailing garbage).
  core::Status ExpectEnd() const {
    if (!AtEnd()) {
      return core::Status::Corruption(
          context_ + ": " + std::to_string(remaining()) +
          " trailing byte(s) after the last field");
    }
    return core::Status::OK();
  }

 private:
  template <typename T>
  core::Result<T> ReadScalar() {
    if (sizeof(T) > remaining()) return Truncated("scalar of size", sizeof(T));
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  core::Status Truncated(const char* what, uint64_t amount) const {
    return core::Status::Corruption(
        context_ + ": truncated — " + what + " " + std::to_string(amount) +
        " but only " + std::to_string(remaining()) + " byte(s) remain");
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  std::string context_;
};

}  // namespace dmt::io

#endif  // DMT_IO_BYTES_H_
