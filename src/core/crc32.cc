#include "core/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace dmt::core {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 loop reads each 8-byte block as a "
              "little-endian word");

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables (Kounavis & Berry, 2008). tables[0] is Sarwate's
/// byte table; tables[k][b] is the CRC of byte b followed by k zero bytes,
/// so one lookup per byte of an 8-byte block advances the CRC over the
/// whole block.
constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

}  // namespace

uint32_t Crc32(std::span<const std::byte> data, uint32_t seed) {
  const auto& t = kCrcTables;
  uint32_t crc = ~seed;
  const std::byte* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t block;
    std::memcpy(&block, p, sizeof(block));
    const uint32_t lo = static_cast<uint32_t>(block) ^ crc;
    const uint32_t hi = static_cast<uint32_t>(block >> 32);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<uint32_t>(*p)) & 0xFFu];
  }
  return ~crc;
}

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  return Crc32(
      std::span<const std::byte>(static_cast<const std::byte*>(data), size),
      seed);
}

}  // namespace dmt::core
