// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over byte ranges — the
// integrity check of the binary container format. Incremental: feed the
// previous return value back as `seed` to checksum discontiguous ranges.
// Slicing-by-8: eight table lookups per 8-byte block, a byte loop for the
// tail; the same values as zlib's crc32().
#ifndef DMT_CORE_CRC32_H_
#define DMT_CORE_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace dmt::core {

/// CRC-32 of `data`, continuing from `seed` (0 starts a fresh checksum).
uint32_t Crc32(std::span<const std::byte> data, uint32_t seed = 0);

/// Convenience overload for raw buffers.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

}  // namespace dmt::core

#endif  // DMT_CORE_CRC32_H_
