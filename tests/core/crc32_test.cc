// core::Crc32 against the CRC-32 check value and an independent
// bit-at-a-time reference: every length across the 8-byte block boundary
// and the tail, at every start offset, and chained through `seed` at
// every split point.
#include "core/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/rng.h"

namespace dmt::core {
namespace {

/// The reflected CRC-32 one bit at a time: no table, so it shares nothing
/// with the implementation under test but the polynomial.
uint32_t BitwiseCrc32(const std::byte* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= static_cast<uint32_t>(data[i]);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

std::vector<std::byte> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> bytes(size);
  for (std::byte& b : bytes) {
    b = static_cast<std::byte>(rng.UniformInt(0, 255));
  }
  return bytes;
}

TEST(Crc32Test, CheckValue) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::byte> bytes = RandomBytes(300 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      const std::byte* start = bytes.data() + offset;
      ASSERT_EQ(Crc32(std::span<const std::byte>(start, length)),
                BitwiseCrc32(start, length))
          << "offset " << offset << ", length " << length;
    }
  }
}

TEST(Crc32Test, ChainingThroughSeedEqualsOneShot) {
  const std::vector<std::byte> bytes = RandomBytes(300, 29);
  const std::span<const std::byte> all(bytes);
  const uint32_t one_shot = Crc32(all);
  ASSERT_EQ(one_shot, BitwiseCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= all.size(); ++split) {
    const uint32_t head = Crc32(all.first(split));
    ASSERT_EQ(Crc32(all.subspan(split), head), one_shot) << "split " << split;
  }
}

}  // namespace
}  // namespace dmt::core
