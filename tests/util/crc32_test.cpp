// util::crc32 is the shared integrity primitive under the run journal's
// per-record checksums and the checkpoint container's per-section
// checksums, so its exact bit-for-bit behaviour (polynomial, reflection,
// seeding convention) is load-bearing: a drifted implementation would
// invalidate every journal and snapshot already on disk.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace coopnet::util {
namespace {

// Bit-at-a-time CRC-32 straight from the polynomial: no tables, so it
// shares nothing with the sliced implementation it checks.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32/ISO-HDLC check vector: crc32("123456789").
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputHashesToZero) {
  EXPECT_EQ(crc32(std::string()), 0u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, SeedChainsIncrementalUpdates) {
  const std::string whole = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::string a = whole.substr(0, split);
    const std::string b = whole.substr(split);
    EXPECT_EQ(crc32(b, crc32(a)), crc32(whole))
        << "chaining broke at split " << split;
  }
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  const std::string base = "journal record integrity canary";
  const std::uint32_t reference = crc32(base);
  for (std::size_t byte = 0; byte < base.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = base;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_NE(crc32(flipped), reference)
          << "missed flip at byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32, DistinguishesPermutationsAndLengths) {
  EXPECT_NE(crc32(std::string("ab")), crc32(std::string("ba")));
  EXPECT_NE(crc32(std::string("ab")), crc32(std::string("ab\0", 3)));
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAlignmentAndSeed) {
  // Deterministic pseudo-random bytes, with slack for unaligned starts.
  std::vector<unsigned char> buf(1024 + 8);
  std::uint32_t x = 0x12345678u;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(crc32(p, len), bitwise_crc32(p, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
  // Seed chaining across every split of a 1 KiB buffer, at an odd start,
  // and arbitrary seeds, all against the reference.
  const unsigned char* p = buf.data() + 3;
  const std::uint32_t whole = bitwise_crc32(p, 1024, 0);
  for (std::size_t split = 0; split <= 1024; ++split) {
    ASSERT_EQ(crc32(p + split, 1024 - split, crc32(p, split)), whole)
        << "split " << split;
  }
  for (std::uint32_t seed : {1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1000u}) {
      ASSERT_EQ(crc32(p, len, seed), bitwise_crc32(p, len, seed))
          << "seed " << seed << " length " << len;
    }
  }
}

}  // namespace
}  // namespace coopnet::util
