#include "gmd/common/hash.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace gmd {
namespace {

TEST(Fnv1aHash, MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(fnv1a_bytes("", 0), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a_bytes("a", 1), 0xAF63DC4C8601EC8CULL);
  const std::string foobar = "foobar";
  EXPECT_EQ(fnv1a_bytes(foobar.data(), foobar.size()), 0x85944171F73967E8ULL);
}

TEST(Fnv1aHash, MixU64EqualsLittleEndianBytes) {
  const std::uint64_t value = 0x0123456789ABCDEFULL;
  Fnv1a via_mix;
  via_mix.mix(value);

  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<unsigned char>((value >> (8 * i)) & 0xFFu);
  }
  EXPECT_EQ(via_mix.state, fnv1a_bytes(bytes, sizeof bytes));
}

TEST(Fnv1aHash, IncrementalEqualsOneShot) {
  const std::string data = "the quick brown fox";
  Fnv1a h;
  h.mix_bytes(data.data(), 4);
  h.mix_bytes(data.data() + 4, data.size() - 4);
  EXPECT_EQ(h.state, fnv1a_bytes(data.data(), data.size()));
}

TEST(Fnv1aHash, DoubleUsesBitPattern) {
  Fnv1a a;
  a.mix_double(1.5);
  Fnv1a b;
  b.mix(0x3FF8000000000000ULL);  // IEEE-754 bits of 1.5
  EXPECT_EQ(a.state, b.state);
}

TEST(Hex16, FormatsSixteenLowercaseDigitsZeroPadded) {
  EXPECT_EQ(to_hex16(0), "0000000000000000");
  EXPECT_EQ(to_hex16(0xABCDEFULL), "0000000000abcdef");
  EXPECT_EQ(to_hex16(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

TEST(Hex16, ParseRoundTripsEveryFormattedValue) {
  for (const std::uint64_t value :
       {0ULL, 1ULL, 0xCBF29CE484222325ULL, 0x8000000000000000ULL,
        0xFFFFFFFFFFFFFFFFULL}) {
    EXPECT_EQ(parse_hex16(to_hex16(value)), value);
  }
}

TEST(Hex16, ParseRejectsAnythingButSixteenLowercaseDigits) {
  // "ab" and "zzzz" are the torn tokens a truncated manifest produced.
  for (const char* token :
       {"", "ab", "zzzz", "000000000000000", "00000000000000000",
        "00000000000000AB", "000000000000000g", " 00000000000000a",
        "0x0000000000000a", "-000000000000001"}) {
    EXPECT_FALSE(parse_hex16(token).has_value()) << "'" << token << "'";
  }
}

}  // namespace
}  // namespace gmd
