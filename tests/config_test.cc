// Strict env-knob parsing: ParseU64Strict and GetEnvU64 must reject
// trailing garbage, signs and overflow instead of silently truncating
// ("10x" used to parse as 10).
#include "common/config.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace pieces {
namespace {

TEST(ParseU64StrictTest, AcceptsPlainDigits) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseU64Strict("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64Strict("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseU64Strict("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseU64Strict("007", &v));  // Leading zeros are fine.
  EXPECT_EQ(v, 7u);
}

TEST(ParseU64StrictTest, RejectsGarbage) {
  uint64_t v = 123;
  EXPECT_FALSE(ParseU64Strict(nullptr, &v));
  EXPECT_FALSE(ParseU64Strict("", &v));
  EXPECT_FALSE(ParseU64Strict("10x", &v));   // Trailing garbage.
  EXPECT_FALSE(ParseU64Strict("x10", &v));   // Leading garbage.
  EXPECT_FALSE(ParseU64Strict("1 0", &v));   // Embedded space.
  EXPECT_FALSE(ParseU64Strict(" 10", &v));   // Leading space.
  EXPECT_FALSE(ParseU64Strict("10 ", &v));   // Trailing space.
  EXPECT_FALSE(ParseU64Strict("-1", &v));    // Sign.
  EXPECT_FALSE(ParseU64Strict("+1", &v));    // Sign.
  EXPECT_FALSE(ParseU64Strict("0x10", &v));  // Hex.
  EXPECT_FALSE(ParseU64Strict("1.5", &v));   // Decimal point.
  EXPECT_FALSE(ParseU64Strict("1e3", &v));   // Exponent.
  // Overflow: UINT64_MAX + 1.
  EXPECT_FALSE(ParseU64Strict("18446744073709551616", &v));
  // *out untouched on every failure above.
  EXPECT_EQ(v, 123u);
}

TEST(GetEnvU64Test, UnsetReturnsDefault) {
  unsetenv("PIECES_TEST_KNOB");
  EXPECT_EQ(GetEnvU64("PIECES_TEST_KNOB", 7), 7u);
}

TEST(GetEnvU64Test, EmptyReturnsDefault) {
  setenv("PIECES_TEST_KNOB", "", 1);
  EXPECT_EQ(GetEnvU64("PIECES_TEST_KNOB", 7), 7u);
  unsetenv("PIECES_TEST_KNOB");
}

TEST(GetEnvU64Test, ValidValueParses) {
  setenv("PIECES_TEST_KNOB", "31", 1);
  EXPECT_EQ(GetEnvU64("PIECES_TEST_KNOB", 7), 31u);
  unsetenv("PIECES_TEST_KNOB");
}

TEST(GetEnvU64Test, GarbageFallsBackToDefault) {
  setenv("PIECES_TEST_KNOB", "10x", 1);
  EXPECT_EQ(GetEnvU64("PIECES_TEST_KNOB", 7), 7u);
  setenv("PIECES_TEST_KNOB", "-4", 1);
  EXPECT_EQ(GetEnvU64("PIECES_TEST_KNOB", 9), 9u);
  unsetenv("PIECES_TEST_KNOB");
}

}  // namespace
}  // namespace pieces
