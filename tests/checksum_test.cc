// CRC32C known-answer tests: the RFC 3720 (appendix B.4) check vectors
// plus the common "123456789" check value. A wrong polynomial still
// round-trips (the same function writes and verifies every record), so
// only fixed vectors catch it.
#include "common/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pieces {
namespace {

uint32_t Crc(const std::vector<uint8_t>& bytes) {
  return Crc32c(bytes.data(), bytes.size());
}

TEST(Crc32cTest, CheckString) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t*>(check.data()),
                   check.size()),
            0xE3069283u);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  EXPECT_EQ(Crc(std::vector<uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(Crc(std::vector<uint8_t>(32, 0xFF)), 0x62A8AB43u);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(Crc(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, ChainingEqualsOneShot) {
  std::vector<uint8_t> bytes(32);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<uint8_t>(i);
  }
  const uint32_t head = Crc32c(bytes.data(), 8);
  EXPECT_EQ(Crc32c(bytes.data() + 8, bytes.size() - 8, head), Crc(bytes));
}

}  // namespace
}  // namespace pieces
