// CRC32C (Castagnoli) — the per-record commit checksum the store layer
// persists alongside each slot, mirroring Viper's (VLDB'21) per-record
// commit metadata. Reflected Castagnoli polynomial 0x82F63B78, checked
// against the RFC 3720 (B.4) vectors; byte-wise table implementation.
#ifndef PIECES_COMMON_CHECKSUM_H_
#define PIECES_COMMON_CHECKSUM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace pieces {

namespace internal {

inline const std::array<uint32_t, 256>& Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace internal

// CRC32C of `n` bytes; chainable by passing a previous result as `seed`.
inline uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t seed = 0) {
  const std::array<uint32_t, 256>& table = internal::Crc32cTable();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace pieces

#endif  // PIECES_COMMON_CHECKSUM_H_
