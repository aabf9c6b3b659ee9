#include "payload.h"

#include <cstring>

#include "common/checksum.h"
#include "store/record_format.h"

namespace perfbench {

namespace {

// Layout: [key:8][version:8][crc32c of everything else:4][pad:4][filler].
constexpr size_t kVersionOff = 8;
constexpr size_t kCrcOff = 16;
constexpr size_t kFillerOff = 24;

uint8_t FillerByte(Key key, uint64_t version, size_t i) {
  return static_cast<uint8_t>((key * 31 + version) >> (8 * (i % 8))) ^
         static_cast<uint8_t>(i);
}

uint32_t Checksum(const uint8_t* buf, size_t size) {
  uint32_t crc = pieces::Crc32c(buf, kCrcOff);
  return pieces::Crc32c(buf + kFillerOff, size - kFillerOff, crc);
}

}  // namespace

void EncodeValue(Key key, uint64_t version, uint8_t* buf, size_t size) {
  std::memcpy(buf, &key, sizeof(key));
  std::memcpy(buf + kVersionOff, &version, sizeof(version));
  std::memset(buf + kCrcOff, 0, kFillerOff - kCrcOff);
  for (size_t i = kFillerOff; i < size; ++i) {
    buf[i] = FillerByte(key, version, i);
  }
  const uint32_t crc = Checksum(buf, size);
  std::memcpy(buf + kCrcOff, &crc, sizeof(crc));
}

Decoded DecodeValue(Key key, const uint8_t* buf, size_t size) {
  Decoded d;
  Key stored_key = 0;
  uint64_t version = 0;
  uint32_t crc = 0;
  std::memcpy(&stored_key, buf, sizeof(stored_key));
  std::memcpy(&version, buf + kVersionOff, sizeof(version));
  std::memcpy(&crc, buf + kCrcOff, sizeof(crc));
  if (stored_key == key && version != 0 && crc == Checksum(buf, size)) {
    d.ok = true;
    d.version = version;
    return d;
  }
  // Not one of ours: it must be the record's bulk-loaded synthetic value.
  uint8_t expect[512];
  if (size > sizeof(expect)) return d;
  pieces::FillSyntheticRecordValue(key, expect, size);
  d.ok = std::memcmp(expect, buf, size) == 0;
  return d;
}

}  // namespace perfbench
