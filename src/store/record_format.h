// On-media record layout shared by every storage backend. A record is
// [key | value | RecordHeader]: a monotonic store-wide seqno, a CRC32C
// over key+value and a trailing commit magic. The whole record is made
// durable by one barrier, and counts as committed only when its header
// validates over its payload. A torn barrier that keeps a prefix of the
// record never completes the magic, which sits last; one that keeps a
// suffix lands the header without the payload head, and the CRC rejects
// it. The protocol that writes and validates records lives once, in
// store/record_core.h.
#ifndef PIECES_STORE_RECORD_FORMAT_H_
#define PIECES_STORE_RECORD_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "index/ordered_index.h"

namespace pieces {

// Per-record commit metadata, durable in the same barrier as the payload.
struct RecordHeader {
  uint64_t seqno = 0;  // Monotonic, 0 = never committed.
  uint32_t crc = 0;    // CRC32C over the record's key+value bytes.
  uint32_t magic = 0;  // kRecordCommitMagic when committed.
};
static_assert(sizeof(RecordHeader) == 16);

inline constexpr uint32_t kRecordCommitMagic = 0x50435631u;  // "1VCP"

// The deterministic value the synthetic write paths store for `key`,
// shared across backends so differential tests can compare payloads
// byte-for-byte between media.
inline void FillSyntheticRecordValue(Key key, uint8_t* buf,
                                     size_t value_size) {
  for (size_t i = 0; i < value_size; ++i) {
    buf[i] = static_cast<uint8_t>((key >> (8 * (i % 8))) ^ i);
  }
}

}  // namespace pieces

#endif  // PIECES_STORE_RECORD_FORMAT_H_
