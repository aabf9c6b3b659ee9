// On-media record layout shared by every storage backend. A record is
// [key | value | RecordHeader]; the header (monotonic store-wide seqno +
// CRC32C over key+value + trailing commit magic) is made durable *after*
// the payload, so a record counts as committed only when its header
// validates. The magic sits last so a torn header flush can never
// validate: the durable prefix of a torn 16-byte header always ends
// before the magic completes. The protocol that writes and validates
// these headers lives once, in store/record_core.h.
#ifndef PIECES_STORE_RECORD_FORMAT_H_
#define PIECES_STORE_RECORD_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "index/ordered_index.h"

namespace pieces {

// Per-record commit metadata, durable after the payload.
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
