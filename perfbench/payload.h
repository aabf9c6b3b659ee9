// Self-checking record values. Every value the benchmark writes encodes
// the key it belongs to, the write that produced it, and a checksum, so a
// read can be checked on its own: a kOk read must decode to the key it
// asked for. Bulk-loaded records carry the library's synthetic value
// (FillSyntheticRecordValue), which is also derived from the key.
#ifndef PERFBENCH_PAYLOAD_H_
#define PERFBENCH_PAYLOAD_H_

#include <cstddef>
#include <cstdint>

#include "index/ordered_index.h"

namespace perfbench {

using pieces::Key;

// Smallest value that holds key, version and checksum.
inline constexpr size_t kMinValueSize = 24;

// Writes the value of write `version` (>= 1) to `key`.
void EncodeValue(Key key, uint64_t version, uint8_t* buf, size_t size);

// Result of checking a value read for `key`.
struct Decoded {
  bool ok = false;       // the value belongs to `key` and is intact
  uint64_t version = 0;  // 0 = the bulk-loaded synthetic value
};
Decoded DecodeValue(Key key, const uint8_t* buf, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_PAYLOAD_H_
