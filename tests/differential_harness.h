// Differential conformance harness: drives any registered index (and a
// record store — ViperStore or DiskStore — stacked on any updatable
// index) through long seeded streams
// of interleaved operations — bulk-load, point read, insert, update
// (upsert), scan, recover — and checks every single result against a
// std::map oracle. On divergence it delta-minimizes the op stream and
// reports the seed, index name and the minimized op prefix so the failure
// can be replayed deterministically.
//
// This is the correctness floor under the paper's cross-index numbers:
// all 14 indexes must behave identically through OrderedIndex before any
// throughput comparison between them means anything.
#ifndef PIECES_TESTS_DIFFERENTIAL_HARNESS_H_
#define PIECES_TESTS_DIFFERENTIAL_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "index/ordered_index.h"
#include "store/record_core.h"
#include "workload/ycsb.h"

namespace pieces {

// The base seed every differential and crash-sweep suite derives its
// seeds from: PIECES_DIFF_SEED=<n> replays seed n. A malformed value
// ("12x", "abc") warns once and keeps the default instead of replaying
// some other seed.
inline uint64_t DiffBaseSeed() {
  return GetEnvU64("PIECES_DIFF_SEED", 0x5eed);
}

// The medium a store-level run builds its store on.
enum class StoreMedium { kViper, kDisk };

// "viper" or "disk".
const char* MediumName(StoreMedium medium);

// The one store factory behind every store-level run: a fresh
// `index_name` index under a small ViperStore (64 MiB arena) or DiskStore
// (a per-store temp file behind an 8-frame pool with the serial engine).
// Either way the store is armed and observed through fault() and
// IoStats(), so a run is written once for both media.
std::unique_ptr<RecordCore> MakeHarnessStore(StoreMedium medium,
                                             const std::string& index_name,
                                             size_t value_size);

// One operation in a differential stream. kPut covers insert, update and
// the write half of read-modify-write (all upserts through OrderedIndex);
// kRecover rebuilds the index from a sorted snapshot of the oracle
// (store runs use the store's Recover instead).
struct DiffOp {
  enum Kind : uint8_t { kGet = 0, kPut = 1, kScan = 2, kRecover = 3 };
  Kind kind;
  Key key = 0;
  Value value = 0;
  uint32_t scan_len = 0;
};

struct DiffConfig {
  uint64_t seed = 1;
  // Key pattern: any MakeKeys dataset name ("ycsb", "osm", "face",
  // "sequential", ...) or "adversarial" (dense runs, near-UINT64_MAX
  // tail, wide gaps, duplicate-heavy op keys).
  std::string dataset = "ycsb";
  size_t load_keys = 20000;  // Bulk-loaded before the op stream.
  size_t ops = 50000;        // Interleaved ops after the load.
  // Percentages must sum to 100. For indexes without insert support the
  // write shares are folded into reads; without scan support the scan
  // share is folded into reads (the unsupported paths are still probed).
  int read_pct = 40;
  int update_pct = 20;
  int insert_pct = 20;
  int rmw_pct = 5;
  int scan_pct = 15;
  uint32_t scan_len = 64;
  KeyPick pick = KeyPick::kZipfian;
  size_t recover_every = 0;  // 0 = never; else a kRecover op every N ops.
  // Store runs only: the medium under the store.
  StoreMedium medium = StoreMedium::kViper;
  // Store runs only: value payload bytes (small keeps memcmp cheap).
  size_t store_value_size = 24;
  // Store runs only: kRecover ops power-fail the medium (dropping every
  // written-but-unbarriered byte) before recovering, instead of
  // rebuilding a live store. Acknowledged ops must still all survive.
  bool crash_before_recover = false;
};

struct DiffResult {
  bool ok = true;
  size_t ops_executed = 0;
  // On divergence: seed, index, dataset, failing op, minimized prefix.
  std::string report;
};

// Deterministically generates the op stream for `cfg` (exposed so a
// failing seed can be replayed and inspected from other tests/tools).
std::vector<DiffOp> GenerateDiffOps(const DiffConfig& cfg,
                                    const std::vector<Key>& load_keys,
                                    const std::vector<Key>& insert_pool);

// Loads the dataset named by `cfg`, split into bulk-load keys and a
// disjoint insert pool.
void MakeDiffKeys(const DiffConfig& cfg, std::vector<Key>* load,
                  std::vector<Key>* inserts);

// Runs `index_name` (any AllIndexNames() entry) against the oracle.
DiffResult RunIndexDifferential(const std::string& index_name,
                                const DiffConfig& cfg);

// Runs the same stream end-to-end through a store on cfg.medium built on
// `index_name` (must support insert), verifying full value payloads and
// using the store's Recover for kRecover ops.
DiffResult RunStoreDifferential(const std::string& index_name,
                                const DiffConfig& cfg);

struct CrashSweepResult {
  bool ok = true;
  size_t crash_points = 0;  // durability barriers the sweep crashed at
  size_t runs = 0;          // (crash point, tear offset) replays executed
  // On failure: the first failing (crash point, tear) with a minimized
  // replayable op prefix, in the differential-report format.
  std::string report;
};

// Crash-point sweep (the durability contract, exhaustively): replays the
// cfg stream against a store on cfg.medium over `index_name` (must be
// updatable) once per (barrier n, tear offset) pair, arming a crash at
// the n-th barrier after bulk-load — for every n the stream crosses —
// with `tear_bytes` of the crashing barrier's declared bytes committed
// from `end` (see FaultDevice::FailAfterBarriers; FaultDevice::kNoTear
// commits nothing). After each crash the store recovers and must contain
// exactly the acknowledged ops — plus the single in-flight put iff the
// tear covers its whole record. Empty `tear_offsets` sweeps kNoTear
// only. Failures are delta-minimized like the differential runs.
CrashSweepResult RunCrashSweep(
    const std::string& index_name, const DiffConfig& cfg,
    const std::vector<int64_t>& tear_offsets,
    FaultDevice::TearEnd end = FaultDevice::TearEnd::kHead);

// Crash-point sweep over BulkLoad's per-page barriers on `medium`: loads
// `load_keys` uniform keys, crashing at every barrier x tear offset, and
// asserts the recovered store holds *exactly* the durable prefix —
// (n-1) full page spans plus the torn span's complete records — nothing
// more, nothing less.
CrashSweepResult RunBulkLoadCrashSweep(StoreMedium medium,
                                       const std::string& index_name,
                                       size_t load_keys,
                                       const std::vector<int64_t>& tear_offsets,
                                       uint64_t seed = 1);

}  // namespace pieces

#endif  // PIECES_TESTS_DIFFERENTIAL_HARNESS_H_
