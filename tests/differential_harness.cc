#include "differential_harness.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "common/random.h"
#include "index/registry.h"
#include "store/disk_store.h"
#include "store/viper.h"
#include "workload/datasets.h"

namespace pieces {
namespace {

// SplitMix64 finalizer: deterministic per-op value so a replayed stream
// (or any minimized sub-stream) writes the exact same payloads.
Value OpValue(uint64_t seed, uint64_t i) {
  uint64_t x = seed ^ (i * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Adversarial key set: dense consecutive runs, a near-UINT64_MAX tail,
// clusters separated by huge gaps, and a low all-in-one-cacheline block —
// the patterns that break learned models' bounded searches. Excludes the
// ~0ull gapped-array sentinel.
std::vector<Key> MakeAdversarialKeys(size_t n, uint64_t seed) {
  std::vector<Key> keys;
  keys.reserve(n + n / 4);
  Rng rng(seed);
  size_t quarter = std::max<size_t>(1, n / 4);
  // 1) Dense run (sequential inserts / append workloads).
  uint64_t base = 1ull << 20;
  for (size_t i = 0; i < quarter; ++i) keys.push_back(base + i);
  // 2) Near-max tail. Leaves a little headroom below the ~0ull sentinel
  // because exhausted insert pools are reused with a small additive offset.
  for (size_t i = 0; i < quarter; ++i) {
    keys.push_back(~0ull - 8 - 2 * static_cast<uint64_t>(i));
  }
  // 3) Tight clusters separated by huge gaps (OSM-style, exaggerated).
  size_t clusters = std::max<size_t>(1, quarter / 64);
  for (size_t c = 0; c < clusters; ++c) {
    uint64_t start = (rng.Next() % (~0ull / 2)) + (1ull << 21);
    for (size_t i = 0; i < 64 && keys.size() < n; ++i) {
      keys.push_back(start + i * (1 + rng.NextUnder(3)));
    }
  }
  // 4) Uniform filler for the remainder.
  while (keys.size() < n) keys.push_back(rng.Next() % (~0ull - 1));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<KeyValue> LoadData(const std::vector<Key>& load, uint64_t seed) {
  std::vector<KeyValue> data;
  data.reserve(load.size());
  for (size_t i = 0; i < load.size(); ++i) {
    data.push_back({load[i], OpValue(seed, ~static_cast<uint64_t>(i))});
  }
  return data;
}

const char* KindName(DiffOp::Kind k) {
  switch (k) {
    case DiffOp::kGet: return "GET";
    case DiffOp::kPut: return "PUT";
    case DiffOp::kScan: return "SCAN";
    case DiffOp::kRecover: return "RECOVER";
  }
  return "?";
}

std::string DescribeOp(const DiffOp& op) {
  std::ostringstream os;
  os << KindName(op.kind) << " key=" << op.key;
  if (op.kind == DiffOp::kPut) os << " value=" << op.value;
  if (op.kind == DiffOp::kScan) os << " len=" << op.scan_len;
  return os.str();
}

struct Failure {
  size_t op_index;
  std::string detail;
};

using Oracle = std::map<Key, Value>;

std::vector<KeyValue> OracleSnapshot(const Oracle& oracle) {
  std::vector<KeyValue> snap;
  snap.reserve(oracle.size());
  for (const auto& [k, v] : oracle) snap.push_back({k, v});
  return snap;
}

// Executes the stream against a fresh index + oracle; returns the first
// divergence, or nullopt when the index conforms on every op.
std::optional<Failure> ExecuteIndexStream(const std::string& index_name,
                                          const std::vector<KeyValue>& load,
                                          const std::vector<DiffOp>& ops) {
  std::unique_ptr<OrderedIndex> index = MakeIndex(index_name);
  if (index == nullptr) return Failure{0, "unknown index: " + index_name};
  const bool can_insert = index->SupportsInsert();
  const bool can_scan = index->SupportsScan();
  Oracle oracle;
  for (const KeyValue& kv : load) oracle[kv.key] = kv.value;
  index->BulkLoad(load);
  // Spot-check the load itself so a bulk-load bug is reported as such.
  if (!load.empty()) {
    for (size_t probe : {size_t{0}, load.size() / 2, load.size() - 1}) {
      Value v = 0;
      if (!index->Get(load[probe].key, &v) || v != load[probe].value) {
        return Failure{0, "bulk-load divergence at loaded key " +
                              std::to_string(load[probe].key)};
      }
    }
  }

  std::vector<KeyValue> got;
  for (size_t i = 0; i < ops.size(); ++i) {
    const DiffOp& op = ops[i];
    switch (op.kind) {
      case DiffOp::kGet: {
        Value v = 0;
        bool present = index->Get(op.key, &v);
        auto it = oracle.find(op.key);
        bool expected = it != oracle.end();
        if (present != expected) {
          return Failure{i, std::string("Get presence mismatch: index=") +
                                (present ? "found" : "absent") + " oracle=" +
                                (expected ? "found" : "absent")};
        }
        if (present && v != it->second) {
          return Failure{i, "Get value mismatch: index=" + std::to_string(v) +
                                " oracle=" + std::to_string(it->second)};
        }
        break;
      }
      case DiffOp::kPut: {
        bool ok = index->Insert(op.key, op.value);
        if (!can_insert) {
          if (ok) return Failure{i, "read-only index accepted Insert"};
          break;
        }
        if (!ok) return Failure{i, "Insert returned false"};
        oracle[op.key] = op.value;
        Value v = 0;
        if (!index->Get(op.key, &v)) {
          return Failure{i, "key absent immediately after Insert"};
        }
        if (v != op.value) {
          return Failure{i, "stale value after Insert: index=" +
                                std::to_string(v) + " expected=" +
                                std::to_string(op.value)};
        }
        break;
      }
      case DiffOp::kScan: {
        got.clear();
        size_t n = index->Scan(op.key, op.scan_len, &got);
        if (!can_scan) {
          if (n != 0 || !got.empty()) {
            return Failure{i, "scan-less index returned scan results"};
          }
          break;
        }
        if (n != got.size()) {
          return Failure{i, "Scan return count " + std::to_string(n) +
                                " != appended " + std::to_string(got.size())};
        }
        auto it = oracle.lower_bound(op.key);
        size_t want = 0;
        for (; want < op.scan_len && it != oracle.end(); ++want, ++it) {
          if (want >= got.size()) break;
          if (got[want].key != it->first || got[want].value != it->second) {
            return Failure{i, "Scan mismatch at result " +
                                  std::to_string(want) + ": index=(" +
                                  std::to_string(got[want].key) + "," +
                                  std::to_string(got[want].value) +
                                  ") oracle=(" + std::to_string(it->first) +
                                  "," + std::to_string(it->second) + ")"};
          }
        }
        if (want != n || (it != oracle.end() && n < op.scan_len)) {
          size_t expect = want;
          for (; expect < op.scan_len && it != oracle.end(); ++expect, ++it) {
          }
          return Failure{i, "Scan length mismatch: index=" +
                                std::to_string(n) + " oracle=" +
                                std::to_string(expect)};
        }
        break;
      }
      case DiffOp::kRecover: {
        index->BulkLoad(OracleSnapshot(oracle));
        break;
      }
    }
  }
  return std::nullopt;
}

// Mirrors ViperStore::FillSynthetic (the documented key-derived payload;
// viper_test relies on the same pattern).
void FillSyntheticLike(Key key, uint8_t* buf, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<uint8_t>((key >> (8 * (i % 8))) ^ i);
  }
}

// Payload for harness Puts: derived from (key, op value) so every update
// writes a distinct, recomputable buffer.
void FillPutPayload(Key key, Value tag, uint8_t* buf, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<uint8_t>(((key ^ tag) >> (8 * (i % 8))) + i);
  }
}

// Oracle for store runs: value==kSyntheticTag means "bulk-loaded synthetic
// payload", anything else is a FillPutPayload tag.
constexpr Value kSyntheticTag = ~0ull;

std::optional<Failure> ExecuteStoreStream(StoreMedium medium,
                                          const std::string& index_name,
                                          const std::vector<Key>& load_keys,
                                          const std::vector<DiffOp>& ops,
                                          size_t value_size,
                                          bool crash_before_recover) {
  std::unique_ptr<RecordCore> owned =
      MakeHarnessStore(medium, index_name, value_size);
  RecordCore& store = *owned;
  Oracle oracle;
  for (Key k : load_keys) oracle[k] = kSyntheticTag;
  if (!store.BulkLoad(load_keys)) {
    return Failure{0, "BulkLoad exhausted the medium"};
  }

  std::vector<uint8_t> buf(value_size);
  std::vector<uint8_t> want(value_size);
  std::vector<Key> scan_keys;
  auto expect_payload = [&](Key key, Value tag, uint8_t* out) {
    if (tag == kSyntheticTag) {
      FillSyntheticLike(key, out, value_size);
    } else {
      FillPutPayload(key, tag, out, value_size);
    }
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const DiffOp& op = ops[i];
    switch (op.kind) {
      case DiffOp::kGet: {
        bool present = store.Get(op.key, buf.data());
        auto it = oracle.find(op.key);
        bool expected = it != oracle.end();
        if (present != expected) {
          return Failure{i, std::string("store Get presence mismatch: store=") +
                                (present ? "found" : "absent") + " oracle=" +
                                (expected ? "found" : "absent")};
        }
        if (present) {
          expect_payload(op.key, it->second, want.data());
          if (std::memcmp(buf.data(), want.data(), value_size) != 0) {
            return Failure{i, "store Get payload mismatch"};
          }
        }
        break;
      }
      case DiffOp::kPut: {
        Value tag = op.value == kSyntheticTag ? 1 : op.value;
        FillPutPayload(op.key, tag, buf.data(), value_size);
        if (!store.Put(op.key, buf.data())) {
          return Failure{i, "store Put failed"};
        }
        oracle[op.key] = tag;
        break;
      }
      case DiffOp::kScan: {
        scan_keys.clear();
        size_t n = store.Scan(op.key, op.scan_len, &scan_keys);
        if (n != scan_keys.size()) {
          return Failure{i, "store Scan count mismatch"};
        }
        auto it = oracle.lower_bound(op.key);
        for (size_t j = 0; j < n; ++j, ++it) {
          if (it == oracle.end() || scan_keys[j] != it->first) {
            return Failure{i, "store Scan key mismatch at result " +
                                  std::to_string(j)};
          }
        }
        size_t expect = 0;
        for (auto it2 = oracle.lower_bound(op.key);
             expect < op.scan_len && it2 != oracle.end(); ++expect, ++it2) {
        }
        if (n != expect) {
          return Failure{i, "store Scan length mismatch: store=" +
                                std::to_string(n) + " oracle=" +
                                std::to_string(expect)};
        }
        break;
      }
      case DiffOp::kRecover: {
        // Every acknowledged op persisted before its ack, so even a power
        // failure here (crash_before_recover) loses nothing the oracle
        // knows about.
        if (crash_before_recover) store.Crash();
        store.Recover();
        if (store.size() != oracle.size()) {
          return Failure{i, "store size after Recover=" +
                                std::to_string(store.size()) + " oracle=" +
                                std::to_string(oracle.size())};
        }
        break;
      }
    }
  }
  return std::nullopt;
}

// One (crash point, tear offset) replay: fresh store, bulk-load, arm the
// crash, replay with live verification against the acknowledged-op
// oracle, recover, and check the recovered store holds EXACTLY what the
// durability contract promises. The armed crash can only fire inside a
// Put (nothing else on the post-load path takes a barrier), at the put's
// one barrier over its whole record, making the expected post-crash
// state fully deterministic:
//   * tear short of the whole record: a prefix never completes the
//     trailing magic, a suffix lands the header over a payload whose head
//     is missing and fails the CRC — strict oracle;
//   * tear covers the whole record: the in-flight put is durable despite
//     never being acknowledged — oracle plus that put.
std::optional<Failure> ExecuteCrashRun(StoreMedium medium,
                                       const std::string& index_name,
                                       const std::vector<Key>& load_keys,
                                       const std::vector<DiffOp>& ops,
                                       size_t value_size, uint64_t crash_at,
                                       int64_t tear,
                                       FaultDevice::TearEnd end) {
  std::unique_ptr<RecordCore> owned =
      MakeHarnessStore(medium, index_name, value_size);
  RecordCore& store = *owned;
  Oracle acked;
  for (Key k : load_keys) acked[k] = kSyntheticTag;
  if (!store.BulkLoad(load_keys)) {
    return Failure{0, "BulkLoad exhausted the medium"};
  }
  store.fault().FailAfterBarriers(crash_at, tear, end);

  std::vector<uint8_t> buf(value_size);
  std::vector<uint8_t> want(value_size);
  std::vector<Key> scan_keys;
  auto expect_payload = [&](Key key, Value tag, uint8_t* out) {
    if (tag == kSyntheticTag) {
      FillSyntheticLike(key, out, value_size);
    } else {
      FillPutPayload(key, tag, out, value_size);
    }
  };

  bool crashed = false;
  Key pending_key = 0;
  Value pending_tag = 0;
  uint64_t put_barriers_before = 0;
  size_t i = 0;
  try {
    for (; i < ops.size(); ++i) {
      const DiffOp& op = ops[i];
      switch (op.kind) {
        case DiffOp::kGet: {
          bool present = store.Get(op.key, buf.data());
          auto it = acked.find(op.key);
          bool expected = it != acked.end();
          if (present != expected) {
            return Failure{i, "pre-crash Get presence mismatch"};
          }
          if (present) {
            expect_payload(op.key, it->second, want.data());
            if (std::memcmp(buf.data(), want.data(), value_size) != 0) {
              return Failure{i, "pre-crash Get payload mismatch"};
            }
          }
          break;
        }
        case DiffOp::kPut: {
          Value tag = op.value == kSyntheticTag ? 1 : op.value;
          FillPutPayload(op.key, tag, buf.data(), value_size);
          pending_key = op.key;
          pending_tag = tag;
          put_barriers_before = store.IoStats().barriers;
          if (!store.Put(op.key, buf.data())) {
            return Failure{i, "pre-crash Put failed"};
          }
          acked[op.key] = tag;
          break;
        }
        case DiffOp::kScan:
          // Scan ordering is the differential runs' job; here the scan
          // exercises the read path against a partially dirty arena.
          scan_keys.clear();
          store.Scan(op.key, op.scan_len, &scan_keys);
          break;
        case DiffOp::kRecover:
          store.Recover();
          break;
      }
    }
  } catch (const SimulatedCrash&) {
    crashed = true;
  }

  bool pending_durable = false;
  if (crashed) {
    if (i >= ops.size() || ops[i].kind != DiffOp::kPut) {
      return Failure{i, "crash fired outside a Put (no barrier expected)"};
    }
    if (store.IoStats().barriers - put_barriers_before != 1) {
      return Failure{i, "the crashing put crossed more than one barrier"};
    }
    pending_durable = tear >= static_cast<int64_t>(store.record_bytes());
  } else {
    // The (possibly minimized) stream crossed fewer than crash_at
    // barriers: power-fail at the quiescent end instead so the
    // verification below still runs.
    store.fault().Disarm();
    store.Crash();
  }
  store.Recover();

  Oracle expected = acked;
  if (pending_durable) expected[pending_key] = pending_tag;
  if (store.size() != expected.size()) {
    return Failure{i, "recovered size=" + std::to_string(store.size()) +
                          " expected=" + std::to_string(expected.size()) +
                          (pending_durable ? " (incl. in-flight put)" : "")};
  }
  for (const auto& [k, tag] : expected) {
    if (!store.Get(k, buf.data())) {
      return Failure{i, "acknowledged key lost after crash-recover: " +
                            std::to_string(k)};
    }
    expect_payload(k, tag, want.data());
    if (std::memcmp(buf.data(), want.data(), value_size) != 0) {
      return Failure{i, "payload mismatch after crash-recover at key " +
                            std::to_string(k)};
    }
  }
  return std::nullopt;
}

// ddmin-lite: repeatedly drop chunks of the failing prefix while it still
// diverges, bounded by a replay budget so minimization stays fast even for
// slow indexes.
std::vector<DiffOp> MinimizeOps(
    const std::vector<DiffOp>& failing,
    const std::function<bool(const std::vector<DiffOp>&)>& still_fails) {
  std::vector<DiffOp> prefix = failing;
  int budget = 200;
  size_t chunk = std::max<size_t>(1, prefix.size() / 2);
  while (budget > 0) {
    bool removed = false;
    for (size_t start = 0; start < prefix.size() && budget > 0;) {
      std::vector<DiffOp> candidate;
      candidate.reserve(prefix.size());
      candidate.insert(candidate.end(), prefix.begin(),
                       prefix.begin() + static_cast<ptrdiff_t>(start));
      size_t stop = std::min(prefix.size(), start + chunk);
      candidate.insert(candidate.end(),
                       prefix.begin() + static_cast<ptrdiff_t>(stop),
                       prefix.end());
      --budget;
      if (!candidate.empty() && still_fails(candidate)) {
        prefix = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1 && !removed) break;
    chunk = std::max<size_t>(1, chunk / 2);
  }
  return prefix;
}

std::string BuildReport(const std::string& kind, const std::string& index_name,
                        const DiffConfig& cfg, const Failure& failure,
                        const std::vector<DiffOp>& ops,
                        const std::vector<DiffOp>& minimized) {
  std::ostringstream os;
  os << "DIFFERENTIAL DIVERGENCE (" << kind << ")\n"
     << "  index=" << index_name << " dataset=" << cfg.dataset
     << " seed=" << cfg.seed << " load_keys=" << cfg.load_keys
     << " ops=" << cfg.ops << "\n"
     << "  first divergence at op " << failure.op_index;
  if (failure.op_index < ops.size()) {
    os << " (" << DescribeOp(ops[failure.op_index]) << ")";
  }
  os << "\n  detail: " << failure.detail << "\n"
     << "  minimized prefix (" << minimized.size() << " ops):\n";
  size_t shown = std::min<size_t>(minimized.size(), 50);
  for (size_t i = 0; i < shown; ++i) {
    os << "    [" << i << "] " << DescribeOp(minimized[i]) << "\n";
  }
  if (shown < minimized.size()) {
    os << "    ... (" << (minimized.size() - shown) << " more)\n";
  }
  os << "  replay: rerun with DiffConfig{seed=" << cfg.seed << ", dataset=\""
     << cfg.dataset << "\"} (env PIECES_DIFF_SEED=" << cfg.seed
     << " for the gtest runner)\n";
  return os.str();
}

}  // namespace

const char* MediumName(StoreMedium medium) {
  return medium == StoreMedium::kViper ? "viper" : "disk";
}

std::unique_ptr<RecordCore> MakeHarnessStore(StoreMedium medium,
                                             const std::string& index_name,
                                             size_t value_size) {
  // Small media: minimization replays construct many stores.
  if (medium == StoreMedium::kViper) {
    ViperStore::Config cfg;
    cfg.value_size = value_size;
    cfg.pmem_capacity = size_t{64} << 20;
    return std::make_unique<ViperStore>(MakeIndex(index_name), cfg);
  }
  static std::atomic<uint64_t> next_file{0};
  DiskStore::Config cfg;
  cfg.value_size = value_size;
  cfg.pool_pages = 8;
  cfg.file_capacity = size_t{64} << 20;
  cfg.io_engine = "serial";
  cfg.path = (std::filesystem::temp_directory_path() /
              ("pieces_harness_" + std::to_string(::getpid()) + "_" +
               std::to_string(next_file.fetch_add(1)) + ".pages"))
                 .string();
  return std::make_unique<DiskStore>(MakeIndex(index_name), cfg);
}

void MakeDiffKeys(const DiffConfig& cfg, std::vector<Key>* load,
                  std::vector<Key>* inserts) {
  // Generate enough raw keys that the insert pool outlasts the op stream's
  // insert share without wrapping too often.
  size_t want_inserts = cfg.ops / 4 + 16;
  size_t total = cfg.load_keys + want_inserts;
  std::vector<Key> keys = cfg.dataset == "adversarial"
                              ? MakeAdversarialKeys(total, cfg.seed)
                              : MakeKeys(cfg.dataset, total, cfg.seed);
  size_t hold_out = std::max<size_t>(2, keys.size() / std::max<size_t>(
                                            1, want_inserts));
  SplitLoadAndInserts(keys, hold_out, load, inserts);
  if (load->size() > cfg.load_keys) load->resize(cfg.load_keys);
}

std::vector<DiffOp> GenerateDiffOps(const DiffConfig& cfg,
                                    const std::vector<Key>& load_keys,
                                    const std::vector<Key>& insert_pool) {
  WorkloadSpec spec;
  spec.read_pct = cfg.read_pct;
  spec.update_pct = cfg.update_pct;
  spec.insert_pct = cfg.insert_pct;
  spec.rmw_pct = cfg.rmw_pct;
  spec.scan_pct = cfg.scan_pct;
  spec.pick = cfg.pick;
  spec.scan_len = cfg.scan_len;
  std::vector<Op> raw =
      GenerateOps(spec, cfg.ops, load_keys, insert_pool, cfg.seed);
  std::vector<DiffOp> ops;
  ops.reserve(raw.size() + raw.size() / 8);
  for (size_t i = 0; i < raw.size(); ++i) {
    const Op& op = raw[i];
    // GenerateOps draws read/scan keys from the loaded set; perturb a
    // deterministic fraction so absent keys one off a stored key — the
    // hard case for bounded model-based searches — are probed too.
    Key probe = op.key;
    if (i % 5 == 0 && probe < ~0ull - 1) ++probe;
    if (i % 11 == 0 && probe > 0) --probe;
    switch (op.type) {
      case OpType::kRead:
        ops.push_back({DiffOp::kGet, probe, 0, 0});
        break;
      case OpType::kUpdate:
      case OpType::kInsert:
        ops.push_back({DiffOp::kPut, op.key, OpValue(cfg.seed, i), 0});
        break;
      case OpType::kReadModifyWrite:
        ops.push_back({DiffOp::kGet, op.key, 0, 0});
        ops.push_back({DiffOp::kPut, op.key, OpValue(cfg.seed, i), 0});
        break;
      case OpType::kScan: {
        // Vary the length deterministically (including len 0 and 1).
        uint32_t len = op.scan_len == 0
                           ? 0
                           : static_cast<uint32_t>(
                                 OpValue(cfg.seed, i) % (2 * op.scan_len));
        ops.push_back({DiffOp::kScan, probe, 0, len});
        break;
      }
    }
    if (cfg.recover_every != 0 && (i + 1) % cfg.recover_every == 0) {
      ops.push_back({DiffOp::kRecover, 0, 0, 0});
    }
  }
  return ops;
}

DiffResult RunIndexDifferential(const std::string& index_name,
                                const DiffConfig& cfg) {
  DiffResult result;
  std::unique_ptr<OrderedIndex> probe = MakeIndex(index_name);
  if (probe == nullptr) {
    result.ok = false;
    result.report = "unknown index: " + index_name;
    return result;
  }
  DiffConfig effective = cfg;
  // Fold unsupported op shares into reads so the stream stays 100%.
  if (!probe->SupportsInsert()) {
    effective.read_pct +=
        effective.update_pct + effective.insert_pct + effective.rmw_pct;
    effective.update_pct = effective.insert_pct = effective.rmw_pct = 0;
  }
  if (!probe->SupportsScan()) {
    effective.read_pct += effective.scan_pct;
    effective.scan_pct = 0;
  }

  std::vector<Key> load_keys;
  std::vector<Key> insert_pool;
  MakeDiffKeys(effective, &load_keys, &insert_pool);
  std::vector<KeyValue> load = LoadData(load_keys, effective.seed);
  std::vector<DiffOp> ops = GenerateDiffOps(effective, load_keys, insert_pool);

  std::optional<Failure> failure = ExecuteIndexStream(index_name, load, ops);
  result.ops_executed = ops.size();
  if (!failure) return result;

  std::vector<DiffOp> prefix(
      ops.begin(),
      ops.begin() + static_cast<ptrdiff_t>(
                        std::min(ops.size(), failure->op_index + 1)));
  std::vector<DiffOp> minimized =
      MinimizeOps(prefix, [&](const std::vector<DiffOp>& candidate) {
        return ExecuteIndexStream(index_name, load, candidate).has_value();
      });
  result.ok = false;
  result.report =
      BuildReport("index", index_name, effective, *failure, ops, minimized);
  return result;
}

DiffResult RunStoreDifferential(const std::string& index_name,
                                const DiffConfig& cfg) {
  DiffResult result;
  std::unique_ptr<OrderedIndex> probe = MakeIndex(index_name);
  if (probe == nullptr || !probe->SupportsInsert()) {
    result.ok = false;
    result.report = "store differential needs an updatable index, got: " +
                    index_name;
    return result;
  }
  DiffConfig effective = cfg;
  if (!probe->SupportsScan()) {
    effective.read_pct += effective.scan_pct;
    effective.scan_pct = 0;
  }
  std::vector<Key> load_keys;
  std::vector<Key> insert_pool;
  MakeDiffKeys(effective, &load_keys, &insert_pool);
  std::vector<DiffOp> ops = GenerateDiffOps(effective, load_keys, insert_pool);

  std::optional<Failure> failure =
      ExecuteStoreStream(effective.medium, index_name, load_keys, ops,
                         effective.store_value_size,
                         effective.crash_before_recover);
  result.ops_executed = ops.size();
  if (!failure) return result;

  std::vector<DiffOp> prefix(
      ops.begin(),
      ops.begin() + static_cast<ptrdiff_t>(
                        std::min(ops.size(), failure->op_index + 1)));
  std::vector<DiffOp> minimized =
      MinimizeOps(prefix, [&](const std::vector<DiffOp>& candidate) {
        return ExecuteStoreStream(effective.medium, index_name, load_keys,
                                  candidate, effective.store_value_size,
                                  effective.crash_before_recover)
            .has_value();
      });
  result.ok = false;
  result.report =
      BuildReport(std::string(MediumName(effective.medium)) + " store",
                  index_name, effective, *failure, ops, minimized);
  return result;
}

CrashSweepResult RunCrashSweep(const std::string& index_name,
                               const DiffConfig& cfg,
                               const std::vector<int64_t>& tear_offsets,
                               FaultDevice::TearEnd end) {
  CrashSweepResult result;
  std::unique_ptr<OrderedIndex> probe = MakeIndex(index_name);
  if (probe == nullptr || !probe->SupportsInsert()) {
    result.ok = false;
    result.report = "crash sweep needs an updatable index, got: " + index_name;
    return result;
  }
  DiffConfig effective = cfg;
  if (!probe->SupportsScan()) {
    effective.read_pct += effective.scan_pct;
    effective.scan_pct = 0;
  }
  const StoreMedium medium = effective.medium;
  const std::string name = MediumName(medium);
  std::vector<Key> load_keys;
  std::vector<Key> insert_pool;
  MakeDiffKeys(effective, &load_keys, &insert_pool);
  std::vector<DiffOp> ops = GenerateDiffOps(effective, load_keys, insert_pool);

  // Dry run: count the barriers the stream crosses — each one is a crash
  // point — with a huge armed count so the n = "never fires" endpoint
  // (quiescent crash + recover) is verified too.
  {
    std::optional<Failure> clean = ExecuteCrashRun(
        medium, index_name, load_keys, ops, effective.store_value_size, ~0ull,
        FaultDevice::kNoTear, end);
    if (clean) {
      result.ok = false;
      result.report = BuildReport(name + " crash-sweep dry run", index_name,
                                  effective, *clean, ops, ops);
      return result;
    }
    std::unique_ptr<RecordCore> store =
        MakeHarnessStore(medium, index_name, effective.store_value_size);
    store->BulkLoad(load_keys);
    uint64_t before = store->IoStats().barriers;
    std::vector<uint8_t> buf(effective.store_value_size);
    std::vector<Key> scan_keys;
    for (const DiffOp& op : ops) {
      switch (op.kind) {
        case DiffOp::kGet:
          store->Get(op.key, buf.data());
          break;
        case DiffOp::kPut:
          FillPutPayload(op.key, op.value, buf.data(), buf.size());
          store->Put(op.key, buf.data());
          break;
        case DiffOp::kScan:
          scan_keys.clear();
          store->Scan(op.key, op.scan_len, &scan_keys);
          break;
        case DiffOp::kRecover:
          store->Recover();
          break;
      }
    }
    result.crash_points =
        static_cast<size_t>(store->IoStats().barriers - before);
  }

  std::vector<int64_t> tears = tear_offsets;
  if (tears.empty()) tears.push_back(FaultDevice::kNoTear);
  for (uint64_t n = 1; n <= result.crash_points; ++n) {
    for (int64_t tear : tears) {
      ++result.runs;
      std::optional<Failure> failure =
          ExecuteCrashRun(medium, index_name, load_keys, ops,
                          effective.store_value_size, n, tear, end);
      if (!failure) continue;
      std::vector<DiffOp> prefix(
          ops.begin(),
          ops.begin() + static_cast<ptrdiff_t>(
                            std::min(ops.size(), failure->op_index + 1)));
      std::vector<DiffOp> minimized =
          MinimizeOps(prefix, [&](const std::vector<DiffOp>& candidate) {
            return ExecuteCrashRun(medium, index_name, load_keys, candidate,
                                   effective.store_value_size, n, tear, end)
                .has_value();
          });
      result.ok = false;
      result.report = BuildReport(
          name + " crash-sweep barrier=" + std::to_string(n) + " tear=" +
              (end == FaultDevice::TearEnd::kTail ? "tail:" : "") +
              std::to_string(tear),
          index_name, effective, *failure, ops, minimized);
      return result;
    }
  }
  return result;
}

CrashSweepResult RunBulkLoadCrashSweep(StoreMedium medium,
                                       const std::string& index_name,
                                       size_t load_keys,
                                       const std::vector<int64_t>& tear_offsets,
                                       uint64_t seed) {
  CrashSweepResult result;
  if (MakeIndex(index_name) == nullptr) {
    result.ok = false;
    result.report = "unknown index: " + index_name;
    return result;
  }
  constexpr size_t kValueSize = 24;
  std::vector<Key> keys = MakeUniformKeys(load_keys, seed);
  size_t record_bytes = 0;
  size_t slots_per_page = 0;
  // Dry run: barrier count (one per page span) and record geometry.
  {
    std::unique_ptr<RecordCore> store =
        MakeHarnessStore(medium, index_name, kValueSize);
    record_bytes = store->record_bytes();
    slots_per_page = store->slots_per_page();
    uint64_t before = store->IoStats().barriers;
    if (!store->BulkLoad(keys)) {
      result.ok = false;
      result.report = "BulkLoad exhausted the medium";
      return result;
    }
    result.crash_points =
        static_cast<size_t>(store->IoStats().barriers - before);
  }

  std::vector<int64_t> tears = tear_offsets;
  if (tears.empty()) tears.push_back(FaultDevice::kNoTear);
  std::vector<uint8_t> buf(kValueSize);
  std::vector<uint8_t> want(kValueSize);
  auto fail = [&](uint64_t n, int64_t tear, const std::string& detail) {
    result.ok = false;
    std::ostringstream os;
    os << "BULKLOAD CRASH SWEEP FAILURE\n  medium=" << MediumName(medium)
       << " index=" << index_name << " seed=" << seed
       << " keys=" << keys.size() << " barrier=" << n << " tear=" << tear
       << "\n  detail: " << detail << "\n";
    result.report = os.str();
    return result;
  };
  for (uint64_t n = 1; n <= result.crash_points; ++n) {
    for (int64_t tear : tears) {
      ++result.runs;
      std::unique_ptr<RecordCore> owned =
          MakeHarnessStore(medium, index_name, kValueSize);
      RecordCore& store = *owned;
      store.fault().FailAfterBarriers(n, tear);
      bool crashed = false;
      try {
        store.BulkLoad(keys);
      } catch (const SimulatedCrash&) {
        crashed = true;
      }
      if (!crashed) return fail(n, tear, "armed crash never fired");
      store.Recover();
      // Exact durable prefix: barrier k makes the k-th page span durable,
      // so spans 1..n-1 are fully durable and the crashing span keeps its
      // torn prefix's *complete* records (a torn record's header cannot
      // validate).
      size_t full = std::min(keys.size(), (n - 1) * slots_per_page);
      size_t span_records = std::min(slots_per_page, keys.size() - full);
      size_t torn_records =
          tear < 0 ? 0
                   : std::min(static_cast<size_t>(tear) / record_bytes,
                              span_records);
      size_t expect = full + torn_records;
      if (store.size() != expect) {
        return fail(n, tear,
                    "recovered " + std::to_string(store.size()) +
                        " records, expected exactly " +
                        std::to_string(expect));
      }
      for (size_t j = 0; j < expect; ++j) {
        if (!store.Get(keys[j], buf.data())) {
          return fail(n, tear, "durable-prefix key missing: key index " +
                                   std::to_string(j));
        }
        FillSyntheticLike(keys[j], want.data(), want.size());
        if (std::memcmp(buf.data(), want.data(), want.size()) != 0) {
          return fail(n, tear, "payload mismatch at key index " +
                                   std::to_string(j));
        }
      }
      if (expect < keys.size() && store.Get(keys[expect], buf.data())) {
        return fail(n, tear,
                    "key beyond the durable prefix resurrected: index " +
                        std::to_string(expect));
      }
    }
  }
  return result;
}

}  // namespace pieces
