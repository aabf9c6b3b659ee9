#include "workloads.h"

#include <algorithm>

#include "common/random.h"
#include "workload/datasets.h"
#include "workload/drift.h"

namespace perfbench {

using pieces::KeyPick;
using pieces::Op;
using pieces::OpType;
using pieces::WorkloadSpec;

const std::vector<Workload>& AllWorkloads() {
  // {name, index, backend, dataset, keys, rate, capacity_ops_per_s,
  //  maintenance, semisync, pool_fraction, readahead_pages, threads}
  static const std::vector<Workload> all = {
      // Fits in memory: index predict, last-mile search and batched
      // lookups do the work; media, maintainer and replication idle.
      {"read_mem", "PGM", "viper", "osm", 2'000'000, 100'000, 3'000'000,
       false, false, 0, 0, 3},
      // Inserts, SMOs and off-thread retrains, with reads on the same index.
      {"write_drift", "FITing-tree-buf", "viper", "osm", 1'000'000, 50'000,
       1'400'000, true, false, 0, 0, 4},
      // Larger than the pool: buffer pool, io engine, readahead,
      // page-grouped batches and fsync barriers do the work.
      {"disk_scan", "PGM", "disk", "osm", 500'000, 15'000, 250'000, false,
       false, 0.03, 8, 3},
      // The only workload with the replica ack on the write path.
      {"repl_semisync", "ALEX", "viper", "ycsb", 1'000'000, 20'000, 300'000,
       false, true, 0, 0, 4},
  };
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<uint64_t> MakeLoadKeys(const Workload& w, double scale) {
  const size_t n = std::max<size_t>(
      4096, static_cast<size_t>(static_cast<double>(w.keys) * scale));
  return pieces::MakeKeys(w.dataset, n, /*seed=*/1);
}

std::vector<Op> MakeOps(const Workload& w,
                        const std::vector<uint64_t>& loaded, size_t count,
                        uint64_t seed) {
  const std::string name = w.name;
  if (name == "write_drift") {
    pieces::DriftSpec spec;
    spec.kind = pieces::DriftKind::kKeyShift;
    spec.insert_pct = 40;
    spec.update_pct = 10;
    std::vector<Op> ops =
        pieces::GenerateDriftOps(spec, count, loaded, {}, seed);
    // One read in fifty becomes a scan, so scan latency is measured here
    // too (about 1% of requests).
    pieces::Rng rng(seed ^ 0x5ca9ULL);
    for (Op& op : ops) {
      if (op.type == OpType::kRead && rng.NextUnder(50) == 0) {
        op.type = OpType::kScan;
        op.scan_len = kScanLen;
      }
    }
    return ops;
  }
  WorkloadSpec spec;
  spec.pick = KeyPick::kZipfian;
  spec.scan_len = kScanLen;
  if (name == "read_mem") {
    spec.read_pct = 94;
    spec.update_pct = 5;
    spec.scan_pct = 1;
  } else if (name == "disk_scan") {
    spec.read_pct = 80;
    spec.update_pct = 5;
    spec.scan_pct = 15;
  } else {  // repl_semisync: YCSB-A
    spec.read_pct = 49;
    spec.update_pct = 50;
    spec.scan_pct = 1;
  }
  return pieces::GenerateOps(spec, count, loaded, {}, seed);
}

}  // namespace perfbench
