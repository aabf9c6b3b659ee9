// The benchmark's four serving workloads. Each is a fixed configuration
// of the stack (index, medium, background work, ack mode) plus a request
// mix generated from the run's seed. Every workload runs on 2 shards x 1
// writer lane behind one client thread, so busy threads stay within a
// 4-core box: the client, two shard workers, and either two maintainers
// or two shippers that are mostly idle.
//
// Offered rates are constants, roughly half of what this workload
// completes per second at capacity on a 4-core x86 box. They are never
// derived at run time: a faster change must not be offered more load.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/ycsb.h"

namespace perfbench {

struct Workload {
  const char* name;
  const char* index;    // index/registry.h name
  const char* backend;  // "viper" or "disk"
  const char* dataset;  // workload/datasets.h name
  size_t keys;          // bulk-loaded records
  double rate;          // offered ops/s in the latency phase
  // Ops generated per second of the capacity phase; comfortably above
  // what the workload completes, so the client never runs dry.
  double capacity_ops_per_s;
  bool maintenance;      // background retraining on
  bool semisync;         // replication with AckMode::kReplicated
  double pool_fraction;  // disk: buffer-pool frames / data pages
  size_t readahead_pages;
  int threads;  // busy-thread budget: refuse to run on fewer cores
};

inline constexpr size_t kValueSize = 64;
inline constexpr size_t kShards = 2;
inline constexpr uint32_t kScanLen = 50;

const std::vector<Workload>& AllWorkloads();
const Workload* FindWorkload(const std::string& name);

// The bulk-loaded key set: a fixed property of the workload, independent
// of the seed, so seeds vary the request stream and not the data.
std::vector<uint64_t> MakeLoadKeys(const Workload& w, double scale);

// `count` requests of the workload's mix over `loaded`, from `seed`.
std::vector<pieces::Op> MakeOps(const Workload& w,
                                const std::vector<uint64_t>& loaded,
                                size_t count, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
