// perfbench: one workload, one seed, one run. Prints a metrics table and,
// as its last line, a JSON object with the run's verdict and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --data-dir DIR [--spans FILE] [--scale F] [--corrupt]
//
// --trace 0 measures the end-to-end metrics through KvService. --trace 1
// repeats the same untraced run (its capacity is the tracing-overhead
// reference), then runs the workload again on the traced stack
// (driver.h) and reports the per-layer metrics. Exit code 1 means an
// output was wrong; 2 means the run could not be set up.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "driver.h"
#include "index/registry.h"
#include "layers.h"
#include "payload.h"
#include "store/disk_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pieces::NowNanos;
using pieces::Op;
using pieces::OpType;
using pieces::service::KvService;
using pieces::service::ServiceConfig;

static_assert(kValueSize >= kMinValueSize);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string data_dir;
  std::string spans;
  double scale = 1.0;
  bool corrupt = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--spans FILE] "
               "[--scale F] [--corrupt]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--scale") {
      a.scale = std::strtod(v, &end);
    } else if (flag == "--data-dir") {
      a.data_dir = v;
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (FindWorkload(a.workload) == nullptr) Usage("unknown --workload");
  if (!(a.seconds >= 1) || a.seconds > 600) Usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  if (!(a.scale > 0) || a.scale > 1) Usage("--scale must be in (0, 1]");
  if (a.data_dir.empty()) Usage("--data-dir is required");
  return a;
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

// Nearest-rank percentile over a copy of the samples (exact, no buckets).
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

template <typename T>
double PercentileOf(const std::vector<T>& v, double q, double scale) {
  std::vector<double> d;
  d.reserve(v.size());
  for (T x : v) d.push_back(static_cast<double>(x) * scale);
  return Percentile(std::move(d), q);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Metrics in print order; `n` is the sample count behind a timing.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t n;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t n = 0) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0, unit, n});
  }
  void Info(const std::string& key, const std::string& value) {
    info_[key] = value;
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      if (m.n > 0) {
        std::printf("%-34s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n);
      } else {
        std::printf("%-34s %16.6f %-6s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}, \"info\": {");
    size_t i = 0;
    for (const auto& [k, v] : info_) {
      std::printf("%s\"%s\": \"%s\"", i++ == 0 ? "" : ", ", k.c_str(),
                  v.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::string> info_;
};

// ---- Configuration -----------------------------------------------------

ServiceConfig MakeConfig(const Workload& w, size_t keys, size_t writes,
                         const std::string& data_dir) {
  ServiceConfig cfg;
  cfg.num_shards = kShards;
  cfg.queue_capacity = 1024;
  cfg.admission = pieces::service::AdmissionPolicy::kBlock;
  cfg.max_batch = 64;
  cfg.writers_per_shard = 1;
  cfg.backend = w.backend;
  cfg.store.value_size = kValueSize;
  // Both stores claim a fresh slot per Put and never reclaim one: size
  // each shard for every record plus every write the run can issue (all
  // of them might land on one shard), so kStoreFull is a failure.
  const size_t record = sizeof(Key) + kValueSize + sizeof(pieces::RecordHeader);
  const size_t bytes = (keys + writes) * record * 11 / 10 + (size_t{8} << 20);
  cfg.store.pmem_capacity = bytes;
  cfg.disk.path = data_dir;
  cfg.disk.file_capacity = bytes * 2;
  cfg.disk.io_engine = "threads";  // io_uring availability is per kernel
  cfg.disk.readahead_max_pages = w.readahead_pages;
  const size_t per_page = cfg.disk.page_size / record;
  const size_t data_pages = keys / kShards / std::max<size_t>(1, per_page);
  cfg.disk.pool_pages = std::max<size_t>(
      16, static_cast<size_t>(w.pool_fraction *
                              static_cast<double>(data_pages)));
  cfg.maintenance.enabled = w.maintenance;
  if (w.semisync) {
    cfg.replication.enabled = true;
    cfg.replication.ack =
        pieces::replication::ReplicationConfig::AckMode::kReplicated;
  }
  return cfg;
}

// ---- Shared phase bookkeeping -----------------------------------------

struct Plan {
  size_t warm = 0, lat = 0, cap = 0;  // request counts per phase
  double warm_s = 0.5, lat_s = 0, cap_s = 0;
};

Plan MakePlan(const Workload& w, double seconds, double scale) {
  Plan p;
  p.lat_s = seconds * 0.7;
  p.cap_s = seconds - p.lat_s;
  const double rate = w.rate * scale;
  p.warm = static_cast<size_t>(rate * p.warm_s);
  p.lat = static_cast<size_t>(std::ceil(rate * p.lat_s));
  p.cap = static_cast<size_t>(w.capacity_ops_per_s * scale * p.cap_s);
  return p;
}

// Outcome tallies across every run of this invocation.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t not_ok = 0;   // completed with a status other than kOk
  uint64_t wrong = 0;    // payloads or scans that failed their check
  uint64_t missing = 0;  // acked writes not readable afterwards
  bool structural_ok = true;
  uint64_t failed() const {
    return std::min(attempted, not_ok + wrong + missing);
  }
};

// Adds the requests issued in `run` and those not completed kOk.
void CountOutcomes(const Driver& d, const PhaseRun& run, Verdict* v) {
  for (size_t i = run.begin; i < run.end; ++i) {
    ++v->attempted;
    if (d.status(i) != RequestStatus::kOk) ++v->not_ok;
  }
}

// A timing split into time windows of its phase. The reported value is the
// median over windows of each window's median, so a stall that hits one
// window moves one of the values rather than the reported figure.
struct Windowed {
  std::vector<std::vector<double>> windows;
  size_t samples = 0;
  // The percentile over every sample of the phase, unwindowed.
  double Overall(double q) const {
    std::vector<double> all;
    for (const auto& w : windows) all.insert(all.end(), w.begin(), w.end());
    return Percentile(std::move(all), q);
  }
  // The median over windows of each window's median.
  double WindowMedian() const {
    std::vector<double> per;
    for (const auto& w : windows) {
      if (!w.empty()) per.push_back(Percentile(w, 0.5));
    }
    return Percentile(std::move(per), 0.5);
  }
};

// Fewer, longer windows when a class has too few samples for this many per
// window (scans at 1% of a low rate).
constexpr size_t kMinWindowSamples = 200;
constexpr double kWindowSeconds = 0.1;

// Latencies (us from scheduled arrival) of one op class, in windows of
// scheduled time of kWindowSeconds or more.
Windowed Latencies(const Driver& d, const PhaseRun& run, bool (*cls)(OpType)) {
  std::vector<std::pair<uint64_t, double>> all;
  for (size_t i = run.begin; i < run.end; ++i) {
    if (!cls(d.ops()[i].type) || d.done_ns(i) == 0) continue;
    const RequestStatus st = d.status(i);
    if (st == RequestStatus::kRejected || st == RequestStatus::kShutdown) {
      continue;
    }
    const uint64_t due = run.Scheduled(i);
    all.emplace_back(due - run.t0,
                     static_cast<double>(d.done_ns(i) - due) * 1e-3);
  }
  Windowed w;
  w.samples = all.size();
  const size_t n = std::clamp<size_t>(
      all.size() / kMinWindowSamples, 1,
      std::max<size_t>(1, static_cast<size_t>(run.seconds / kWindowSeconds)));
  w.windows.resize(n);
  const double span = run.seconds * 1e9;
  for (const auto& [at, us] : all) {
    const size_t k = std::min(
        n - 1, static_cast<size_t>(static_cast<double>(at) / span *
                                   static_cast<double>(n)));
    w.windows[k].push_back(us);
  }
  return w;
}

bool IsRead(OpType t) { return t == OpType::kRead; }
bool IsScan(OpType t) { return t == OpType::kScan; }

// Completed kOk requests per second over quarter-second windows of
// completion time (the whole phase if shorter), reported as the upper
// quartile: interference from outside only ever removes throughput.
double CapacityKqps(const Driver& d, const PhaseRun& run) {
  if (run.last_done <= run.t0) return 0;
  const double span = static_cast<double>(run.last_done - run.t0);
  const double window = std::min(0.25e9, span);
  const size_t n = static_cast<size_t>(span / window);
  std::vector<double> done(n, 0);
  for (size_t i = run.begin; i < run.end; ++i) {
    if (d.status(i) != RequestStatus::kOk || d.done_ns(i) < run.t0) continue;
    const size_t k = static_cast<size_t>(
        static_cast<double>(d.done_ns(i) - run.t0) / window);
    if (k < n) done[k] += 1;
  }
  for (double& x : done) x = x / (window * 1e-9) * 1e-3;
  return Percentile(std::move(done), 0.75);
}

double MsSince(uint64_t t0) {
  return static_cast<double>(NowNanos() - t0) * 1e-6;
}

// ---- The untraced run (end-to-end metrics) ------------------------------

struct E2E {
  double capacity_kqps = 0;
  double recover_ms = 0;  // fastest crash-recover cycle
  double split_ms = 0;    // fastest split of the split-and-merge cycles
  double failover_ms = 0;
  Windowed reads, writes, scans;
};

constexpr int kStructuralCycles = 5;

double Fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Runs the workload through KvService: set-up, warm-up, the fixed-rate
// phase, the timed structural operations, then the capacity phase. The
// structural operations come first so the state they work on does not
// depend on how far the capacity phase got. Every acked write must read
// back after each stage. With `full` set-up repeats for its median and the
// gated end-to-end metrics are reported; without it (the traced run's
// reference pass) set-up runs once and the caller reports from the result.
E2E RunUntraced(const Workload& w, const Args& a, const std::vector<Key>& keys,
                const std::vector<Op>& ops, const Plan& plan,
                const ServiceConfig& cfg, bool full, Report* report,
                Verdict* verdict) {
  E2E out;
  std::vector<double> setup_s;
  std::unique_ptr<KvService> svc;
  for (int i = 0; i < (full ? 3 : 1); ++i) {
    svc.reset();  // tear-down is not part of set-up
    const uint64_t t0 = NowNanos();
    svc = std::make_unique<KvService>(w.index, cfg, keys);
    if (!svc->BulkLoad(keys)) {
      std::fprintf(stderr, "perfbench: bulk load failed\n");
      std::exit(2);
    }
    svc->Start();
    setup_s.push_back(MsSince(t0) * 1e-3);
  }
  ServiceTarget target(svc.get());
  Driver driver(ops, kValueSize, nullptr);
  if (a.corrupt) driver.CorruptNextRead();
  auto verify = [&] {
    verdict->missing += driver.VerifyAcked(target, driver.AckedWrites());
  };
  const double rate = w.rate * a.scale;
  driver.Run(target, 0, plan.warm, rate, plan.warm_s);
  const PhaseRun lat =
      driver.Run(target, plan.warm, plan.warm + plan.lat, rate, plan.lat_s);
  verify();
  out.reads = Latencies(driver, lat, IsRead);
  out.writes = Latencies(driver, lat, IsWrite);
  out.scans = Latencies(driver, lat, IsScan);

  // Crash-recover cycles, then split-and-merge-back cycles of the largest
  // shard. Each reports its fastest cycle: interference from outside only
  // ever adds time.
  std::vector<double> recover_ms, split_ms;
  for (int i = 0; i < kStructuralCycles; ++i) {
    const uint64_t t0 = NowNanos();
    svc->CrashAndRecover();
    recover_ms.push_back(MsSince(t0));
  }
  verify();
  const auto stats = svc->Stats();
  size_t largest = 0;
  for (size_t s = 1; s < stats.shards.size(); ++s) {
    if (stats.shards[s].keys > stats.shards[largest].keys) largest = s;
  }
  for (int i = 0; i < kStructuralCycles; ++i) {
    const uint64_t t0 = NowNanos();
    verdict->structural_ok &= svc->SplitShard(largest);
    split_ms.push_back(MsSince(t0));
    verdict->structural_ok &= svc->MergeShards(largest);
  }
  verify();
  out.recover_ms = Fastest(recover_ms);
  out.split_ms = Fastest(split_ms);

  const PhaseRun cap = driver.Run(target, lat.end, ops.size(), 0, plan.cap_s);
  out.capacity_kqps = CapacityKqps(driver, cap);
  verify();
  if (w.semisync) {
    const auto r = svc->FailOverShard(0, /*graceful=*/true);
    verdict->structural_ok &= r.ok && r.lost_records == 0;
    out.failover_ms = static_cast<double>(r.outage_ns) * 1e-6;
    verify();
  }
  CountOutcomes(driver, lat, verdict);
  CountOutcomes(driver, cap, verdict);
  verdict->wrong += driver.wrong_payloads() + driver.wrong_scans();

  if (full) {
    report->Add("setup_s", Percentile(setup_s, 0.5), "s", setup_s.size());
    report->Add("read_p50_us", out.reads.WindowMedian(), "us",
                out.reads.samples);
    report->Add("write_p50_us", out.writes.WindowMedian(), "us",
                out.writes.samples);
    report->Add("capacity_kqps", out.capacity_kqps, "kops/s",
                cap.end - cap.begin);
    report->Add("ok_frac",
                1.0 - Ratio(static_cast<double>(verdict->failed()),
                            static_cast<double>(verdict->attempted)),
                "ratio");
  }
  return out;
}

// ---- The traced run (per-layer metrics) ---------------------------------

pieces::StoreIoStats SumIoStats(TracedStack& st) {
  pieces::StoreIoStats s;
  for (size_t i = 0; i < st.num_shards(); ++i) {
    const pieces::StoreIoStats x = st.shard(i).store()->IoStats();
    s.bytes_written += x.bytes_written;
    s.barriers += x.barriers;
    s.page_fetches += x.page_fetches;
    s.pool_hits += x.pool_hits;
    s.pool_misses += x.pool_misses;
    s.pool_evictions += x.pool_evictions;
    s.pool_all_pinned += x.pool_all_pinned;
    s.pool_dedup_waits += x.pool_dedup_waits;
    s.io_errors += x.io_errors;
    s.io_batches += x.io_batches;
    s.io_waits += x.io_waits;
    s.io_max_inflight = std::max(s.io_max_inflight, x.io_max_inflight);
    s.readahead_pages += x.readahead_pages;
    s.readahead_hits += x.readahead_hits;
    s.readahead_wasted += x.readahead_wasted;
  }
  return s;
}

struct IndexTotals {
  double depth = 0;
  size_t bytes = 0, keys = 0, retrains = 0;
  uint64_t retrain_ns = 0, moved = 0;
  static IndexTotals Sum(TracedStack& st) {
    IndexTotals t;
    for (size_t i = 0; i < st.num_shards(); ++i) {
      const auto* store = st.shard(i).store();
      const pieces::IndexStats s = store->index().Stats();
      t.depth += s.avg_depth / static_cast<double>(st.num_shards());
      t.bytes += store->index().IndexSizeBytes();
      t.keys += store->size();
      t.retrains += s.retrain_count;
      t.retrain_ns += s.retrain_nanos;
      t.moved += s.moved_keys;
    }
    return t;
  }
};

std::vector<pieces::replication::ReplicaSessionStats> SessionStats(
    TracedStack& st) {
  std::vector<pieces::replication::ReplicaSessionStats> out;
  for (size_t s = 0; s < st.num_shards(); ++s) {
    if (st.session(s) != nullptr) out.push_back(st.session(s)->Stats());
  }
  return out;
}

std::vector<pieces::service::ShardStats> ShardStatsOf(TracedStack& st) {
  std::vector<pieces::service::ShardStats> out;
  for (size_t s = 0; s < st.num_shards(); ++s) {
    out.push_back(st.shard(s).Stats());
  }
  return out;
}

void WriteSpans(const std::string& path, const Driver& d, const TraceArrays& tr,
                const PhaseRun& lat) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "seq,op,shard,latency_ns,queue_wait_ns,exec_ns,gap_ns\n");
  for (size_t i = lat.begin; i < lat.end; i += 64) {
    const uint32_t b = tr.batch_of[i];
    if (b == ~0u || d.done_ns(i) == 0) continue;
    const int64_t wait = static_cast<int64_t>(tr.first_start[b]) -
                         static_cast<int64_t>(tr.enq_ret[b]);
    std::fprintf(f, "%zu,%d,%d,%llu,%lld,%u,%u\n", i,
                 static_cast<int>(d.ops()[i].type), tr.shard_of[b],
                 static_cast<unsigned long long>(d.done_ns(i) -
                                                 lat.Scheduled(i)),
                 static_cast<long long>(std::max<int64_t>(0, wait)),
                 tr.exec_ns[i], tr.gap_ns[i]);
  }
  std::fclose(f);
}

void RunTraced(const Workload& w, const Args& a, const std::vector<Key>& keys,
               const std::vector<Op>& ops, const Plan& plan,
               const ServiceConfig& cfg, const E2E& ref, Report* report,
               Verdict* verdict) {
  TraceArrays trace(ops.size());
  TracedStack stack(w.index, cfg, keys, &trace);
  if (!stack.BulkLoad(keys)) {
    std::fprintf(stderr, "perfbench: traced bulk load failed\n");
    std::exit(2);
  }
  stack.Start();
  Driver driver(ops, kValueSize, &trace);
  const double rate = w.rate * a.scale;
  driver.Run(stack, 0, plan.warm, rate, plan.warm_s);

  const pieces::StoreIoStats io0 = SumIoStats(stack);
  const IndexTotals ix0 = IndexTotals::Sum(stack);

  // Replication lag, sampled every 10 ms through the latency phase.
  const bool repl = stack.session(0) != nullptr;
  const auto rs0 = SessionStats(stack);
  std::atomic<bool> sampling{true};
  std::vector<double> lag;
  std::thread sampler([&] {
    while (repl && sampling.load()) {
      double total = 0;
      for (const auto& r : SessionStats(stack)) {
        total += static_cast<double>(r.lag);
      }
      lag.push_back(total);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  SetPhase(kLatency);
  const PhaseRun lat =
      driver.Run(stack, plan.warm, plan.warm + plan.lat, rate, plan.lat_s);
  sampling.store(false);
  sampler.join();
  const pieces::StoreIoStats io1 = SumIoStats(stack);
  const IndexTotals ix1 = IndexTotals::Sum(stack);
  const auto rs1 = SessionStats(stack);

  auto verify = [&] {
    verdict->missing += driver.VerifyAcked(stack, driver.AckedWrites());
  };
  verify();
  const auto rebuild = stack.CrashAndRecover();
  verify();

  SetPhase(kCapacity);
  const auto sh0 = ShardStatsOf(stack);
  const PhaseRun cap = driver.Run(stack, lat.end, ops.size(), 0, plan.cap_s);
  SetPhase(kUntimed);
  const auto sh1 = ShardStatsOf(stack);
  const double traced_kqps = CapacityKqps(driver, cap);
  verify();
  uint64_t drain_ns = 0, rebuild_ns = 0;
  if (repl) {
    verdict->structural_ok &= stack.FailoverProbe(0, &drain_ns, &rebuild_ns);
  }
  CountOutcomes(driver, lat, verdict);
  CountOutcomes(driver, cap, verdict);

  const LayerStats L = CollectLayerStats(kLatency);
  const LayerStats C = CollectLayerStats(kCapacity);

  // --- service/router
  report->Add("router.submit_ns_per_req",
              Ratio(static_cast<double>(stack.route_ns(kLatency)),
                    static_cast<double>(stack.routed(kLatency))),
              "ns", stack.routed(kLatency));
  report->Add("router.blocked_frac",
              Ratio(static_cast<double>(stack.enqueue_ns(kCapacity)),
                    static_cast<double>(cap.last_done - cap.t0)),
              "ratio");

  // --- service/shard: per-request spans of the latency phase
  std::vector<double> qwait, exec, write_gap;
  for (size_t i = lat.begin; i < lat.end; ++i) {
    const uint32_t b = trace.batch_of[i];
    if (b == ~0u || driver.done_ns(i) == 0 || trace.first_start[b] == 0) {
      continue;
    }
    const int64_t wait = static_cast<int64_t>(trace.first_start[b]) -
                         static_cast<int64_t>(trace.enq_ret[b]);
    qwait.push_back(static_cast<double>(std::max<int64_t>(0, wait)) * 1e-3);
    exec.push_back(trace.exec_ns[i] * 1e-3);
    if (IsWrite(ops[i].type)) write_gap.push_back(trace.gap_ns[i] * 1e-3);
  }
  report->Add("shard.queue_wait_us.p50", Percentile(qwait, 0.5), "us",
              qwait.size());
  report->Add("shard.queue_wait_us.p99", Percentile(qwait, 0.99), "us",
              qwait.size());
  report->Add("shard.exec_us.p50", Percentile(exec, 0.5), "us", exec.size());
  report->Add("shard.exec_us.p99", Percentile(exec, 0.99), "us", exec.size());

  // Capacity-phase batching and busy time.
  uint64_t cap_ops = 0, cap_batches = 0;
  std::vector<uint64_t> per_shard_ops(stack.num_shards(), 0);
  for (size_t s = 0; s < stack.num_shards(); ++s) {
    cap_ops += sh1[s].ops - sh0[s].ops;
    cap_batches += sh1[s].batches - sh0[s].batches;
    per_shard_ops[s] = sh1[s].ops - sh0[s].ops;
  }
  report->Add("shard.reqs_per_batch",
              Ratio(static_cast<double>(cap_ops),
                    static_cast<double>(cap_batches)),
              "count");
  report->Add("shard.read_run_len",
              Ratio(static_cast<double>(C.store_get.keys +
                                        C.store_getbatch.keys),
                    static_cast<double>(C.store_get.calls +
                                        C.store_getbatch.calls)),
              "count");
  uint64_t busy = 0;
  {
    // Batches issued in the capacity phase: [first, last] ids.
    uint32_t lo = ~0u, hi = 0;
    for (size_t i = cap.begin; i < cap.end; ++i) {
      const uint32_t b = trace.batch_of[i];
      if (b == ~0u) continue;
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    for (uint32_t b = lo; lo != ~0u && b <= hi; ++b) {
      if (trace.first_start[b] != 0 &&
          trace.last_done[b] > trace.first_start[b]) {
        busy += trace.last_done[b] - trace.first_start[b];
      }
    }
  }
  report->Add("shard.busy_frac",
              Ratio(static_cast<double>(busy),
                    static_cast<double>(cap.last_done - cap.t0) *
                        static_cast<double>(stack.num_shards())),
              "ratio");
  const auto [mn, mx] =
      std::minmax_element(per_shard_ops.begin(), per_shard_ops.end());
  report->Add("shard.load_imbalance",
              Ratio(static_cast<double>(*mx), static_cast<double>(*mn)),
              "ratio");

  // --- store (latency phase)
  const uint64_t lookups = L.store_get.keys + L.store_getbatch.keys;
  const uint64_t store_calls = L.store_get.calls + L.store_getbatch.calls +
                               L.store_put.calls + L.store_scan.calls;
  const uint64_t store_ns = L.store_get.ns + L.store_getbatch.ns +
                            L.store_put.ns + L.store_scan.ns;
  report->Add("store.get_ns_per_key",
              Ratio(static_cast<double>(L.store_get.ns + L.store_getbatch.ns),
                    static_cast<double>(lookups)),
              "ns", lookups);
  report->Add("store.self_ns_per_op",
              Ratio(static_cast<double>(store_ns - L.store_index_ns),
                    static_cast<double>(store_calls)),
              "ns", store_calls);
  report->Add("store.put_us.p50", PercentileOf(L.put_ns, 0.5, 1e-3), "us",
              L.put_ns.size());
  report->Add("store.put_us.p99", PercentileOf(L.put_ns, 0.99, 1e-3), "us",
              L.put_ns.size());
  report->Add("store.scan_us.p50", PercentileOf(L.scan_ns, 0.5, 1e-3), "us",
              L.scan_ns.size());
  const double puts = static_cast<double>(L.store_put.calls);
  report->Add("store.barriers_per_put",
              Ratio(static_cast<double>(io1.barriers - io0.barriers), puts),
              "count");
  report->Add("store.bytes_written_per_user_byte",
              Ratio(static_cast<double>(io1.bytes_written - io0.bytes_written),
                    puts * static_cast<double>(sizeof(Key) + kValueSize)),
              "ratio");

  // --- store/buffer_pool, io_engine, page_store (latency phase deltas)
  const double hits = static_cast<double>(io1.pool_hits - io0.pool_hits);
  const double misses = static_cast<double>(io1.pool_misses - io0.pool_misses);
  const double lat_ops = static_cast<double>(lat.end - lat.begin);
  report->Add("pool.hit_rate", Ratio(hits, hits + misses), "ratio");
  report->Add("pool.fetches_per_lookup",
              Ratio(static_cast<double>(io1.page_fetches - io0.page_fetches),
                    static_cast<double>(lookups)),
              "count");
  report->Add("pool.evictions_per_op",
              Ratio(static_cast<double>(io1.pool_evictions -
                                        io0.pool_evictions),
                    lat_ops),
              "count");
  report->Add("pool.dedup_waits",
              static_cast<double>(io1.pool_dedup_waits - io0.pool_dedup_waits),
              "count");
  report->Add("pool.all_pinned",
              static_cast<double>(io1.pool_all_pinned - io0.pool_all_pinned),
              "count");
  report->Add("io.waits_per_batch",
              Ratio(static_cast<double>(io1.io_waits - io0.io_waits),
                    static_cast<double>(io1.io_batches - io0.io_batches)),
              "count");
  report->Add("io.max_inflight", static_cast<double>(io1.io_max_inflight),
              "count");
  report->Add("io.errors", static_cast<double>(io1.io_errors - io0.io_errors),
              "count");
  const double ra =
      static_cast<double>(io1.readahead_pages - io0.readahead_pages);
  report->Add("readahead.hit_frac",
              Ratio(static_cast<double>(io1.readahead_hits -
                                        io0.readahead_hits),
                    ra),
              "ratio");
  report->Add("readahead.wasted_frac",
              Ratio(static_cast<double>(io1.readahead_wasted -
                                        io0.readahead_wasted),
                    ra),
              "ratio");
  // Puts per barrier pair: 1.0 without grouping (one writer lane).
  report->Add("commit.group_size",
              Ratio(2 * puts, static_cast<double>(io1.barriers - io0.barriers)),
              "count");

  // --- index (latency phase)
  report->Add("index.get_ns",
              Ratio(static_cast<double>(L.idx_get.ns),
                    static_cast<double>(L.idx_get.calls)),
              "ns", L.idx_get.calls);
  report->Add("index.getbatch_ns_per_key",
              Ratio(static_cast<double>(L.idx_getbatch.ns),
                    static_cast<double>(L.idx_getbatch.keys)),
              "ns", L.idx_getbatch.keys);
  report->Add("index.window_keys.mean",
              Ratio(static_cast<double>(L.window_keys),
                    static_cast<double>(L.window_samples)),
              "count", L.window_samples);
  report->Add("index.insert_ns.p50", PercentileOf(L.insert_ns, 0.5, 1), "ns",
              L.insert_ns.size());
  report->Add("index.insert_ns.p99", PercentileOf(L.insert_ns, 0.99, 1), "ns",
              L.insert_ns.size());
  report->Add("index.scan_ns_per_key",
              Ratio(static_cast<double>(L.idx_scan.ns),
                    static_cast<double>(L.idx_scan.keys)),
              "ns", L.idx_scan.keys);
  report->Add("index.depth", ix1.depth, "count");
  report->Add("index.bytes_per_key",
              Ratio(static_cast<double>(ix1.bytes),
                    static_cast<double>(ix1.keys)),
              "bytes");
  report->Add("index.retrains",
              static_cast<double>(ix1.retrains - ix0.retrains), "count");
  report->Add("index.retrain_ms",
              static_cast<double>(ix1.retrain_ns - ix0.retrain_ns) * 1e-6,
              "ms");
  report->Add("index.moved_keys_per_insert",
              Ratio(static_cast<double>(ix1.moved - ix0.moved),
                    static_cast<double>(L.idx_insert.calls)),
              "count");

  // --- service/maintainer (latency phase, through the hook decorator)
  report->Add("maint.collect_us.mean",
              Ratio(static_cast<double>(L.collect.ns),
                    static_cast<double>(L.collect.calls)) * 1e-3,
              "us", L.collect.calls);
  report->Add("maint.prepare_ms.mean",
              Ratio(static_cast<double>(L.prepare.ns),
                    static_cast<double>(L.prepare.calls)) * 1e-6,
              "ms", L.prepare.calls);
  report->Add("maint.publish_us.p99", PercentileOf(L.publish_ns, 0.99, 1e-3),
              "us", L.publish_ns.size());
  report->Add("maint.published", static_cast<double>(L.published), "count");
  report->Add("maint.abort_frac",
              Ratio(static_cast<double>(L.publish_aborted),
                    static_cast<double>(L.plans)),
              "ratio");

  // --- replication (latency phase)
  report->Add("repl.ack_wait_us.p50", repl ? Percentile(write_gap, 0.5) : 0,
              "us", repl ? write_gap.size() : 0);
  report->Add("repl.ack_wait_us.p99", repl ? Percentile(write_gap, 0.99) : 0,
              "us", repl ? write_gap.size() : 0);
  report->Add("repl.apply_us.p50", PercentileOf(L.apply_ns, 0.5, 1e-3), "us",
              L.apply_ns.size());
  double lag_mean = 0;
  for (double x : lag) lag_mean += x;
  report->Add("repl.lag_records.mean",
              Ratio(lag_mean, static_cast<double>(lag.size())),
              "count", lag.size());
  uint64_t applied = 0, batches = 0, ack_failures = 0;
  for (size_t s = 0; s < rs1.size(); ++s) {
    applied += rs1[s].applied - rs0[s].applied;
    batches += rs1[s].batches_shipped - rs0[s].batches_shipped;
    ack_failures += rs1[s].ack_failures - rs0[s].ack_failures;
  }
  report->Add("repl.records_per_batch",
              Ratio(static_cast<double>(applied), static_cast<double>(batches)),
              "count");
  report->Add("repl.ack_failures", static_cast<double>(ack_failures), "count");

  // --- structural operations, timed from outside
  report->Add("recover.rebuild_ms.max",
              static_cast<double>(
                  *std::max_element(rebuild.begin(), rebuild.end())) * 1e-6,
              "ms", rebuild.size());
  report->Add("failover.rebuild_ms", static_cast<double>(rebuild_ns) * 1e-6,
              "ms");
  report->Add("failover.drain_ms", static_cast<double>(drain_ns) * 1e-6, "ms");

  // --- validity
  std::vector<double> late;
  for (size_t i = lat.begin; i < lat.end; ++i) {
    late.push_back(driver.late_ns(i) * 1e-3);
  }
  report->Add("loadgen.late_us.p99", Percentile(late, 0.99), "us", late.size());
  report->Add("trace.overhead_frac",
              Ratio(ref.capacity_kqps - traced_kqps, ref.capacity_kqps),
              "ratio");
  // End-to-end figures of the untraced reference pass that no bound holds
  // on a shared VM (see README): reported here, not gated.
  report->Add("e2e.scan_p50_us", ref.scans.WindowMedian(), "us",
              ref.scans.samples);
  report->Add("e2e.read_p99_us", ref.reads.Overall(0.99), "us",
              ref.reads.samples);
  report->Add("e2e.write_p99_us", ref.writes.Overall(0.99), "us",
              ref.writes.samples);
  report->Add("e2e.scan_p99_us", ref.scans.Overall(0.99), "us",
              ref.scans.samples);
  report->Add("e2e.recover_ms", ref.recover_ms, "ms", kStructuralCycles);
  report->Add("e2e.split_ms", ref.split_ms, "ms", kStructuralCycles);
  report->Add("e2e.failover_ms", ref.failover_ms, "ms");

  WriteSpans(a.spans, driver, trace, lat);
  verdict->wrong += driver.wrong_payloads() + driver.wrong_scans();
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(a.workload);
  const int cores = UsableCores();
  if (cores < w.threads) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d cores for its busy threads, this "
                 "machine offers %d\n",
                 w.name, w.threads, cores);
    return 2;
  }

  // Inputs (not part of set-up): the load set and the request stream.
  const std::vector<Key> keys = MakeLoadKeys(w, a.scale);
  const Plan plan = MakePlan(w, a.seconds, a.scale);
  const std::vector<Op> ops =
      MakeOps(w, keys, plan.warm + plan.lat + plan.cap, a.seed);
  size_t writes = 0;
  for (const Op& op : ops) writes += IsWrite(op.type) ? 1 : 0;
  const ServiceConfig cfg = MakeConfig(w, keys.size(), writes, a.data_dir);

  Report report;
  report.Info("workload", w.name);
  report.Info("seed", std::to_string(a.seed));
  report.Info("cores", std::to_string(cores));
  report.Info("keys", std::to_string(keys.size()));
  report.Info("offered_rate", std::to_string(w.rate * a.scale));
  if (cfg.backend == "disk") {
    pieces::DiskStore::Config probe_cfg = cfg.disk;
    probe_cfg.path += "/engine_probe.pages";
    probe_cfg.file_capacity = size_t{1} << 20;
    pieces::DiskStore probe(pieces::MakeIndex("BTree"), probe_cfg);
    if (!probe.ok()) {
      std::fprintf(stderr, "perfbench: data dir unusable: %s\n",
                   probe.error().c_str());
      return 2;
    }
    report.Info("io_engine", std::string(probe.io_engine_name()));
  }

  Verdict verdict;
  if (a.trace == 0) {
    RunUntraced(w, a, keys, ops, plan, cfg, /*full=*/true, &report, &verdict);
  } else {
    const E2E ref =
        RunUntraced(w, a, keys, ops, plan, cfg, /*full=*/false, &report,
                    &verdict);
    RunTraced(w, a, keys, ops, plan, cfg, ref, &report, &verdict);
  }
  report.Info("wrong_outputs", std::to_string(verdict.wrong));
  report.Info("missing_acked", std::to_string(verdict.missing));
  const bool correct =
      verdict.structural_ok && verdict.wrong == 0 && verdict.missing == 0;
  report.Print(correct, verdict.attempted, verdict.failed());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
