// replication: primary->replica shipping atop the commit protocol — what
// a shadow replica costs while healthy, and what it buys when the
// primary dies. The commit log drains in batches through the transport
// (a shipper thread under async acks, the ack waiters under semi-sync);
// lag (log tail minus applied) is the loss budget for a crash failover,
// so the first question is how lag tracks the offered write rate. The
// second is the failover itself: promotion reuses the crash-recovery path
// (StoreBackend::Recover rebuilds the in-memory index from the replica's
// own durable media), so the outage window is index-dependent — exactly
// the rebuild asymmetry the recovery experiment measures, now as a
// service-level availability number.
//
// Three sections:
//   1. replication lag vs write rate — async acks, write-heavy open
//      loop at swept offered rates (0 = saturate) with a transport
//      delay per shipped batch; a sampler thread polls every shard's
//      ReplicaSessionStats during the run for mean/max lag across shards;
//   2. ack mode cost — the same saturating write load with kLocal
//      (async) vs kReplicated (semi-sync) acks: the throughput price
//      of "kOk means on the replica too";
//   3. failover outage window vs index choice — moderate open-loop
//      mixed load, a graceful FailOverShard(0) mid-run; outage wall
//      time, the index-rebuild share of it, lost records (0 when
//      graceful) and requests that retried across the swap, per index
//      family.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "bench/loadgen.h"

namespace pieces::bench {
namespace {

using service::AdmissionPolicy;
using service::FailoverReport;
using service::KvService;
using service::LoadGenOptions;
using service::LoadGenResult;
using service::ServiceConfig;
using AckMode = replication::ReplicationConfig::AckMode;

std::unique_ptr<KvService> MakeService(const std::string& index_name,
                                       const ServiceConfig& cfg,
                                       const std::vector<Key>& load) {
  auto svc = std::make_unique<KvService>(index_name, cfg, load);
  if (!svc->BulkLoad(load)) return nullptr;
  svc->Start();
  return svc;
}

ServiceConfig BaseConfig(size_t shards, const std::vector<Key>& load,
                         size_t headroom_bytes) {
  ServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.queue_capacity = 1024;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.store.value_size = 200;
  // Replica stores are sized identically to primaries, so the headroom
  // covers both copies of the write stream.
  cfg.store.pmem_capacity =
      (load.size() * 208 * 4) / std::max<size_t>(1, shards) + headroom_bytes;
  cfg.store.read_latency_ns = NvmReadLatencyNs();
  cfg.store.write_latency_ns = NvmWriteLatencyNs();
  cfg.replication.enabled = true;
  cfg.replication.ship_batch = 64;
  return cfg;
}

// Every shard's replication counters, read off its session.
std::vector<replication::ReplicaSessionStats> SessionStats(
    const KvService& svc) {
  std::vector<replication::ReplicaSessionStats> out;
  for (size_t s = 0;; ++s) {
    auto session = svc.replica_session(s);
    if (session == nullptr) return out;
    out.push_back(session->Stats());
  }
}

// Polls the sessions during a run and tracks the summed replication lag
// across shards. Sampling is cheap (a few atomic loads and one lock per
// shard) and stays off the request path.
struct LagSampler {
  explicit LagSampler(KvService* svc) : svc_(svc) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        uint64_t lag = 0;
        for (const auto& r : SessionStats(*svc_)) lag += r.lag;
        sum_ += lag;
        ++samples_;
        max_ = std::max(max_, lag);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  ~LagSampler() {
    if (thread_.joinable()) Stop();
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  double Mean() const { return samples_ ? double(sum_) / samples_ : 0; }
  double Max() const { return double(max_); }

  KvService* svc_;
  std::atomic<bool> stop_{false};
  uint64_t sum_ = 0;
  uint64_t samples_ = 0;
  uint64_t max_ = 0;
  std::thread thread_;
};

void RunReplication(Context& ctx) {
  const bool smoke = ctx.base_keys <= 8192;
  const size_t n = ctx.base_keys;
  std::vector<Key> all = MakeKeys("ycsb", n + n / 3, 41);
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  const double duration =
      ctx.duration_seconds > 0 ? ctx.duration_seconds : (smoke ? 0.12 : 1.0);
  const size_t clients = smoke ? 2 : std::max<size_t>(4, ctx.max_threads);
  const size_t headroom =
      static_cast<size_t>(1.5e9 * std::max(duration, 0.25));

  // 1. Replication lag vs offered write rate. Async acks (writes return
  // at local durability), a fixed per-batch transport delay standing in
  // for the network round trip. At low rates the shipper drains between
  // arrivals and lag stays near zero; past the link's drain rate the log
  // runs ahead of the replica and lag grows with the rate — that
  // distance is the crash-loss window.
  std::vector<Op> write_ops = GenerateOps(
      WorkloadSpec::WriteOnly(), ctx.ops, load, inserts, 43);
  ctx.sink.Section("replication lag vs offered write rate (async acks)");
  const std::string lag_index = "ALEX";
  const std::vector<size_t> rates =
      smoke ? std::vector<size_t>{5'000, 0}
            : std::vector<size_t>{50'000, 200'000, 0};
  for (size_t rate : rates) {
    ServiceConfig cfg = BaseConfig(2, load, headroom);
    cfg.replication.transport_delay_us = smoke ? 50 : 200;
    auto svc = MakeService(lag_index, cfg, load);
    if (svc == nullptr) {
      ctx.sink.Add(ResultRow("lag").Status("bulk_load_failed"));
      continue;
    }
    LoadGenOptions lg;
    lg.target_qps = rate;
    lg.duration_seconds = duration;
    lg.clients = clients;
    LoadGenResult r;
    double lag_mean = 0;
    double lag_max = 0;
    {
      LagSampler sampler(svc.get());
      r = RunOpenLoop(svc.get(), write_ops, lg);
      sampler.Stop();
      lag_mean = sampler.Mean();
      lag_max = sampler.Max();
    }
    uint64_t batches = 0;
    for (const auto& r : SessionStats(*svc)) batches += r.batches_shipped;
    svc->Shutdown();
    ResultRow row(rate == 0 ? "saturate" : std::to_string(rate) + "qps");
    row.Label("index", lag_index)
        .Metric("achieved_qps", r.achieved_qps)
        .Metric("lag_mean_records", lag_mean)
        .Metric("lag_max_records", lag_max)
        .Metric("batches_shipped", static_cast<double>(batches));
    // A saturating open loop's p99 is its own backlog, not service time.
    if (rate != 0) {
      row.Metric("p99_ns", static_cast<double>(r.point_latency.P99()));
    }
    ctx.sink.Add(std::move(row));
  }

  // 2. Ack mode cost: what semi-sync acks charge for turning kOk into
  // "applied on the replica too". Each worker batch ships the log up to
  // its latest write itself, once, so the price is one replica apply per
  // batch on the worker's critical path, with no thread hand-off: the
  // apply a kLocal shipper thread runs off that path moves onto it. Both rows saturate, so no p99 is
  // reported: it would measure the open loop's backlog.
  ctx.sink.Section("ack mode: async (kLocal) vs semi-sync (kReplicated)");
  for (AckMode ack : {AckMode::kLocal, AckMode::kReplicated}) {
    ServiceConfig cfg = BaseConfig(2, load, headroom);
    cfg.replication.ack = ack;
    auto svc = MakeService(lag_index, cfg, load);
    if (svc == nullptr) {
      ctx.sink.Add(ResultRow("ack").Status("bulk_load_failed"));
      continue;
    }
    LoadGenOptions lg;
    lg.target_qps = 0;  // saturate
    lg.duration_seconds = duration;
    lg.clients = clients;
    LoadGenResult r = RunOpenLoop(svc.get(), write_ops, lg);
    uint64_t ack_failures = 0;
    for (const auto& r : SessionStats(*svc)) ack_failures += r.ack_failures;
    svc->Shutdown();
    ctx.sink.Add(
        ResultRow(ack == AckMode::kLocal ? "async-kLocal" : "semisync-kReplicated")
            .Label("index", lag_index)
            .Metric("qps", r.achieved_qps)
            .Metric("ack_failures", static_cast<double>(ack_failures))
            .Metric("retried", static_cast<double>(r.retried)));
  }

  // 3. Failover outage window vs index choice. A graceful promotion
  // (ship the tail, then recover the replica store) is lossless, so the
  // per-index difference is the rebuild: promotion runs the same
  // StoreBackend::Recover as crash restart, and index families differ
  // sharply in how fast they rebuild from a sorted record scan. The
  // outage is charged to in-flight requests as retries and tail latency
  // measured from scheduled arrival (no coordinated omission).
  ctx.sink.Section("failover outage window vs index (graceful, mid-run)");
  WorkloadSpec mixed;
  mixed.read_pct = 70;
  mixed.update_pct = 30;
  mixed.pick = KeyPick::kZipfian;
  std::vector<Op> mixed_ops = GenerateOps(mixed, ctx.ops, load, inserts, 47);
  const std::vector<std::string> failover_indexes =
      smoke ? std::vector<std::string>{"BTree", "ALEX"}
            : std::vector<std::string>{"BTree", "ART", "ALEX", "PGM", "LIPP"};
  for (const std::string& name : failover_indexes) {
    ServiceConfig cfg = BaseConfig(2, load, headroom);
    auto svc = MakeService(name, cfg, load);
    if (svc == nullptr) {
      ctx.sink.Add(ResultRow(name).Status("bulk_load_failed"));
      continue;
    }
    LoadGenOptions lg;
    lg.target_qps = smoke ? 20'000 : 100'000;
    lg.duration_seconds = duration;
    lg.clients = clients;
    FailoverReport report;
    std::thread failer([&svc, &report, duration] {
      std::this_thread::sleep_for(std::chrono::duration<double>(duration / 2));
      report = svc->FailOverShard(0, /*graceful=*/true);
    });
    LoadGenResult r = RunOpenLoop(svc.get(), mixed_ops, lg);
    failer.join();
    service::ServiceStats stats = svc->Stats();
    svc->Shutdown();
    ctx.sink.Add(
        ResultRow(name)
            .Status(report.ok ? "ok" : "failover_failed")
            .Metric("outage_ms", report.outage_ns / 1e6)
            .Metric("rebuild_ms", report.rebuild_ns / 1e6)
            .Metric("lost_records", static_cast<double>(report.lost_records))
            .Metric("failovers", static_cast<double>(stats.failovers))
            .Metric("achieved_qps", r.achieved_qps)
            .Metric("retried", static_cast<double>(r.retried))
            .Metric("p99_ns", static_cast<double>(r.point_latency.P99())));
  }
}

PIECES_REGISTER_EXPERIMENT(
    replication, "replication", "Service",
    "Primary->replica shipping: lag vs write rate, ack-mode cost, and the "
    "failover outage window per index family",
    "Replication lag tracks the offered write rate once it passes the "
    "link's drain rate, semi-sync acks trade throughput for zero-loss "
    "crash failover, and the promotion outage is dominated by the "
    "index-dependent rebuild",
    RunReplication)

}  // namespace
}  // namespace pieces::bench
