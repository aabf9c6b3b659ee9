// service_scaling: the sharded KV service (src/service/) as the
// concurrency escape hatch the paper's Figs. 12/14 point at. Most learned
// indexes are single-writer, so their multi-threaded write throughput is
// a wall; range-partitioning the key space into shard-per-worker pieces
// lets *every* registered index — including RMI/PGM/ALEX/FITing-tree —
// serve concurrent clients, and write throughput scales with shards
// (given enough cores) instead of being capped at one writer.
//
// Four sections:
//   1. saturation sweep — every registered index through the service at
//      increasing shard counts, clients offering unbounded load;
//   2. write scaling — single-writer learned indexes at 1/2/4/8 shards
//      with the speedup over one shard (the partitioning escape hatch);
//   3. admission control — offered load far above capacity against a
//      small queue, reject vs block policies (queue-full rejections are
//      observed and counted);
//   4. open-loop latency — moderate load, coordinated-omission-free
//      tails measured from scheduled arrival, scans included to exercise
//      the cross-shard fan-out/merge.
#include <cmath>
#include <thread>

#include "bench/bench_util.h"
#include "bench/loadgen.h"

namespace pieces::bench {
namespace {

using service::AdmissionPolicy;
using service::KvService;
using service::LoadGenOptions;
using service::LoadGenResult;
using service::ServiceConfig;
using service::ServiceStats;

std::unique_ptr<KvService> MakeService(const std::string& index_name,
                                       size_t shards,
                                       const std::vector<Key>& load,
                                       AdmissionPolicy policy,
                                       size_t queue_capacity,
                                       size_t headroom_bytes,
                                       uint64_t write_latency_ns) {
  ServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.queue_capacity = queue_capacity;
  cfg.admission = policy;
  cfg.store.value_size = 200;
  // Each shard holds ~1/shards of the load plus headroom for the
  // out-of-place puts a duration-bounded blast can generate.
  cfg.store.pmem_capacity =
      (load.size() * 208 * 4) / std::max<size_t>(1, shards) + headroom_bytes;
  cfg.store.read_latency_ns = NvmReadLatencyNs();
  cfg.store.write_latency_ns =
      write_latency_ns != 0 ? write_latency_ns : NvmWriteLatencyNs();
  auto svc = std::make_unique<KvService>(index_name, cfg, load);
  if (!svc->BulkLoad(load)) return nullptr;
  svc->Start();
  return svc;
}

// Per-shard throughput spread (straggler visibility), mirroring the
// executor's per-worker metrics.
ResultRow& AddShardSpread(ResultRow& row, const ServiceStats& stats,
                          double wall_seconds) {
  double min = 0, max = 0, mean = 0;
  std::vector<double> qps(stats.shards.size(), 0);
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    qps[s] = wall_seconds > 0
                 ? static_cast<double>(stats.shards[s].ops) / wall_seconds
                 : 0;
    min = s == 0 ? qps[s] : std::min(min, qps[s]);
    max = std::max(max, qps[s]);
    mean += qps[s];
  }
  mean /= qps.empty() ? 1 : static_cast<double>(qps.size());
  double var = 0;
  for (double v : qps) var += (v - mean) * (v - mean);
  var /= qps.empty() ? 1 : static_cast<double>(qps.size());
  return row.Metric("shard_qps_min", min)
      .Metric("shard_qps_max", max)
      .Metric("shard_qps_stddev", std::sqrt(var));
}

void RunServiceScaling(Context& ctx) {
  const bool smoke = ctx.base_keys <= 8192;
  const size_t n = ctx.base_keys;
  std::vector<Key> all = MakeKeys("ycsb", n + n / 3, 23);
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  const double duration =
      ctx.duration_seconds > 0 ? ctx.duration_seconds : (smoke ? 0.12 : 1.0);
  const size_t clients = smoke ? 2 : std::max<size_t>(2, ctx.max_threads);
  // Saturation blasts put out-of-place records at a few hundred MB/s, so
  // headroom is sized to the measurement window (~1.5 GB per second of
  // duration, a ~5x margin). The simulated-PMem arena commits lazily, so
  // the unused reservation costs virtual address space only.
  const size_t headroom =
      static_cast<size_t>(1.5e9 * std::max(duration, 0.25));

  ctx.sink.Note("hardware threads: " +
                std::to_string(std::thread::hardware_concurrency()) +
                " — shard scaling needs at least one core per shard worker"
                " plus the clients");

  std::vector<Op> write_ops =
      GenerateOps(WorkloadSpec::WriteOnly(), ctx.ops, load, inserts, 99);
  std::vector<Op> read_ops =
      GenerateOps(WorkloadSpec::ReadOnly(), ctx.ops, load, inserts, 99);

  // 1. Saturation sweep: every registered index, unbounded offered load.
  const std::vector<size_t> sweep =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4, 8};
  for (size_t shards : sweep) {
    ctx.sink.Section("saturation, " + std::to_string(shards) + " shard(s), " +
                     std::to_string(clients) + " client(s)");
    for (const std::string& name : AllIndexNames()) {
      const bool writable = MakeIndex(name)->SupportsInsert();
      auto svc = MakeService(name, shards, load, AdmissionPolicy::kBlock,
                             4096, headroom, 0);
      if (svc == nullptr) {
        ctx.sink.Add(ResultRow(name)
                         .Status("bulk_load_failed")
                         .Label("shards", std::to_string(shards))
                         .Label("error", "bulk load failed"));
        continue;
      }
      LoadGenOptions lg;
      lg.target_qps = 0;  // saturate
      lg.duration_seconds = duration;
      lg.clients = clients;
      LoadGenResult r =
          RunOpenLoop(svc.get(), writable ? write_ops : read_ops, lg);
      ServiceStats stats = svc->Stats();
      svc->Shutdown();
      ResultRow row(name);
      row.Label("shards", std::to_string(shards))
          .Label("workload", writable ? "write-only" : "read-only")
          .Metric("qps", r.achieved_qps)
          .Metric("rejected", static_cast<double>(r.rejected))
          .Metric("store_full", static_cast<double>(r.store_full));
      AddShardSpread(row, stats, r.wall_seconds);
      ctx.sink.Add(std::move(row));
    }
  }

  // 2. Write scaling for the strictly single-writer learned indexes —
  // the indexes the paper shows cannot take concurrent writes at all.
  // Always sweeps to 8 shards (even at smoke scale) so the partitioning
  // speedup is visible in every run.
  std::vector<std::string> scaling_indexes;
  for (const std::string& name : LearnedIndexNames()) {
    auto idx = MakeIndex(name);
    if (idx->SupportsInsert() && !idx->SupportsConcurrentWrites()) {
      scaling_indexes.push_back(name);
    }
  }
  if (smoke) {
    scaling_indexes = {"PGM", "ALEX"};
  }
  ctx.sink.Section("write scaling, single-writer learned indexes");
  for (const std::string& name : scaling_indexes) {
    double base_qps = 0;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      auto svc = MakeService(name, shards, load, AdmissionPolicy::kBlock,
                             4096, headroom, 0);
      if (svc == nullptr) {
        ctx.sink.Add(ResultRow(name)
                         .Status("bulk_load_failed")
                         .Label("shards", std::to_string(shards))
                         .Label("error", "bulk load failed"));
        continue;
      }
      LoadGenOptions lg;
      lg.target_qps = 0;
      lg.duration_seconds = duration;
      lg.clients = std::max(clients, shards / 2);
      LoadGenResult r = RunOpenLoop(svc.get(), write_ops, lg);
      svc->Shutdown();
      if (shards == 1) base_qps = r.achieved_qps;
      ctx.sink.Add(ResultRow(name)
                       .Label("shards", std::to_string(shards))
                       .Metric("qps", r.achieved_qps)
                       .Metric("speedup_vs_1shard",
                               base_qps > 0 ? r.achieved_qps / base_qps : 1));
    }
  }

  // 3. Admission control: offered load far above capacity (a simulated-
  // NVM write stall makes capacity deterministic and low), small queues.
  // kReject must observe and count queue-full rejections; kBlock shows
  // the same overload absorbed as backpressure instead.
  ctx.sink.Section("admission control: offered >> capacity, queue=256");
  const uint64_t slow_write_ns = 1500;
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kReject, AdmissionPolicy::kBlock}) {
    const char* policy_name =
        policy == AdmissionPolicy::kReject ? "reject" : "block";
    auto svc = MakeService("ALEX", 2, load, policy, 256, headroom,
                           slow_write_ns);
    if (svc == nullptr) continue;
    LoadGenOptions lg;
    lg.target_qps = 2e6;  // far beyond the stalled store's capacity
    lg.duration_seconds = duration;
    lg.clients = clients;
    LoadGenResult r = RunOpenLoop(svc.get(), write_ops, lg);
    ServiceStats stats = svc->Stats();
    svc->Shutdown();
    double reject_pct =
        r.issued > 0 ? 100.0 * static_cast<double>(r.rejected) /
                           static_cast<double>(r.issued)
                     : 0;
    ResultRow row("ALEX/" + std::string(policy_name));
    row.Label("policy", policy_name)
        .Metric("offered_qps", r.offered_qps)
        .Metric("achieved_qps", r.achieved_qps)
        .Metric("rejected", static_cast<double>(r.rejected))
        .Metric("reject_pct", reject_pct)
        .Metric("p999_ns", static_cast<double>(r.point_latency.P999()));
    AddShardSpread(row, stats, r.wall_seconds);
    ctx.sink.Add(std::move(row));
  }

  // 4. Open-loop latency at moderate load: coordinated-omission-free
  // tails (latency from *scheduled arrival*), with scans in the mix to
  // exercise the cross-shard fan-out and key-ordered merge.
  WorkloadSpec mixed;
  mixed.read_pct = 60;
  mixed.update_pct = 20;
  mixed.insert_pct = 10;
  mixed.rmw_pct = 5;
  mixed.scan_pct = 5;
  mixed.pick = KeyPick::kZipfian;
  mixed.scan_len = 50;
  std::vector<Op> mixed_ops = GenerateOps(mixed, ctx.ops, load, inserts, 7);
  const size_t lat_shards = smoke ? 2 : 4;
  ctx.sink.Section("open-loop latency, " + std::to_string(lat_shards) +
                   " shards (tails measured from scheduled arrival)");
  const std::vector<std::string> lat_indexes =
      smoke ? std::vector<std::string>{"ALEX"}
            : std::vector<std::string>{"ALEX", "PGM", "BTree", "OLC-BTree"};
  for (const std::string& name : lat_indexes) {
    auto svc = MakeService(name, lat_shards, load, AdmissionPolicy::kBlock,
                           4096, headroom, 0);
    if (svc == nullptr) continue;
    LoadGenOptions lg;
    lg.target_qps = smoke ? 20'000 : 100'000;
    lg.duration_seconds = duration;
    lg.clients = clients;
    LoadGenResult r = RunOpenLoop(svc.get(), mixed_ops, lg);
    svc->Shutdown();
    ctx.sink.Add(
        ResultRow(name)
            .Label("shards", std::to_string(lat_shards))
            .Metric("offered_qps", r.offered_qps)
            .Metric("achieved_qps", r.achieved_qps)
            .Metric("p50_ns", static_cast<double>(r.point_latency.P50()))
            .Metric("p99_ns", static_cast<double>(r.point_latency.P99()))
            .Metric("p999_ns", static_cast<double>(r.point_latency.P999()))
            .Metric("scan_p99_ns",
                    static_cast<double>(r.scan_latency.P99())));
  }
}

PIECES_REGISTER_EXPERIMENT(
    service_scaling, "service_scaling", "Service",
    "Sharded KV service: shard scaling, admission control, CO-free tails",
    "Range-partitioned shard-per-worker serving lets single-writer learned "
    "indexes scale concurrent write throughput with shard count, with "
    "bounded queues absorbing or rejecting overload",
    RunServiceScaling)

}  // namespace
}  // namespace pieces::bench
