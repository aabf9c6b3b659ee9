// rebalance: live shard split/merge and multi-writer shards — the two
// service-layer answers to the paper's core finding that most learned
// indexes serialize writers. A static range partition is only as good as
// its key-space balance: a hot range concentrates traffic on one shard
// and its single worker becomes the whole service's ceiling. The
// rebalancer watches per-shard queue depth and splits the hot shard live
// (retire -> drain -> migrate -> publish a new partition snapshot), so
// the hot range ends up spread over several workers without stopping the
// service. Independently, indexes that support concurrent writes (OLC
// ALEX, XIndex, OLC-BTree, ...) can run several writer lanes inside one
// shard instead of requiring more shards.
//
// Three sections:
//   1. hot-range recovery — WorkloadSpec::HotRange against (a) a static
//      single-shard partition, (b) a static multi-shard partition (the
//      hot range still lands in one shard), (c) the same start with the
//      auto-rebalancer enabled. The headline metric is the sustained
//      post-split throughput speedup over the static single-writer
//      partition (target: >= 1.5x);
//   2. writer scaling — concurrent-write indexes with 1/2/4 writer lanes
//      on a single shard, write-only load, speedup over one writer;
//   3. split tail cost — open-loop moderate load with a live split
//      triggered mid-run; coordinated-omission-free tails plus the count
//      of requests that lost the race and completed as kRetry.
#include <algorithm>
#include <chrono>
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
  cfg.store.pmem_capacity =
      (load.size() * 208 * 4) / std::max<size_t>(1, shards) + headroom_bytes;
  cfg.store.read_latency_ns = NvmReadLatencyNs();
  cfg.store.write_latency_ns = NvmWriteLatencyNs();
  return cfg;
}

void RunRebalance(Context& ctx) {
  const bool smoke = ctx.base_keys <= 8192;
  const size_t n = ctx.base_keys;
  std::vector<Key> all = MakeKeys("ycsb", n + n / 3, 29);
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  const double duration =
      ctx.duration_seconds > 0 ? ctx.duration_seconds : (smoke ? 0.12 : 1.0);
  const size_t clients = smoke ? 2 : std::max<size_t>(4, ctx.max_threads);
  const size_t headroom =
      static_cast<size_t>(1.5e9 * std::max(duration, 0.25));

  const unsigned cores = std::thread::hardware_concurrency();
  ctx.sink.Note("hardware threads: " + std::to_string(cores) +
                " — split recovery needs spare cores for the new workers");
  if (cores <= 1) {
    ctx.sink.Note("single-core machine: the simulated-NVM latency is a "
                  "busy-wait, so extra shards/writers timeshare one core "
                  "and every speedup column is expected to read ~1.0 or "
                  "below; run on >= 4 cores for the real effect");
  }

  // 1. Hot-range recovery. 90% of ops hit a contiguous 5% slice of the
  // key space (rank-skewed toward the slice start — the adversarial case
  // for range partitioning, since the load clusters instead of
  // scattering). The static partitions are stuck with whatever shard the
  // slice falls into; the rebalancer splits that shard repeatedly until
  // no piece sustains pressure.
  std::vector<Op> hot_ops =
      GenerateOps(WorkloadSpec::HotRange(/*update_pct=*/30), ctx.ops, load,
                  inserts, 31);
  ctx.sink.Section("hot-range load: static partition vs auto-rebalance");
  const std::string hot_index = "ALEX";
  double static1_qps = 0;

  auto run_hot = [&](const std::string& label, ServiceConfig cfg) {
    auto svc = MakeService(hot_index, cfg, load);
    if (svc == nullptr) {
      ctx.sink.Add(ResultRow(label).Status("bulk_load_failed"));
      return;
    }
    LoadGenOptions lg;
    lg.target_qps = 0;  // saturate
    lg.duration_seconds = duration;
    lg.clients = clients;
    // Warm pass: lets the rebalancer observe pressure and perform its
    // splits; the measured pass then reports *sustained* throughput on
    // the settled partition. The static services just warm caches.
    RunOpenLoop(svc.get(), hot_ops, lg);
    LoadGenResult r = RunOpenLoop(svc.get(), hot_ops, lg);
    service::ServiceStats stats = svc->Stats();
    svc->Shutdown();
    if (label == "static-1shard") static1_qps = r.achieved_qps;
    ctx.sink.Add(
        ResultRow(label)
            .Label("index", hot_index)
            .Metric("qps", r.achieved_qps)
            .Metric("speedup_vs_static1",
                    static1_qps > 0 ? r.achieved_qps / static1_qps : 1)
            .Metric("final_shards", static_cast<double>(stats.shards.size()))
            .Metric("splits", static_cast<double>(stats.splits))
            .Metric("merges", static_cast<double>(stats.merges))
            .Metric("retried", static_cast<double>(r.retried))
            .Metric("p99_ns", static_cast<double>(r.point_latency.P99())));
  };

  run_hot("static-1shard", BaseConfig(1, load, headroom));
  run_hot("static-4shard", BaseConfig(4, load, headroom));
  {
    // Same single-shard start as the baseline; splitting is the only way
    // this configuration can add workers.
    ServiceConfig cfg = BaseConfig(1, load, headroom);
    cfg.rebalance.enabled = true;
    // Saturating clients keep roughly `clients` requests in flight; any
    // shard sustaining half of them is hot enough to split.
    cfg.rebalance.split_queue_depth = std::max<size_t>(2, clients / 2);
    cfg.rebalance.min_split_keys = std::max<size_t>(64, load.size() / 256);
    cfg.rebalance.max_shards = 16;
    cfg.rebalance.cooldown_ms = smoke ? 5 : 20;
    run_hot("auto-rebalance", cfg);
  }

  // 2. Writer scaling inside one shard: the OLC indexes take concurrent
  // writers directly, so a single shard can run several writer lanes.
  // Single-writer indexes ignore the knob (the service clamps to 1).
  std::vector<Op> write_ops =
      GenerateOps(WorkloadSpec::WriteOnly(), ctx.ops, load, inserts, 33);
  const std::vector<std::string> writer_indexes =
      smoke ? std::vector<std::string>{"ALEX"}
            : std::vector<std::string>{"ALEX", "XIndex", "OLC-BTree"};
  ctx.sink.Section("writer lanes per shard (1 shard, write-only)");
  for (const std::string& name : writer_indexes) {
    double base_qps = 0;
    for (size_t writers : {size_t{1}, size_t{2}, size_t{4}}) {
      ServiceConfig cfg = BaseConfig(1, load, headroom);
      cfg.writers_per_shard = writers;
      auto svc = MakeService(name, cfg, load);
      if (svc == nullptr) {
        ctx.sink.Add(ResultRow(name).Status("bulk_load_failed"));
        continue;
      }
      LoadGenOptions lg;
      lg.target_qps = 0;
      lg.duration_seconds = duration;
      lg.clients = std::max(clients, writers);
      LoadGenResult r = RunOpenLoop(svc.get(), write_ops, lg);
      service::ServiceStats stats = svc->Stats();
      svc->Shutdown();
      if (writers == 1) base_qps = r.achieved_qps;
      ctx.sink.Add(ResultRow(name)
                       .Label("writers", std::to_string(writers))
                       .Metric("qps", r.achieved_qps)
                       .Metric("effective_writers",
                               static_cast<double>(stats.shards[0].writers))
                       .Metric("speedup_vs_1writer",
                               base_qps > 0 ? r.achieved_qps / base_qps : 1));
    }
  }

  // 3. Split tail cost: moderate open-loop load, one live split in the
  // middle of the run. Latency is measured from scheduled arrival, so the
  // retire -> drain -> migrate -> publish window is charged to the
  // requests it delays; `retried` counts requests that lost the race with
  // the partition swap and came back kRetry after the re-route budget.
  ctx.sink.Section("live split under open-loop load (CO-free tails)");
  WorkloadSpec mixed;
  mixed.read_pct = 70;
  mixed.update_pct = 30;
  mixed.pick = KeyPick::kZipfian;
  std::vector<Op> mixed_ops = GenerateOps(mixed, ctx.ops, load, inserts, 37);
  for (bool split : {false, true}) {
    ServiceConfig cfg = BaseConfig(2, load, headroom);
    auto svc = MakeService(hot_index, cfg, load);
    if (svc == nullptr) continue;
    LoadGenOptions lg;
    lg.target_qps = smoke ? 20'000 : 100'000;
    lg.duration_seconds = duration;
    lg.clients = clients;
    std::thread splitter;
    if (split) {
      splitter = std::thread([&svc, duration] {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(duration / 2));
        svc->SplitShard(0);
      });
    }
    LoadGenResult r = RunOpenLoop(svc.get(), mixed_ops, lg);
    if (splitter.joinable()) splitter.join();
    service::ServiceStats stats = svc->Stats();
    svc->Shutdown();
    ctx.sink.Add(
        ResultRow(split ? "split-mid-run" : "no-split")
            .Label("index", hot_index)
            .Metric("achieved_qps", r.achieved_qps)
            .Metric("splits", static_cast<double>(stats.splits))
            .Metric("retried", static_cast<double>(r.retried))
            .Metric("p50_ns", static_cast<double>(r.point_latency.P50()))
            .Metric("p99_ns", static_cast<double>(r.point_latency.P99()))
            .Metric("p999_ns", static_cast<double>(r.point_latency.P999())));
  }
}

PIECES_REGISTER_EXPERIMENT(
    rebalance, "rebalance", "Service",
    "Live shard split/merge and multi-writer shards under hot-range load",
    "Queue-depth-driven live splitting recovers throughput a static range "
    "partition loses to a hot range, and OLC indexes scale writes inside "
    "one shard via writer lanes",
    RunRebalance)

}  // namespace
}  // namespace pieces::bench
