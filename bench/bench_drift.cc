// drift: sustained-QPS serving under distribution drift, inline vs
// background retraining. The paper's update benchmarks (Figs. 13/15/18)
// measure throughput, where an occasional stop-the-world segment retrain
// averages away; this experiment measures open-loop *tail latency* under
// drifting workloads (workload/drift.h), where every inline retrain is a
// serving-thread stall that lands squarely on p99/p999. With the
// background maintainer (service/maintainer.h) the same retrains run
// off-thread and publish via the index's RCU swap, so the tail should
// hold while throughput stays comparable.
//
// Three sections:
//   1. inline vs background — FITing-tree-buf and XIndex under the
//      key-shift drift at fixed offered QPS; the paired rows isolate the
//      maintainer as the only difference;
//   2. retraining budget sweep — the segments_per_sec token bucket from
//      unlimited down to starved, showing throttled candidates turning
//      into inline (hard-cap) stalls as the budget shrinks;
//   3. drift shapes — all three drift kinds under background maintenance.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/loadgen.h"
#include "workload/drift.h"

namespace pieces::bench {
namespace {

using service::AdmissionPolicy;
using service::KvService;
using service::LoadGenOptions;
using service::LoadGenResult;
using service::MaintenanceConfig;
using service::ServiceConfig;
using service::ServiceStats;

struct DriftServiceOptions {
  size_t shards = 2;
  size_t headroom_bytes = 0;
  MaintenanceConfig maintenance;
};

std::unique_ptr<KvService> MakeDriftService(const std::string& index_name,
                                            const std::vector<Key>& load,
                                            const DriftServiceOptions& opt) {
  ServiceConfig cfg;
  cfg.num_shards = opt.shards;
  cfg.queue_capacity = 4096;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.store.value_size = 200;
  cfg.store.pmem_capacity =
      (load.size() * 208 * 4) / std::max<size_t>(1, opt.shards) +
      opt.headroom_bytes;
  cfg.store.read_latency_ns = NvmReadLatencyNs();
  cfg.store.write_latency_ns = NvmWriteLatencyNs();
  cfg.maintenance = opt.maintenance;
  auto svc = std::make_unique<KvService>(index_name, cfg, load);
  if (!svc->BulkLoad(load)) return nullptr;
  svc->Start();
  return svc;
}

// Sums the maintainer counters over shards (zero in inline mode).
void AddMaintainerMetrics(ResultRow& row, const ServiceStats& stats) {
  uint64_t published = 0, aborted = 0, throttled = 0;
  for (const auto& s : stats.shards) {
    published += s.bg_published;
    aborted += s.bg_aborted;
    throttled += s.bg_throttled;
  }
  row.Metric("bg_published", static_cast<double>(published))
      .Metric("bg_aborted", static_cast<double>(aborted))
      .Metric("bg_throttled", static_cast<double>(throttled));
}

ResultRow DriftRow(const std::string& name, const LoadGenResult& r) {
  ResultRow row(name);
  row.Metric("offered_qps", r.offered_qps)
      .Metric("achieved_qps", r.achieved_qps)
      .Metric("p50_ns", static_cast<double>(r.point_latency.P50()))
      .Metric("p99_ns", static_cast<double>(r.point_latency.P99()))
      .Metric("p999_ns", static_cast<double>(r.point_latency.P999()));
  return row;
}

void RunDrift(Context& ctx) {
  const bool smoke = ctx.base_keys <= 8192;
  const size_t n = ctx.base_keys;
  std::vector<Key> all = MakeKeys("ycsb", n + n / 3, 31);
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  const double duration =
      ctx.duration_seconds > 0 ? ctx.duration_seconds : (smoke ? 0.12 : 1.0);
  const size_t clients = smoke ? 2 : std::max<size_t>(2, ctx.max_threads);
  const double target_qps = smoke ? 20'000 : 150'000;
  const size_t headroom =
      static_cast<size_t>(1.5e9 * std::max(duration, 0.25));

  DriftSpec shift;
  shift.kind = DriftKind::kKeyShift;
  std::vector<Op> shift_ops = GenerateDriftOps(shift, ctx.ops, load, inserts);

  // 1. Inline vs background under key-shift. The only difference between
  // the paired rows is MaintenanceConfig::enabled: same index, same op
  // stream, same offered load.
  ctx.sink.Section("key-shift drift @" +
                   std::to_string(static_cast<int>(target_qps)) +
                   " qps: inline vs background retraining");
  const std::vector<std::string> indexes = {"FITing-tree-buf", "XIndex"};
  for (const std::string& name : indexes) {
    for (bool background : {false, true}) {
      DriftServiceOptions opt;
      opt.headroom_bytes = headroom;
      opt.maintenance.enabled = background;
      auto svc = MakeDriftService(name, load, opt);
      if (svc == nullptr) {
        ctx.sink.Add(ResultRow(name).Status("bulk_load_failed"));
        continue;
      }
      LoadGenOptions lg;
      lg.target_qps = target_qps;
      lg.duration_seconds = duration;
      lg.clients = clients;
      LoadGenResult r = RunOpenLoop(svc.get(), shift_ops, lg);
      ServiceStats stats = svc->Stats();
      svc->Shutdown();
      ResultRow row = DriftRow(name, r);
      row.Label("mode", background ? "background" : "inline");
      AddMaintainerMetrics(row, stats);
      ctx.sink.Add(std::move(row));
    }
  }

  // 2. Budget sweep: XIndex under key-shift, shrinking the token bucket.
  // Starved budgets push segments to the hard cap, where the serving
  // thread compacts inline anyway — throttled counts convert back into
  // tail latency.
  ctx.sink.Section("retraining budget sweep (XIndex, key-shift)");
  const std::vector<double> budgets =
      smoke ? std::vector<double>{0, 8} : std::vector<double>{0, 256, 32, 8};
  for (double budget : budgets) {
    DriftServiceOptions opt;
    opt.headroom_bytes = headroom;
    opt.maintenance.enabled = true;
    opt.maintenance.segments_per_sec = budget;
    auto svc = MakeDriftService("XIndex", load, opt);
    if (svc == nullptr) continue;
    LoadGenOptions lg;
    lg.target_qps = target_qps;
    lg.duration_seconds = duration;
    lg.clients = clients;
    LoadGenResult r = RunOpenLoop(svc.get(), shift_ops, lg);
    ServiceStats stats = svc->Stats();
    svc->Shutdown();
    ResultRow row = DriftRow("XIndex", r);
    row.Label("segments_per_sec",
              budget <= 0 ? "unlimited" : std::to_string(budget));
    AddMaintainerMetrics(row, stats);
    ctx.sink.Add(std::move(row));
  }

  // 3. Drift shapes under background maintenance.
  ctx.sink.Section("drift shapes under background retraining");
  const std::vector<DriftKind> kinds =
      smoke ? std::vector<DriftKind>{DriftKind::kKeyShift}
            : std::vector<DriftKind>{DriftKind::kKeyShift,
                                     DriftKind::kAppendThenRandom,
                                     DriftKind::kDiurnal};
  for (const std::string& name : indexes) {
    for (DriftKind kind : kinds) {
      DriftSpec spec;
      spec.kind = kind;
      std::vector<Op> ops = GenerateDriftOps(spec, ctx.ops, load, inserts);
      DriftServiceOptions opt;
      opt.headroom_bytes = headroom;
      opt.maintenance.enabled = true;
      auto svc = MakeDriftService(name, load, opt);
      if (svc == nullptr) continue;
      LoadGenOptions lg;
      lg.target_qps = target_qps;
      lg.duration_seconds = duration;
      lg.clients = clients;
      LoadGenResult r = RunOpenLoop(svc.get(), ops, lg);
      ServiceStats stats = svc->Stats();
      svc->Shutdown();
      ResultRow row = DriftRow(name, r);
      row.Label("drift", DriftKindName(kind));
      AddMaintainerMetrics(row, stats);
      ctx.sink.Add(std::move(row));
    }
  }
}

PIECES_REGISTER_EXPERIMENT(
    drift, "drift", "Drift",
    "Tail latency under distribution drift: inline vs background retraining",
    "Drifting key distributions force localized segment retrains; done "
    "inline they are stop-the-world stalls that dominate p99/p999, while "
    "the background maintainer's prepare-off-thread + RCU-publish holds "
    "the tail at the same offered load",
    RunDrift)

}  // namespace
}  // namespace pieces::bench
