// Recovery experiment (extends Fig. 16 beyond clean rebuilds): crash
// consistency end to end.
//
//  1. Crash + rebuild sweep: every index x {1x, 4x} dataset size. The
//     store is bulk-loaded, then (for updatable indexes) dirtied with
//     out-of-place updates and fresh inserts so recovery has to validate
//     commit headers and resolve duplicate keys by seqno — the realistic
//     post-crash shape, not the pristine bulk-load image Fig. 16 times.
//     The crash itself is a real power cut (unpersisted bytes dropped).
//  2. Write-path durability cost: write-only throughput under the
//     one-barrier commit protocol (one persist over each put's whole
//     record), reporting persist barriers per op so the cost of crash
//     safety is visible next to the Mops number.
//  3. Service-level outage: a sharded KvService crashes every shard's
//     PMem and recovers in parallel; the row reports the slowest shard's
//     rebuild (the outage's critical path) and the summed rebuild work.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "service/router.h"

namespace pieces::bench {
namespace {

bool IsUpdatable(const std::string& name) {
  const std::vector<std::string>& u = UpdatableIndexNames();
  return std::find(u.begin(), u.end(), name) != u.end();
}

void RunCrashRebuildSweep(Context& ctx) {
  for (size_t mult : {1, 4}) {
    size_t n = ctx.base_keys * mult;
    std::vector<Key> all = MakeUniformKeys(n + n / 4, 17);
    std::vector<Key> load;
    std::vector<Key> inserts;
    SplitLoadAndInserts(all, 5, &load, &inserts);
    ctx.sink.Section("crash + rebuild, " + std::to_string(load.size()) +
                     " loaded keys");
    for (const std::string& name : AllIndexNames()) {
      auto store = MakeStore(ctx, name, load);
      if (store == nullptr) continue;
      // Dirty the store so recovery earns its keep: updates leave stale
      // committed slots (dedup by seqno), inserts add keys beyond the
      // bulk-load image. Read-only indexes recover the pristine load.
      size_t mutations = 0;
      if (IsUpdatable(name)) {
        size_t updates = std::min<size_t>(load.size(), ctx.ops / 10);
        for (size_t i = 0; i < updates; ++i) {
          if (store->PutSynthetic(load[i * 7 % load.size()])) ++mutations;
        }
        size_t fresh = std::min<size_t>(inserts.size(), ctx.ops / 10);
        for (size_t i = 0; i < fresh; ++i) {
          if (store->PutSynthetic(inserts[i])) ++mutations;
        }
      }
      store->Crash();
      uint64_t nanos = store->Recover();
      ctx.sink.Add(
          ResultRow(name)
              .Label("keys", std::to_string(load.size()))
              .Metric("mutations", static_cast<double>(mutations))
              .Metric("recovered_keys", static_cast<double>(store->size()))
              .Metric("recover_ms", static_cast<double>(nanos) / 1e6));
    }
  }
}

void RunDurabilityCost(Context& ctx) {
  size_t n = ctx.base_keys;
  std::vector<Key> all = MakeUniformKeys(n + n / 3, 23);
  std::vector<Key> load;
  std::vector<Key> inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);
  auto ops = GenerateOps(WorkloadSpec::WriteOnly(), ctx.ops, load, inserts);
  ctx.sink.Section("write-path durability cost, " +
                   std::to_string(load.size()) + " loaded keys");
  for (const std::string& name : UpdatableIndexNames()) {
    auto store = MakeStore(ctx, name, load);
    if (store == nullptr) continue;
    uint64_t persists_before = store->pmem().persist_count();
    RunStats r = RunStoreOps(store.get(), ops, ExecOptions(ctx));
    double per_op =
        r.ops_executed == 0
            ? 0
            : static_cast<double>(store->pmem().persist_count() -
                                  persists_before) /
                  static_cast<double>(r.ops_executed);
    ctx.sink.Add(ThroughputRow(name, r)
                     .Label("keys", std::to_string(load.size()))
                     .Metric("persists_per_op", per_op));
  }
}

void RunServiceOutage(Context& ctx) {
  size_t n = ctx.base_keys;
  std::vector<Key> keys = MakeUniformKeys(n, 31);
  std::sort(keys.begin(), keys.end());
  ctx.sink.Section("service crash-and-recover, " + std::to_string(n) +
                   " keys, " + std::to_string(ctx.max_threads) + " shards");
  for (const std::string& name : {std::string("BTree"), std::string("ALEX")}) {
    service::ServiceConfig cfg;
    cfg.num_shards = ctx.max_threads;
    cfg.store.value_size = 200;
    cfg.store.pmem_capacity = (n / std::max<size_t>(1, cfg.num_shards)) *
                                  224 * 4 +
                              (64 << 20);
    service::KvService svc(name, cfg, keys);
    if (!svc.BulkLoad(keys)) {
      ctx.sink.Add(ResultRow(name).Status("bulk_load_failed"));
      continue;
    }
    svc.Start();
    // A little live traffic before the outage so the crash interrupts a
    // warm service, not a freshly loaded one.
    for (size_t i = 0; i < std::min<size_t>(keys.size(), 1024); ++i) {
      svc.Put(keys[i * 13 % keys.size()]);
    }
    std::vector<uint64_t> rebuild = svc.CrashAndRecover();
    uint64_t worst = 0;
    uint64_t total = 0;
    for (uint64_t ns : rebuild) {
      worst = std::max(worst, ns);
      total += ns;
    }
    ctx.sink.Add(
        ResultRow(name)
            .Label("shards", std::to_string(rebuild.size()))
            .Metric("outage_critical_path_ms", static_cast<double>(worst) / 1e6)
            .Metric("rebuild_total_ms", static_cast<double>(total) / 1e6)
            .Metric("keys_after", static_cast<double>(svc.TotalKeys())));
  }
}

void RunRecovery(Context& ctx) {
  RunCrashRebuildSweep(ctx);
  RunDurabilityCost(ctx);
  RunServiceOutage(ctx);
}

PIECES_REGISTER_EXPERIMENT(
    recovery, "recovery", "Fig. 16 (ext)",
    "Crash recovery: post-crash rebuild, durability cost, service outage",
    "Rebuild time is dominated by index build (BTree fast, ALEX/XIndex "
    "slow); the one-barrier commit protocol prices crash safety into the "
    "write path; a sharded service recovers on the slowest shard's clock",
    RunRecovery)

}  // namespace
}  // namespace pieces::bench
