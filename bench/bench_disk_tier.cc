// disk_tier: the learned indexes serving a dataset larger than memory.
// Records live in paged files (DiskStore) behind a CLOCK buffer pool
// sized to a *fraction* of the dataset; models and fence keys stay in
// DRAM. The sweep prices the disk tier's cost model — page fetches per
// lookup and pool hit rate vs pool fraction — per index family and
// dataset, next to the in-memory ViperStore baseline running the exact
// same op stream through the exact same serving code (StoreBackend).
// Further sections check Get/Scan conformance between the two backends
// on a dataset 20x the pool, show the page-granular batch grouping
// beating single-key fetches under a thrashing pool, and confirm the
// write path costs exactly one fsync barrier per put (the whole record,
// record_format.h) at one writer and at four.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "store/disk_store.h"

namespace pieces::bench {
namespace {

constexpr double kPoolFractions[] = {0.05, 0.25, 1.0};

// Pages needed to hold `n` records (224B each in 4K pages => 18 slots).
size_t DataPages(size_t n, const DiskStore::Config& cfg) {
  const size_t record = sizeof(Key) + cfg.value_size + 16;
  const size_t slots = std::max<size_t>(1, cfg.page_size / record);
  return (n + slots - 1) / slots;
}

DiskStore::Config DiskConfig(const Context& ctx, size_t n_keys,
                             double pool_fraction, int file_id) {
  DiskStore::Config cfg;
  cfg.value_size = 200;
  cfg.page_size = 4096;
  const size_t pages = DataPages(n_keys, cfg);
  cfg.pool_pages = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(pages) * pool_fraction));
  // Headroom for out-of-place updates.
  cfg.file_capacity = (pages * 4 + 4096) * cfg.page_size;
  cfg.path = ctx.data_dir + "/disk_tier_" + std::to_string(file_id) +
             ".pages";
  return cfg;
}

std::vector<Key> LoadKeys(const std::string& dataset, size_t n) {
  std::vector<Key> keys = MakeKeys(dataset, n, 7);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void RunDiskTier(Context& ctx) {
  const size_t n = std::max<size_t>(ctx.base_keys, size_t{1} << 12);
  const size_t lookups = std::max<size_t>(1000, ctx.ops);
  int file_id = 0;

  // ---- Pool-fraction sweep ------------------------------------------
  ctx.sink.Section(
      "uniform point reads: disk tier (by pool fraction) vs in-memory "
      "viper baseline");
  for (const char* ds : {"ycsb", "face"}) {
    const std::vector<Key> keys = LoadKeys(ds, n);
    const std::vector<Op> ops =
        GenerateOps(WorkloadSpec::ReadOnly(), lookups, keys, {});
    for (const char* index_name : {"BTree", "PGM", "ALEX"}) {
      // In-memory baseline: same index, same op stream, same executor.
      if (auto store = MakeStore(ctx, index_name, keys)) {
        RunStats stats = RunStoreOps(store.get(), ops, ExecOptions(ctx));
        ctx.sink.Add(ResultRow(index_name)
                         .Label("dataset", ds)
                         .Label("backend", "viper")
                         .Label("pool_fraction", "dram")
                         .Metric("mops", stats.mops)
                         .Metric("p50_ns",
                                 static_cast<double>(stats.point.P50()))
                         .Metric("p99_ns",
                                 static_cast<double>(stats.point.P99())));
      }
      for (double frac : kPoolFractions) {
        DiskStore::Config cfg = DiskConfig(ctx, keys.size(), frac,
                                           file_id++);
        DiskStore store(MakeIndex(index_name), cfg);
        if (!store.ok() || !store.BulkLoad(keys)) {
          ctx.sink.Add(ResultRow(index_name)
                           .Label("dataset", ds)
                           .Label("backend", "disk")
                           .Status("load_failed")
                           .Label("error", store.ok() ? "bulk load failed"
                                                      : store.error()));
          continue;
        }
        const StoreIoStats before = store.IoStats();
        RunStats stats = RunStoreOps(&store, ops, ExecOptions(ctx));
        const StoreIoStats after = store.IoStats();
        const double executed =
            stats.ops_executed > 0 ? static_cast<double>(stats.ops_executed)
                                   : 1.0;
        const uint64_t hits = after.pool_hits - before.pool_hits;
        const uint64_t misses = after.pool_misses - before.pool_misses;
        ctx.sink.Add(
            ResultRow(index_name)
                .Label("dataset", ds)
                .Label("backend", "disk")
                .Label("pool_fraction", std::to_string(frac))
                .Metric("pool_pages", static_cast<double>(cfg.pool_pages))
                .Metric("mops", stats.mops)
                .Metric("p50_ns", static_cast<double>(stats.point.P50()))
                .Metric("p99_ns", static_cast<double>(stats.point.P99()))
                .Metric("hit_rate",
                        hits + misses == 0
                            ? 0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses))
                .Metric("fetches_per_lookup",
                        static_cast<double>(misses) / executed));
      }
    }
  }

  // ---- Conformance: dataset ~20x the pool ---------------------------
  ctx.sink.Section(
      "conformance: disk(5% pool) vs viper — Get payloads and Scan keys "
      "must be identical");
  for (const char* index_name : {"BTree", "PGM"}) {
    const std::vector<Key> keys = LoadKeys("ycsb", n);
    auto viper = MakeStore(ctx, index_name, keys);
    DiskStore::Config cfg = DiskConfig(ctx, keys.size(), 0.05, file_id++);
    DiskStore disk(MakeIndex(index_name), cfg);
    if (viper == nullptr || !disk.ok() || !disk.BulkLoad(keys)) {
      ctx.sink.Add(ResultRow(index_name).Status("load_failed"));
      continue;
    }
    Rng rng(13);
    size_t mismatches = 0;
    std::vector<uint8_t> got_v(viper->value_size());
    std::vector<uint8_t> got_d(disk.value_size());
    const size_t checks = std::min<size_t>(lookups, 20'000);
    for (size_t i = 0; i < checks; ++i) {
      // Mix updates in so conformance covers the put path too.
      Key key = keys[rng.NextUnder(keys.size())];
      if (i % 8 == 0) {
        if (viper->PutSynthetic(key) != disk.PutSynthetic(key)) {
          ++mismatches;
          continue;
        }
      }
      bool fv = viper->Get(key, got_v.data());
      bool fd = disk.Get(key, got_d.data());
      if (fv != fd || !fv || got_v != got_d) ++mismatches;
    }
    size_t scan_mismatches = 0;
    for (size_t i = 0; i < 32; ++i) {
      Key from = keys[rng.NextUnder(keys.size())];
      std::vector<Key> kv, kd;
      viper->Scan(from, 100, &kv);
      disk.Scan(from, 100, &kd);
      if (kv != kd) ++scan_mismatches;
    }
    ctx.sink.Add(ResultRow(index_name)
                     .Label("dataset", "ycsb")
                     .Label("data_pages_over_pool",
                            std::to_string(DataPages(keys.size(), cfg) /
                                           cfg.pool_pages))
                     .Metric("get_checks", static_cast<double>(checks))
                     .Metric("get_mismatches",
                             static_cast<double>(mismatches))
                     .Metric("scan_mismatches",
                             static_cast<double>(scan_mismatches))
                     .Metric("conformance_ok",
                             mismatches + scan_mismatches == 0 ? 1 : 0));
  }

  // ---- Batch page-grouping ------------------------------------------
  ctx.sink.Section(
      "page-granular GetBatch grouping vs single-key Gets under a "
      "thrashing pool (page-interleaved probes)");
  {
    const std::vector<Key> keys = LoadKeys("ycsb", n);
    DiskStore::Config cfg = DiskConfig(ctx, keys.size(), 0.0, file_id++);
    cfg.pool_pages = 2;  // Thrash on purpose: alternating pages evict.
    DiskStore store(MakeIndex("PGM"), cfg);
    if (store.ok() && store.BulkLoad(keys)) {
      // Probes interleave 8 pages round-robin (p0,p1,...,p7,p0,...): the
      // worst case for an un-grouped pool, the best case for grouping.
      const size_t slots = store.slots_per_page();
      const size_t batch = 64;
      std::vector<Key> probes;
      Rng rng(17);
      while (probes.size() < std::min<size_t>(lookups, 50'000)) {
        size_t base_page =
            rng.NextUnder(std::max<size_t>(1, keys.size() / slots - 8));
        for (size_t i = 0; i < batch; ++i) {
          size_t idx = (base_page + i % 8) * slots + (i / 8) % slots;
          probes.push_back(keys[std::min(idx, keys.size() - 1)]);
        }
      }
      std::vector<uint8_t> value(store.value_size());
      std::vector<uint8_t*> outs(batch, value.data());
      std::unique_ptr<bool[]> found(new bool[batch]);
      StoreIoStats s0 = store.IoStats();
      for (const Key& k : probes) store.Get(k, value.data());
      StoreIoStats s1 = store.IoStats();
      for (size_t i = 0; i + batch <= probes.size(); i += batch) {
        store.GetBatch(std::span<const Key>(probes.data() + i, batch),
                       outs.data(), found.get());
      }
      StoreIoStats s2 = store.IoStats();
      const double np = static_cast<double>(probes.size());
      ctx.sink.Add(ResultRow("single_get")
                       .Label("pool_pages", "2")
                       .Metric("fetches_per_lookup",
                               static_cast<double>(s1.pool_misses -
                                                   s0.pool_misses) /
                                   np));
      ctx.sink.Add(ResultRow("getbatch_64")
                       .Label("pool_pages", "2")
                       .Metric("fetches_per_lookup",
                               static_cast<double>(s2.pool_misses -
                                                   s1.pool_misses) /
                                   np));
    } else {
      ctx.sink.Add(ResultRow("PGM").Status("load_failed"));
    }
  }

  // ---- Write path ----------------------------------------------------
  ctx.sink.Section("write path: fsync barriers per put (whole record)");
  {
    const std::vector<Key> keys = LoadKeys("ycsb", n);
    std::vector<Key> load, inserts;
    SplitLoadAndInserts(keys, 4, &load, &inserts);
    DiskStore::Config cfg = DiskConfig(ctx, keys.size(), 0.25, file_id++);
    DiskStore store(MakeIndex("ALEX"), cfg);
    if (store.ok() && store.BulkLoad(load)) {
      const size_t puts = std::min<size_t>(inserts.size(),
                                           std::max<size_t>(lookups / 4, 1));
      StoreIoStats s0 = store.IoStats();
      Timer timer;
      for (size_t i = 0; i < puts; ++i) store.PutSynthetic(inserts[i]);
      const double secs = static_cast<double>(timer.ElapsedNanos()) / 1e9;
      StoreIoStats s1 = store.IoStats();
      ctx.sink.Add(ResultRow("ALEX")
                       .Label("dataset", "ycsb")
                       .Metric("puts", static_cast<double>(puts))
                       .Metric("barriers_per_put",
                               static_cast<double>(s1.barriers -
                                                   s0.barriers) /
                                   static_cast<double>(puts))
                       .Metric("kops",
                               secs > 0 ? static_cast<double>(puts) / secs /
                                              1e3
                                        : 0));
    } else {
      ctx.sink.Add(ResultRow("ALEX").Status("load_failed"));
    }
  }

  // ---- Overlapped I/O: io-engine sweep ------------------------------
  // Cold 5% pool, GetBatch(64) probes spread one-key-per-page: the
  // serial engine blocks once per page, the threads engine once per
  // batch — `waits_per_batch` and `io_max_inflight` show the overlap,
  // `kops` whether it pays on this device.
  ctx.sink.Section(
      "overlapped I/O: engine sweep on cold 5% pool, GetBatch(64) with "
      "one key per page (blocking waits per batch)");
  {
    const std::vector<Key> keys = LoadKeys("ycsb", n);
    const size_t batch = 64;
    for (const std::string engine : {"serial", "threads"}) {
      DiskStore::Config cfg = DiskConfig(ctx, keys.size(), 0.05, file_id++);
      cfg.io_engine = engine;
      DiskStore store(MakeIndex("PGM"), cfg);
      if (!store.ok() || !store.BulkLoad(keys)) {
        ctx.sink.Add(ResultRow(engine.c_str()).Status("load_failed"));
        continue;
      }
      const size_t slots = store.slots_per_page();
      const size_t data_pages = keys.size() / slots;
      std::vector<Key> probes;
      Rng rng(23);
      while (probes.size() < std::min<size_t>(lookups, 20'000)) {
        // 64 keys, 64 distinct pages: a worst case for blocking preads.
        const size_t base = rng.NextUnder(std::max<size_t>(1, data_pages));
        for (size_t i = 0; i < batch; ++i) {
          const size_t page = (base + i * 17) % data_pages;
          probes.push_back(keys[std::min(page * slots + i % slots,
                                         keys.size() - 1)]);
        }
      }
      std::vector<uint8_t> value(store.value_size());
      std::vector<uint8_t*> outs(batch, value.data());
      std::unique_ptr<bool[]> found(new bool[batch]);
      const StoreIoStats s0 = store.IoStats();
      Timer timer;
      size_t batches = 0;
      for (size_t i = 0; i + batch <= probes.size(); i += batch) {
        store.GetBatch(std::span<const Key>(probes.data() + i, batch),
                       outs.data(), found.get());
        ++batches;
      }
      const double secs = static_cast<double>(timer.ElapsedNanos()) / 1e9;
      const StoreIoStats s1 = store.IoStats();
      const double nb = batches > 0 ? static_cast<double>(batches) : 1.0;
      ctx.sink.Add(
          ResultRow(engine.c_str())
              .Label("engine", std::string(store.io_engine_name()))
              .Label("pool_fraction", "0.05")
              .Metric("batches", nb)
              .Metric("blocking_waits",
                      static_cast<double>(s1.io_waits - s0.io_waits))
              .Metric("waits_per_batch",
                      static_cast<double>(s1.io_waits - s0.io_waits) / nb)
              .Metric("io_max_inflight",
                      static_cast<double>(s1.io_max_inflight))
              .Metric("fetches_per_lookup",
                      static_cast<double>(s1.pool_misses - s0.pool_misses) /
                          (nb * static_cast<double>(batch)))
              .Metric("kops", secs > 0 ? nb * static_cast<double>(batch) /
                                             secs / 1e3
                                       : 0));
    }
  }

  // ---- Error-bound readahead ----------------------------------------
  // A sequential key sweep on a cold 5% pool: the model's predicted span
  // (slot +/- err, capped) rides each demand miss in one engine batch,
  // converting the next lookups' misses into readahead hits.
  ctx.sink.Section(
      "error-bound readahead: sequential sweep, cold 5% pool (PGM) — "
      "readahead pages staged vs demand misses saved");
  {
    const std::vector<Key> keys = LoadKeys("ycsb", n);
    for (size_t ra : {size_t{0}, size_t{4}, size_t{16}}) {
      DiskStore::Config cfg = DiskConfig(ctx, keys.size(), 0.05, file_id++);
      cfg.readahead_max_pages = ra;
      DiskStore store(MakeIndex("PGM"), cfg);
      if (!store.ok() || !store.BulkLoad(keys)) {
        ctx.sink.Add(ResultRow("PGM").Status("load_failed"));
        continue;
      }
      const size_t sweep = std::min<size_t>(keys.size(), lookups);
      std::vector<uint8_t> value(store.value_size());
      const StoreIoStats s0 = store.IoStats();
      Timer timer;
      for (size_t i = 0; i < sweep; ++i) store.Get(keys[i], value.data());
      const double secs = static_cast<double>(timer.ElapsedNanos()) / 1e9;
      const StoreIoStats s1 = store.IoStats();
      const double nl = sweep > 0 ? static_cast<double>(sweep) : 1.0;
      const uint64_t staged = s1.readahead_pages - s0.readahead_pages;
      ctx.sink.Add(
          ResultRow("PGM")
              .Label("readahead_max_pages", std::to_string(ra))
              .Metric("fetches_per_lookup",
                      static_cast<double>(s1.pool_misses - s0.pool_misses) /
                          nl)
              .Metric("readahead_pages", static_cast<double>(staged))
              .Metric("readahead_hits",
                      static_cast<double>(s1.readahead_hits -
                                          s0.readahead_hits))
              .Metric("readahead_wasted_frac",
                      staged == 0
                          ? 0
                          : static_cast<double>(s1.readahead_wasted -
                                                s0.readahead_wasted) /
                                static_cast<double>(staged))
              .Metric("kops", secs > 0 ? nl / secs / 1e3 : 0));
    }
  }

  // ---- Barriers per put vs writer count --------------------------------
  // Every writer commits its own put with its own one barrier, so
  // barriers/put stays 1 at any writer count; kops shows whether the
  // writers' fsyncs overlap.
  ctx.sink.Section("fsync barriers per put vs writer count (1.0 at any "
                   "writer count)");
  {
    const std::vector<Key> keys = LoadKeys("ycsb", n);
    std::vector<Key> load, inserts;
    SplitLoadAndInserts(keys, 4, &load, &inserts);
    for (const size_t num_writers : {size_t{1}, size_t{4}}) {
      DiskStore store(MakeIndex("BTree"),
                      DiskConfig(ctx, keys.size(), 0.25, file_id++));
      if (!store.ok() || !store.BulkLoad(load)) {
        ctx.sink.Add(ResultRow("BTree").Status("load_failed"));
        continue;
      }
      const size_t per_writer =
          std::min(inserts.size() / num_writers,
                   std::max<size_t>(lookups / 4, 64) / num_writers);
      const size_t puts = per_writer * num_writers;
      const uint64_t syncs0 = store.pages().syncs();
      Timer timer;
      std::vector<std::thread> writers;
      for (size_t t = 0; t < num_writers; ++t) {
        writers.emplace_back([&, t] {
          for (size_t i = 0; i < per_writer; ++i) {
            store.PutSynthetic(inserts[t * per_writer + i]);
          }
        });
      }
      for (auto& th : writers) th.join();
      const double secs = static_cast<double>(timer.ElapsedNanos()) / 1e9;
      const double np = puts > 0 ? static_cast<double>(puts) : 1.0;
      ctx.sink.Add(
          ResultRow("BTree")
              .Label("writers", std::to_string(num_writers))
              .Metric("puts", np)
              .Metric("barriers_per_put",
                      static_cast<double>(store.pages().syncs() - syncs0) /
                          np)
              .Metric("kops", secs > 0 ? np / secs / 1e3 : 0));
    }
  }
}

PIECES_REGISTER_EXPERIMENT(
    disk_tier, "disk_tier", "disk tier",
    "Disk-resident page store behind the learned indexes: buffer-pool "
    "fraction sweep, backend conformance, batch page-grouping, io-engine "
    "sweep, error-bound readahead, fsync barriers per put vs writer count",
    "with models in DRAM and records on disk, lookup cost is page fetches "
    "per lookup: hit rate tracks the pool fraction, batches amortize "
    "fetches page-granularly, overlapped engines collapse per-page "
    "blocking waits into one wait per batch, the model's error bound "
    "doubles as a readahead span, and every put pays one fsync barrier "
    "whatever the writer count",
    RunDiskTier)

}  // namespace
}  // namespace pieces::bench
