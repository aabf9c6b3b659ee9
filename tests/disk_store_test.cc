// DiskStore integration tests: the end-to-end KV path over the paged
// file + buffer pool, a crash sweep under concurrent writers (run on
// both media), and a three-way differential (DiskStore vs ViperStore vs
// std::map) on a dataset far larger than the pool. The single-writer
// crash sweeps run on both media in crash_sweep_test.cc.
#include "store/disk_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/registry.h"
#include "replication/replication_log.h"
#include "store/viper.h"
#include "differential_harness.h"
#include "workload/datasets.h"

namespace pieces {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/pieces_" + tag + "_" +
         std::to_string(::getpid()) + ".pages";
}

DiskStore::Config SmallConfig(const char* tag, size_t pool_pages = 64) {
  DiskStore::Config cfg;
  cfg.value_size = 200;
  cfg.page_size = 4096;
  cfg.pool_pages = pool_pages;
  cfg.file_capacity = size_t{256} << 20;
  cfg.path = TempPath(tag);
  return cfg;
}

void ExpectSynthetic(const StoreBackend& store, Key key, const char* ctx) {
  std::vector<uint8_t> got(store.value_size());
  ASSERT_TRUE(store.Get(key, got.data())) << ctx << " key=" << key;
  std::vector<uint8_t> want(store.value_size());
  FillSyntheticRecordValue(key, want.data(), want.size());
  EXPECT_EQ(got, want) << ctx << " key=" << key;
}

class DiskStoreTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DiskStoreTest, BulkLoadGetRoundtrip) {
  DiskStore store(MakeIndex(GetParam()), SmallConfig("roundtrip"));
  ASSERT_TRUE(store.ok()) << store.error();
  std::vector<Key> keys = MakeUniformKeys(5000, 3);
  ASSERT_TRUE(store.BulkLoad(keys));
  EXPECT_EQ(store.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 7) {
    ExpectSynthetic(store, keys[i], GetParam().c_str());
  }
  std::vector<uint8_t> buf(store.value_size());
  EXPECT_FALSE(store.Get(keys[0] + 1, buf.data()));
}

TEST_P(DiskStoreTest, PutUpdatesAndInserts) {
  DiskStore store(MakeIndex(GetParam()), SmallConfig("puts"));
  ASSERT_TRUE(store.ok()) << store.error();
  std::vector<Key> keys = MakeUniformKeys(2000, 5);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(keys, 4, &load, &inserts);
  ASSERT_TRUE(store.BulkLoad(load));
  for (size_t i = 0; i < inserts.size(); i += 3) {
    ASSERT_TRUE(store.PutSynthetic(inserts[i]));
    ExpectSynthetic(store, inserts[i], "insert");
  }
  // Updates: overwrite with a distinct payload, read it back.
  std::vector<uint8_t> value(store.value_size(), 0xEE);
  ASSERT_TRUE(store.Put(load[0], value.data()));
  std::vector<uint8_t> got(store.value_size());
  ASSERT_TRUE(store.Get(load[0], got.data()));
  EXPECT_EQ(got, value);
}

TEST_P(DiskStoreTest, ScanMatchesSortedKeys) {
  DiskStore store(MakeIndex(GetParam()), SmallConfig("scan"));
  ASSERT_TRUE(store.ok()) << store.error();
  std::vector<Key> keys = MakeUniformKeys(3000, 7);
  ASSERT_TRUE(store.BulkLoad(keys));
  for (size_t start : {size_t{0}, keys.size() / 2, keys.size() - 10}) {
    std::vector<Key> out;
    size_t got = store.Scan(keys[start], 50, &out);
    size_t want = std::min<size_t>(50, keys.size() - start);
    ASSERT_EQ(got, want);
    for (size_t i = 0; i < want; ++i) EXPECT_EQ(out[i], keys[start + i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Indexes, DiskStoreTest,
                         ::testing::Values("BTree", "PGM", "ALEX",
                                           "XIndex"));

TEST(DiskStoreBasicsTest, UnwritablePathReportsError) {
  DiskStore::Config cfg = SmallConfig("unused");
  cfg.path = "/nonexistent_dir_zzz/store.pages";
  DiskStore store(MakeIndex("BTree"), cfg);
  EXPECT_FALSE(store.ok());
  EXPECT_FALSE(store.error().empty());
}

TEST(DiskStoreBasicsTest, PageTooSmallReportsError) {
  DiskStore::Config cfg = SmallConfig("tiny");
  cfg.page_size = 64;  // smaller than one 224-byte record
  DiskStore store(MakeIndex("BTree"), cfg);
  EXPECT_FALSE(store.ok());
  EXPECT_NE(store.error().find("page_size"), std::string::npos);
}

TEST(DiskStoreBasicsTest, CapacityExhaustionFailsPut) {
  DiskStore::Config cfg = SmallConfig("cap", 4);
  cfg.file_capacity = 2 * cfg.page_size;  // two pages total
  DiskStore store(MakeIndex("BTree"), cfg);
  ASSERT_TRUE(store.ok());
  const size_t slots = store.slots_per_page();
  bool saw_failure = false;
  for (size_t i = 0; i < 3 * slots && !saw_failure; ++i) {
    saw_failure = !store.PutSynthetic(1000 + i);
  }
  EXPECT_TRUE(saw_failure);
}

// GetBatch must charge one pool fetch per *distinct page*, not per key:
// with a thrashed pool (2 frames) and batches interleaving two pages, the
// grouped path fetches each page once per batch while single-key Gets
// fetch on nearly every access.
TEST(DiskStoreBasicsTest, GetBatchGroupsFetchesByPage) {
  DiskStore store(MakeIndex("BTree"), SmallConfig("group", 2));
  ASSERT_TRUE(store.ok());
  std::vector<Key> keys;
  const size_t slots = store.slots_per_page();
  for (size_t i = 0; i < slots * 8; ++i) keys.push_back(1000 + i);
  ASSERT_TRUE(store.BulkLoad(keys));
  // Probes alternate page 0 / page 4 so a 2-frame pool with any other
  // traffic would thrash; one batch touches exactly 2 distinct pages.
  std::vector<Key> probes;
  for (size_t i = 0; i < 32; ++i) {
    probes.push_back(keys[(i % 2) * 4 * slots + i / 2]);
  }
  std::vector<uint8_t> value(store.value_size());
  std::vector<uint8_t*> outs(probes.size(), value.data());
  std::unique_ptr<bool[]> found(new bool[probes.size()]);
  StoreIoStats s0 = store.IoStats();
  size_t hits = store.GetBatch(std::span<const Key>(probes), outs.data(),
                               found.get());
  StoreIoStats s1 = store.IoStats();
  EXPECT_EQ(hits, probes.size());
  EXPECT_LE(s1.pool_misses - s0.pool_misses, 2u);
  // Result parity with single-key Gets.
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_TRUE(found[i]) << i;
  }
  for (Key k : probes) ExpectSynthetic(store, k, "batch-parity");
}

TEST(DiskStoreRecoveryTest, CleanRecoverIsIdempotent) {
  DiskStore store(MakeIndex("BTree"), SmallConfig("idem"));
  ASSERT_TRUE(store.ok());
  std::vector<Key> keys = MakeUniformKeys(2000, 9);
  ASSERT_TRUE(store.BulkLoad(keys));
  ASSERT_TRUE(store.PutSynthetic(keys[0] + 1));
  const size_t size_before = store.size();
  store.Recover();
  EXPECT_EQ(store.size(), size_before);
  store.Recover();
  EXPECT_EQ(store.size(), size_before);
  for (size_t i = 0; i < keys.size(); i += 13) {
    ExpectSynthetic(store, keys[i], "post-recover");
  }
  ExpectSynthetic(store, keys[0] + 1, "post-recover-insert");
}

TEST(DiskStoreRecoveryTest, QuiescentCrashKeepsAckedDropsNothingElse) {
  DiskStore store(MakeIndex("BTree"), SmallConfig("qcrash"));
  ASSERT_TRUE(store.ok());
  std::vector<Key> keys = MakeUniformKeys(1000, 11);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(keys, 4, &load, &inserts);
  ASSERT_TRUE(store.BulkLoad(load));
  std::vector<Key> acked;
  for (size_t i = 0; i < 50; ++i) {
    if (store.PutSynthetic(inserts[i])) acked.push_back(inserts[i]);
  }
  store.Crash();
  std::vector<uint8_t> buf(store.value_size());
  EXPECT_THROW(store.Get(load[0], buf.data()), SimulatedCrash);
  EXPECT_THROW(store.PutSynthetic(inserts[60]), SimulatedCrash);
  store.Recover();
  EXPECT_EQ(store.size(), load.size() + acked.size());
  for (Key k : acked) ExpectSynthetic(store, k, "acked-after-crash");
  for (size_t i = 0; i < load.size(); i += 17) {
    ExpectSynthetic(store, load[i], "loaded-after-crash");
  }
}

// Three-way differential on a dataset ~25x the pool: DiskStore and
// ViperStore run the same seeded op stream (GenerateDiffOps) and every
// Get/Scan result — full payload bytes — must match each other and the
// std::map oracle, across interleaved puts and crash/recover cycles.
TEST(DiskStoreDifferentialTest, VsViperVsMapLargerThanPool) {
  DiffConfig cfg;
  cfg.seed = 7;
  cfg.dataset = "ycsb";
  cfg.load_keys = 20000;
  cfg.ops = 15000;
  cfg.recover_every = 4000;
  std::vector<Key> load, inserts;
  MakeDiffKeys(cfg, &load, &inserts);
  std::vector<DiffOp> ops = GenerateDiffOps(cfg, load, inserts);

  DiskStore::Config dcfg = SmallConfig("diff", 0);
  dcfg.value_size = 24;
  // ~25x more data pages than pool frames.
  const size_t record = sizeof(Key) + dcfg.value_size + 16;
  const size_t data_pages =
      (cfg.load_keys + cfg.ops) / (dcfg.page_size / record) + 1;
  dcfg.pool_pages = std::max<size_t>(2, data_pages / 25);
  DiskStore disk(MakeIndex("BTree"), dcfg);
  ASSERT_TRUE(disk.ok()) << disk.error();

  ViperStore::Config vcfg;
  vcfg.value_size = 24;
  vcfg.pmem_capacity = size_t{256} << 20;
  ViperStore viper(MakeIndex("BTree"), vcfg);

  auto fill_from = [&](Key key, Value tag, uint8_t* buf, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<uint8_t>(((key ^ tag) >> (8 * (i % 8))) ^ i);
    }
  };
  std::map<Key, Value> oracle;
  ASSERT_TRUE(disk.BulkLoad(load));
  ASSERT_TRUE(viper.BulkLoad(load));
  for (Key k : load) oracle[k] = 0;  // tag 0 == synthetic value

  std::vector<uint8_t> want(24), got_d(24), got_v(24), value(24);
  size_t executed = 0;
  for (const DiffOp& op : ops) {
    switch (op.kind) {
      case DiffOp::kPut: {
        fill_from(op.key, op.value, value.data(), value.size());
        ASSERT_TRUE(disk.Put(op.key, value.data()));
        ASSERT_TRUE(viper.Put(op.key, value.data()));
        oracle[op.key] = op.value;
        break;
      }
      case DiffOp::kGet: {
        bool fd = disk.Get(op.key, got_d.data());
        bool fv = viper.Get(op.key, got_v.data());
        auto it = oracle.find(op.key);
        ASSERT_EQ(fd, it != oracle.end()) << "op " << executed;
        ASSERT_EQ(fv, it != oracle.end()) << "op " << executed;
        if (fd) {
          if (it->second == 0) {
            FillSyntheticRecordValue(op.key, want.data(), want.size());
          } else {
            fill_from(op.key, it->second, want.data(), want.size());
          }
          ASSERT_EQ(got_d, want) << "disk payload, op " << executed;
          ASSERT_EQ(got_v, want) << "viper payload, op " << executed;
        }
        break;
      }
      case DiffOp::kScan: {
        std::vector<Key> kd, kv;
        disk.Scan(op.key, op.scan_len, &kd);
        viper.Scan(op.key, op.scan_len, &kv);
        ASSERT_EQ(kd, kv) << "op " << executed;
        auto it = oracle.lower_bound(op.key);
        for (size_t i = 0; i < kd.size(); ++i, ++it) {
          ASSERT_NE(it, oracle.end());
          ASSERT_EQ(kd[i], it->first) << "op " << executed;
        }
        break;
      }
      case DiffOp::kRecover: {
        disk.Crash();
        viper.Crash();
        disk.Recover();
        viper.Recover();
        ASSERT_EQ(disk.size(), oracle.size());
        ASSERT_EQ(viper.size(), oracle.size());
        break;
      }
    }
    ++executed;
  }
  EXPECT_EQ(executed, ops.size());
  EXPECT_GT(disk.IoStats().pool_evictions, 0u);  // pool really overflowed
}

// Concurrent readers against a serialized writer: values are never torn
// and the pool's pin discipline holds under contention (TSan hunts the
// races, the stamps catch torn reads).
TEST(DiskStoreConcurrencyTest, ConcurrentGetsDuringPuts) {
  DiskStore store(MakeIndex("OLC-BTree"), SmallConfig("conc", 16));
  ASSERT_TRUE(store.ok());
  std::vector<Key> keys = MakeUniformKeys(4000, 17);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(keys, 4, &load, &inserts);
  inserts.resize(200);  // 1 fsync barrier per put bounds the test's time
  ASSERT_TRUE(store.BulkLoad(load));
  std::atomic<bool> stop{false};
  std::atomic<size_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + t);
      std::vector<uint8_t> got(store.value_size());
      std::vector<uint8_t> want(store.value_size());
      while (!stop.load(std::memory_order_relaxed)) {
        Key k = load[rng.NextUnder(load.size())];
        if (store.Get(k, got.data())) {
          FillSyntheticRecordValue(k, want.data(), want.size());
          if (got != want) torn.fetch_add(1);
        }
      }
    });
  }
  for (size_t i = 0; i < inserts.size(); ++i) {
    ASSERT_TRUE(store.PutSynthetic(inserts[i]));
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0u);
  for (Key k : inserts) ExpectSynthetic(store, k, "post-concurrency");
}

// ---- Error-bound readahead (PR 9) -------------------------------------

// A sequential key sweep with readahead on: the model's predicted span
// pulls neighbor pages in one burst, so later lookups land in frames the
// readahead staged — hits counted, bytes still exact.
TEST(DiskStoreReadaheadTest, SequentialSweepHitsReadaheadPages) {
  DiskStore::Config cfg = SmallConfig("readahead", 64);
  cfg.readahead_max_pages = 8;
  DiskStore store(MakeIndex("PGM"), cfg);
  ASSERT_TRUE(store.ok()) << store.error();
  std::vector<Key> keys = MakeUniformKeys(5000, 17);
  ASSERT_TRUE(store.BulkLoad(keys));
  // Cold sweep in key order; reset nothing — the bulk-load pool state is
  // tiny (64 frames vs ~280 data pages), so most pages start cold.
  for (size_t i = 0; i < keys.size(); i += 3) {
    ExpectSynthetic(store, keys[i], "readahead-sweep");
  }
  const StoreIoStats stats = store.IoStats();
  EXPECT_GT(stats.readahead_pages, 0u);
  EXPECT_GT(stats.readahead_hits, 0u);
  // Readahead converts would-be demand misses into hits: far fewer
  // misses than lookups.
  EXPECT_LT(stats.pool_misses, keys.size() / 3 / 2);
}

// ---- Concurrent writers -----------------------------------------------

// Crash sweep with 4 concurrent writers, whose barriers interleave: arm
// every barrier the stream is guaranteed to cross, at every tear shape.
// Oracle: every acked put survives with the right payload; anything else
// present must be an attempted key with a fully-valid record (CRC kills
// torn ones); loaded keys never disappear. `make_store` builds a fresh
// store per sweep point.
void SweepConcurrentWriters(
    const std::function<std::unique_ptr<RecordCore>()>& make_store) {
  std::vector<Key> keys = MakeUniformKeys(600, 43);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(keys, 3, &load, &inserts);
  constexpr size_t kThreads = 4;
  constexpr size_t kPutsPerThread = 8;
  ASSERT_GE(inserts.size(), kThreads * kPutsPerThread);
  // 32 puts at one barrier each: 32 barriers are crossed however the
  // writers interleave, so barriers 1..16 always fire.
  constexpr uint64_t kBarriers = 16;
  const std::vector<int64_t> tears = {FaultDevice::kNoTear, 0, 8, 100,
                                      4096, 8192};
  std::sort(load.begin(), load.end());
  for (uint64_t barrier = 1; barrier <= kBarriers; ++barrier) {
    for (int64_t tear : tears) {
      std::unique_ptr<RecordCore> store = make_store();
      ASSERT_TRUE(store->BulkLoad(load));
      store->fault().FailAfterBarriers(barrier, tear);
      std::vector<std::vector<Key>> acked(kThreads);
      std::vector<std::thread> writers;
      for (size_t t = 0; t < kThreads; ++t) {
        writers.emplace_back([&, t] {
          for (size_t i = 0; i < kPutsPerThread; ++i) {
            Key key = inserts[t * kPutsPerThread + i];
            try {
              if (store->PutSynthetic(key)) acked[t].push_back(key);
            } catch (const SimulatedCrash&) {
              return;  // power is gone; this writer is dead
            }
          }
        });
      }
      for (auto& th : writers) th.join();
      ASSERT_TRUE(store->fault().crashed())
          << "barrier " << barrier << " never fired";
      store->Recover();
      const std::string ctx = "barrier=" + std::to_string(barrier) +
                              " tear=" + std::to_string(tear);
      for (const auto& thread_acked : acked) {
        for (Key k : thread_acked) ExpectSynthetic(*store, k, ctx.c_str());
      }
      for (Key k : load) {
        std::vector<uint8_t> buf(store->value_size());
        ASSERT_TRUE(store->Get(k, buf.data())) << ctx << " lost " << k;
      }
      // Enumerate everything the recovered store holds: each key must be
      // a loaded or attempted one, and must read back exactly (recovery
      // trusts only whole CRC-valid records).
      std::vector<Key> present;
      store->Scan(0, load.size() + inserts.size() + 16, &present);
      for (Key k : present) {
        const bool loaded = std::binary_search(load.begin(), load.end(), k);
        bool attempted = false;
        for (size_t t = 0; t < kThreads && !attempted; ++t) {
          for (size_t i = 0; i < kPutsPerThread; ++i) {
            if (inserts[t * kPutsPerThread + i] == k) {
              attempted = true;
              break;
            }
          }
        }
        ASSERT_TRUE(loaded || attempted) << ctx << " phantom key " << k;
        ExpectSynthetic(*store, k, (ctx + " present-key").c_str());
      }
    }
  }
}

// DiskStore's writers release write_mu_ while their fsyncs are in flight.
TEST(DiskStoreCrashSweepTest, ConcurrentWritersEveryBarrierEveryTear) {
  SweepConcurrentWriters([] {
    auto store = std::make_unique<DiskStore>(MakeIndex("BTree"),
                                             SmallConfig("cwsweep", 16));
    EXPECT_TRUE(store->ok()) << store->error();
    return store;
  });
}

// ViperStore's writers run fully in parallel on a concurrent-writes
// index; the injected write latency keeps other writers' persists in
// flight while the armed one crashes, and none of them may report its
// rolled-back record durable.
TEST(ViperStoreCrashSweepTest, ConcurrentWritersEveryBarrierEveryTear) {
  SweepConcurrentWriters([] {
    ViperStore::Config cfg;
    cfg.value_size = 200;
    cfg.pmem_capacity = size_t{16} << 20;
    cfg.write_latency_ns = 100'000;
    auto store = std::make_unique<ViperStore>(MakeIndex("ALEX"), cfg);
    EXPECT_TRUE(store->index().SupportsConcurrentWrites());
    return store;
  });
}

// Each put is committed and tapped on its own writer's thread, so right
// after Put returns that writer's ThisThreadWatermark() covers its own
// record — the position a semi-sync ack awaits on that thread. A commit
// that taps a record on another writer's thread leaves the owner's
// watermark short of it, and its ack can then precede the replica.
TEST(DiskStoreConcurrencyTest, EachPutIsTappedOnItsOwnThread) {
  std::vector<Key> keys = MakeUniformKeys(2400, 51);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(keys, 3, &load, &inserts);
  constexpr size_t kThreads = 4;
  constexpr size_t kPutsPerThread = 200;
  ASSERT_GE(inserts.size(), kThreads * kPutsPerThread);
  DiskStore store(MakeIndex("ALEX"), SmallConfig("owntap"));
  ASSERT_TRUE(store.ok()) << store.error();
  ASSERT_TRUE(store.BulkLoad(load));
  auto log = std::make_shared<replication::ReplicationLog>();
  store.SetCommitTap(log);
  std::atomic<size_t> short_marks{0};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::vector<replication::LogRecord> records;
      for (size_t i = 0; i < kPutsPerThread; ++i) {
        const Key key = inserts[t * kPutsPerThread + i];
        ASSERT_TRUE(store.PutSynthetic(key));
        const uint64_t mark = log->ThisThreadWatermark();
        // Every key is put once and nothing truncates the log, so the
        // record's log index is its position in a read from 0.
        const size_t n = log->Read(0, log->tail(), &records);
        const auto own = std::find_if(
            records.begin(), records.begin() + n,
            [key](const replication::LogRecord& r) { return r.key == key; });
        ASSERT_NE(own, records.begin() + n) << "untapped put of " << key;
        if (static_cast<uint64_t>(own - records.begin()) >= mark) {
          short_marks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(short_marks.load(), 0u)
      << "puts whose own watermark missed their record, of "
      << kThreads * kPutsPerThread;
}

// ---- Reader latency vs fsync barriers (PR 9, satellite 1) -------------

// Regression for the shrunk writer critical section: a reader pinning an
// already-resident page must never park behind a writer's fsync barrier.
// With a 20ms injected sync delay a single put spends >= 20ms in its
// barrier; the reader must stream hundreds of gets through that window
// (the pre-fix pool held its mutex across the sync, freezing readers).
TEST(DiskStoreConcurrencyTest, ResidentReadsDoNotWaitOnSyncBarriers) {
  DiskStore store(MakeIndex("BTree"), SmallConfig("slowsync"));
  ASSERT_TRUE(store.ok()) << store.error();
  std::vector<Key> keys = MakeUniformKeys(400, 9);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(keys, 4, &load, &inserts);
  ASSERT_TRUE(store.BulkLoad(load));
  ExpectSynthetic(store, load[0], "warm");  // page resident before timing
  store.mutable_pages().SetSyncDelayForTest(20000);  // 20ms per fsync
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    std::vector<uint8_t> buf(store.value_size());
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(store.Get(load[0], buf.data()));
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Let the reader spin up, then measure its progress across one put
  // (one 20ms barrier).
  while (reads.load() == 0) std::this_thread::yield();
  const uint64_t before = reads.load();
  ASSERT_TRUE(store.PutSynthetic(inserts[0]));
  const uint64_t during = reads.load() - before;
  stop.store(true);
  reader.join();
  store.mutable_pages().SetSyncDelayForTest(0);
  // >= 20ms of barrier time vs microsecond resident gets: demand real
  // streaming, with a wide margin against scheduler noise.
  EXPECT_GE(during, 10u) << "reader stalled behind the writer's fsync";
}

}  // namespace
}  // namespace pieces
