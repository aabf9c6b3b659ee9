// Live shard split/merge and multi-writer shards (src/service/router.cc):
// the partition is a versioned RCU snapshot, SplitShard migrates a
// quiesced shard's records into two replacements, and requests racing the
// swap re-route (bounded, then kRetry). The ServiceSplitTest /
// ServiceRebalanceTest / RebalancePolicyTest / ServiceMultiWriterTest
// suite names are part of the TSan CI filter.
#include "service/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "store/record_format.h"
#include "workload/datasets.h"

namespace pieces::service {
namespace {

ServiceConfig SmallConfig(size_t shards,
                          size_t queue_capacity = 1024,
                          AdmissionPolicy policy = AdmissionPolicy::kBlock) {
  ServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.queue_capacity = queue_capacity;
  cfg.admission = policy;
  cfg.store.value_size = 64;
  cfg.store.pmem_capacity = size_t{64} << 20;
  return cfg;
}

TEST(ServiceSplitTest, ManualSplitPreservesEveryRecordAndValue) {
  std::vector<Key> keys = MakeUniformKeys(8192, 41);
  KvService svc("BTree", SmallConfig(1), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  // Overwrite a slice with non-synthetic values: the migration must copy
  // stored bytes, not re-synthesize them.
  std::vector<uint8_t> marked(svc.value_size(), 0x5a);
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(svc.Put(keys[i * 3], marked.data()), RequestStatus::kOk);
  }

  const uint64_t v0 = svc.partition_version();
  ASSERT_TRUE(svc.SplitShard(0));
  EXPECT_EQ(svc.num_shards(), 2u);
  EXPECT_GT(svc.partition_version(), v0);
  EXPECT_EQ(svc.Stats().splits, 1u);

  // Both halves non-empty and the boundary separates them.
  RangePartition part = svc.partition();
  ASSERT_EQ(part.boundaries().size(), 1u);
  EXPECT_EQ(svc.TotalKeys(), keys.size());

  std::vector<uint8_t> buf(svc.value_size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(svc.Get(keys[i], buf.data()), RequestStatus::kOk) << keys[i];
    if (i < 300 && i % 3 == 0) {
      EXPECT_EQ(std::memcmp(buf.data(), marked.data(), buf.size()), 0)
          << "migration lost a stored (non-synthetic) value";
    }
  }
  // A scan spanning the new boundary sees the exact ordered key set.
  std::vector<Key> got;
  ASSERT_EQ(svc.Scan(0, keys.size(), &got), RequestStatus::kOk);
  EXPECT_EQ(got, keys);
}

TEST(ServiceSplitTest, SplitUnderLiveTrafficLosesNothing) {
  std::vector<Key> keys = MakeUniformKeys(16384, 43);
  KvService svc("BTree", SmallConfig(2), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> unexpected{0};
  std::atomic<uint64_t> retried{0};
  constexpr size_t kClients = 3;
  // Disjoint per-client insert ranges above the loaded key space.
  const Key insert_base = keys.back() + 1;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(500 + c);
      std::vector<uint8_t> buf(svc.value_size());
      Key next_insert = insert_base + c;
      while (!stop.load(std::memory_order_relaxed)) {
        if (rng.NextUnder(100) < 30) {
          RequestStatus st = svc.Put(next_insert);
          if (st == RequestStatus::kOk) {
            next_insert += kClients;
          } else if (st == RequestStatus::kRetry) {
            retried.fetch_add(1);
          } else {
            unexpected.fetch_add(1);
          }
        } else {
          Key k = keys[rng.NextUnder(keys.size())];
          RequestStatus st = svc.Get(k, buf.data());
          if (st == RequestStatus::kRetry) {
            retried.fetch_add(1);
          } else if (st != RequestStatus::kOk) {
            unexpected.fetch_add(1);
          }
        }
      }
    });
  }

  // Split both original shards (and one of the products) mid-traffic.
  ASSERT_TRUE(svc.SplitShard(0));
  ASSERT_TRUE(svc.SplitShard(2));
  ASSERT_TRUE(svc.SplitShard(1));
  stop.store(true);
  for (auto& th : clients) th.join();
  svc.Drain();

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(svc.num_shards(), 5u);
  EXPECT_EQ(svc.Stats().splits, 3u);
  // Every loaded key survived three live migrations.
  std::vector<uint8_t> buf(svc.value_size());
  for (Key k : keys) {
    ASSERT_EQ(svc.Get(k, buf.data()), RequestStatus::kOk) << k;
  }
  std::vector<Key> got;
  ASSERT_EQ(svc.Scan(0, keys.size(), &got), RequestStatus::kOk);
  EXPECT_EQ(got.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(ServiceSplitTest, MergeCollapsesAdjacentShards) {
  std::vector<Key> keys = MakeUniformKeys(4096, 47);
  KvService svc("BTree", SmallConfig(1), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  ASSERT_TRUE(svc.SplitShard(0));
  ASSERT_EQ(svc.num_shards(), 2u);
  ASSERT_TRUE(svc.MergeShards(0));
  EXPECT_EQ(svc.num_shards(), 1u);
  EXPECT_EQ(svc.Stats().merges, 1u);
  EXPECT_TRUE(svc.partition().boundaries().empty());
  EXPECT_EQ(svc.TotalKeys(), keys.size());

  std::vector<uint8_t> buf(svc.value_size());
  for (Key k : keys) {
    ASSERT_EQ(svc.Get(k, buf.data()), RequestStatus::kOk) << k;
  }
}

TEST(ServiceSplitTest, MergeOverflowRebuildsBothShardsInPlace) {
  std::vector<Key> keys = MakeUniformKeys(2048, 83);
  ServiceConfig cfg = SmallConfig(2);
  // Room for one shard's records (plus its overwrites), but not for the
  // union: a page holds slots_per_page records of key + value + header.
  const size_t page_bytes =
      ViperStore::kSlotsPerPage *
      (sizeof(Key) + cfg.store.value_size + sizeof(RecordHeader));
  const size_t shard_pages = keys.size() / 2 / ViperStore::kSlotsPerPage;
  cfg.store.pmem_capacity = page_bytes * (shard_pages * 3 / 2);
  KvService svc("BTree", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  ASSERT_EQ(svc.num_shards(), 2u);

  std::vector<uint8_t> marked(svc.value_size(), 0xa5);
  for (size_t i = 0; i < keys.size(); i += 41) {
    ASSERT_EQ(svc.Put(keys[i], marked.data()), RequestStatus::kOk);
  }
  const std::vector<Key> bounds = svc.partition().boundaries();
  const uint64_t v0 = svc.partition_version();

  EXPECT_FALSE(svc.MergeShards(0));
  EXPECT_EQ(svc.num_shards(), 2u);
  EXPECT_EQ(svc.partition().boundaries(), bounds);
  EXPECT_EQ(svc.Stats().merges, 0u);
  EXPECT_GT(svc.partition_version(), v0);

  std::vector<uint8_t> buf(svc.value_size());
  std::vector<uint8_t> want(svc.value_size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(svc.Get(keys[i], buf.data()), RequestStatus::kOk) << keys[i];
    if (i % 41 == 0) {
      want = marked;
    } else {
      FillSyntheticRecordValue(keys[i], want.data(), want.size());
    }
    EXPECT_EQ(buf, want) << "value lost at key " << keys[i];
  }
  // The rebuilt shards are live: each accepts a fresh key in its range.
  EXPECT_EQ(svc.Put(keys.front() + 1), RequestStatus::kOk);
  EXPECT_EQ(svc.Put(keys.back() + 1), RequestStatus::kOk);
  EXPECT_EQ(svc.ShardOf(keys.front() + 1), 0u);
  EXPECT_EQ(svc.ShardOf(keys.back() + 1), 1u);
}

TEST(ServiceSplitTest, SplitRejectsDegenerateTargets) {
  std::vector<Key> keys = MakeUniformKeys(1024, 53);
  KvService svc("BTree", SmallConfig(2), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  EXPECT_FALSE(svc.SplitShard(99));      // out of range
  EXPECT_FALSE(svc.MergeShards(1));      // no right neighbor
  svc.Shutdown();
  EXPECT_FALSE(svc.SplitShard(0));       // shutting down
  EXPECT_EQ(svc.Stats().splits, 0u);
}

TEST(ServiceSplitTest, CrashRecoveryAfterSplitServesMigratedRecords) {
  std::vector<Key> keys = MakeUniformKeys(4096, 59);
  KvService svc("BTree", SmallConfig(1), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  ASSERT_TRUE(svc.SplitShard(0));

  // The replacement stores' bulk-loaded records must be durable: crash
  // everything and rebuild from PMem.
  std::vector<uint64_t> rebuild = svc.CrashAndRecover();
  EXPECT_EQ(rebuild.size(), 2u);
  std::vector<uint8_t> buf(svc.value_size());
  for (Key k : keys) {
    ASSERT_EQ(svc.Get(k, buf.data()), RequestStatus::kOk) << k;
  }
}

TEST(ServiceRebalanceTest, RebalancerSplitsHotShardAutomatically) {
  std::vector<Key> keys = MakeUniformKeys(16384, 61);
  ServiceConfig cfg = SmallConfig(1, /*queue_capacity=*/256);
  cfg.rebalance.enabled = true;
  // Synchronous clients keep at most one request each in the pipeline, so
  // the sustained depth tops out near the client count: threshold below it.
  cfg.rebalance.split_queue_depth = 4;
  cfg.rebalance.min_split_keys = 1024;
  cfg.rebalance.cooldown_ms = 5;
  cfg.rebalance.max_shards = 4;
  // Slow the store down so queue pressure actually builds.
  cfg.store.read_latency_ns = 20000;
  cfg.store.write_latency_ns = 20000;
  KvService svc("BTree", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(700 + c);
      std::vector<uint8_t> buf(svc.value_size());
      while (!stop.load(std::memory_order_relaxed)) {
        RequestStatus st =
            svc.Get(keys[rng.NextUnder(keys.size())], buf.data());
        if (st != RequestStatus::kOk && st != RequestStatus::kRetry) {
          unexpected.fetch_add(1);
        }
      }
    });
  }

  // Wait (bounded) for the pressure signal to trigger at least one split.
  const uint64_t deadline = NowNanos() + uint64_t{10} * 1000000000;
  while (svc.Stats().splits == 0 && NowNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : clients) th.join();
  svc.Drain();

  EXPECT_GE(svc.Stats().splits, 1u) << "rebalancer never split the hot shard";
  EXPECT_GT(svc.num_shards(), 1u);
  EXPECT_EQ(unexpected.load(), 0u);
  std::vector<uint8_t> buf(svc.value_size());
  for (size_t i = 0; i < keys.size(); i += 7) {
    ASSERT_EQ(svc.Get(keys[i], buf.data()), RequestStatus::kOk) << keys[i];
  }
}

// The rebalancer's pure policy, table-tested: no threads, no sleeps.
struct PolicyCase {
  const char* name;
  std::vector<double> depths;
  std::vector<size_t> keys;
  RebalanceConfig config;
  size_t queue_capacity;
  RebalanceAction::Kind kind;
  size_t shard;
};

RebalanceConfig Policy(size_t split_queue_depth, size_t min_split_keys,
                       size_t max_shards) {
  RebalanceConfig c;
  c.split_queue_depth = split_queue_depth;
  c.min_split_keys = min_split_keys;
  c.max_shards = max_shards;
  return c;
}

TEST(RebalancePolicyTest, ChoosesByTable) {
  using Kind = RebalanceAction::Kind;
  const std::vector<PolicyCase> cases = {
      {"hottest above threshold splits", {2, 9, 12, 3},
       {5000, 5000, 5000, 5000}, Policy(8, 4096, 64), 1024, Kind::kSplit,
       2},
      {"first of tied hottest splits", {12, 12}, {5000, 5000},
       Policy(8, 4096, 64), 1024, Kind::kSplit, 0},
      {"threshold reached exactly splits", {8}, {5000},
       Policy(8, 4096, 64), 1024, Kind::kSplit, 0},
      {"below threshold does not split", {7.9}, {5000},
       Policy(8, 4096, 64), 1024, Kind::kNone, 0},
      {"under min_split_keys does not split", {2, 12}, {5000, 4095},
       Policy(8, 4096, 64), 1024, Kind::kNone, 0},
      {"nothing splits at max_shards", {12, 12}, {5000, 5000},
       Policy(8, 4096, 2), 1024, Kind::kNone, 0},
      {"idle adjacent shards take no action", {0, 0}, {1, 1},
       Policy(8, 4096, 64), 1024, Kind::kNone, 0},
      {"a single shard never merges", {0}, {1}, Policy(8, 4096, 64), 1024,
       Kind::kNone, 0},
      {"split_queue_depth = 0 splits at 3/4 of capacity", {300}, {5000},
       Policy(0, 4096, 64), 400, Kind::kSplit, 0},
      {"split_queue_depth = 0 holds below 3/4 of capacity", {299}, {5000},
       Policy(0, 4096, 64), 400, Kind::kNone, 0},
      {"split_queue_depth = 0 is busy at 3/16 of capacity", {75, 74},
       {1, 1}, Policy(0, 4096, 64), 400, Kind::kNone, 0},
  };
  for (const PolicyCase& c : cases) {
    const RebalanceAction got =
        ChooseRebalanceAction(c.depths, c.keys, c.config, c.queue_capacity);
    EXPECT_EQ(got.kind, c.kind) << c.name;
    if (c.kind != Kind::kNone) {
      EXPECT_EQ(got.shard, c.shard) << c.name;
    }
  }
}

TEST(ServiceMultiWriterTest, ConcurrentIndexGetsMultipleWriters) {
  std::vector<Key> keys = MakeUniformKeys(4096, 71);
  ServiceConfig cfg = SmallConfig(2);
  cfg.writers_per_shard = 4;
  KvService alex_svc("ALEX", cfg, keys);
  for (const ShardStats& s : alex_svc.Stats().shards) {
    EXPECT_EQ(s.writers, 4u);
  }
  // A single-writer index silently ignores the knob.
  KvService btree_svc("BTree", cfg, keys);
  for (const ShardStats& s : btree_svc.Stats().shards) {
    EXPECT_EQ(s.writers, 1u);
  }
}

TEST(ServiceMultiWriterTest, MultiWriterShardsServeConcurrentClients) {
  std::vector<Key> keys = MakeUniformKeys(16384, 73);
  ServiceConfig cfg = SmallConfig(2);
  cfg.writers_per_shard = 4;
  KvService svc("ALEX", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  constexpr size_t kClients = 4;
  const Key insert_base = keys.back() + 2;
  std::atomic<uint64_t> failures{0};
  std::vector<std::vector<Key>> inserted(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(900 + c);
      std::vector<uint8_t> buf(svc.value_size());
      for (size_t i = 0; i < 3000; ++i) {
        if (i % 3 == 0) {
          Key k = insert_base + (inserted[c].size() * kClients + c);
          if (svc.Put(k) == RequestStatus::kOk) {
            inserted[c].push_back(k);
          } else {
            failures.fetch_add(1);
          }
        } else {
          Key k = keys[rng.NextUnder(keys.size())];
          if (svc.Get(k, buf.data()) != RequestStatus::kOk) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  svc.Drain();
  EXPECT_EQ(failures.load(), 0u);

  // Differential against the oracle: loaded ∪ inserted, nothing else.
  std::set<Key> oracle(keys.begin(), keys.end());
  for (const auto& ins : inserted) oracle.insert(ins.begin(), ins.end());
  EXPECT_EQ(svc.TotalKeys(), oracle.size());
  std::vector<Key> got;
  ASSERT_EQ(svc.Scan(0, oracle.size() + 10, &got), RequestStatus::kOk);
  ASSERT_EQ(got.size(), oracle.size());
  auto it = oracle.begin();
  for (Key k : got) {
    EXPECT_EQ(k, *it);
    ++it;
  }
}

TEST(ServiceMultiWriterTest, SplitOfMultiWriterShardUnderLoad) {
  std::vector<Key> keys = MakeUniformKeys(8192, 79);
  ServiceConfig cfg = SmallConfig(1);
  cfg.writers_per_shard = 2;
  KvService svc("ALEX", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> unexpected{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(1100 + c);
      std::vector<uint8_t> buf(svc.value_size());
      while (!stop.load(std::memory_order_relaxed)) {
        RequestStatus st =
            svc.Get(keys[rng.NextUnder(keys.size())], buf.data());
        if (st != RequestStatus::kOk && st != RequestStatus::kRetry) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  ASSERT_TRUE(svc.SplitShard(0));
  stop.store(true);
  for (auto& th : clients) th.join();
  svc.Drain();
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(svc.num_shards(), 2u);
  for (const ShardStats& s : svc.Stats().shards) {
    EXPECT_EQ(s.writers, 2u);
  }
}

}  // namespace
}  // namespace pieces::service
