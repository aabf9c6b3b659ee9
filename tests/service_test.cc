// Sharded KV service (src/service/): CDF-balanced range partitioning,
// request routing, cross-shard scans, admission control and graceful
// shutdown. The ServiceTest suite name is part of the TSan CI filter —
// several tests here exercise the worker threads concurrently.
#include "service/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <vector>

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

// Submits `req` and blocks until its completion fires (the sync API only
// covers Get/Put/Scan; this covers arbitrary request types).
RequestStatus DoSync(KvService* svc, Request req) {
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  RequestStatus out = RequestStatus::kOk;
  req.done = [&](RequestStatus st) {
    // Notify under the lock: the waiter owns the stack state and may
    // destroy it as soon as it can reacquire the mutex.
    std::lock_guard<std::mutex> lock(m);
    out = st;
    fired = true;
    cv.notify_one();
  };
  svc->Submit(std::move(req));
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return fired; });
  return out;
}

TEST(RangePartitionTest, CdfBalancedOnSkewedSample) {
  // 90% of the mass in a dense cluster near 0, 10% spread across a huge
  // sparse tail: equal-width would dump ~90% of keys on shard 0; the
  // equal-mass quantile split balances them.
  std::vector<Key> sample;
  for (Key i = 0; i < 900; ++i) sample.push_back(i);
  for (Key i = 0; i < 100; ++i) {
    sample.push_back(Key{1} << 40 | (i << 20));
  }
  RangePartition part(4, sample);
  std::vector<size_t> per_shard(4, 0);
  for (Key k : sample) ++per_shard[part.ShardOf(k)];
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_GE(per_shard[s], 240u) << "shard " << s;
    EXPECT_LE(per_shard[s], 260u) << "shard " << s;
  }
  // Boundaries are strictly increasing.
  for (size_t i = 1; i < part.boundaries().size(); ++i) {
    EXPECT_LT(part.boundaries()[i - 1], part.boundaries()[i]);
  }
}

TEST(RangePartitionTest, BoundaryKeyBelongsToRightShard) {
  std::vector<Key> sample;
  for (Key i = 0; i < 100; ++i) sample.push_back(i);
  RangePartition part(4, sample);
  ASSERT_EQ(part.boundaries().size(), 3u);
  EXPECT_EQ(part.boundaries(), (std::vector<Key>{25, 50, 75}));
  EXPECT_EQ(part.ShardOf(0), 0u);
  EXPECT_EQ(part.ShardOf(24), 0u);
  EXPECT_EQ(part.ShardOf(25), 1u);  // Boundary key → shard on its right.
  EXPECT_EQ(part.ShardOf(49), 1u);
  EXPECT_EQ(part.ShardOf(50), 2u);
  EXPECT_EQ(part.ShardOf(75), 3u);
  EXPECT_EQ(part.ShardOf(std::numeric_limits<Key>::max()), 3u);
  EXPECT_EQ(part.LowerBound(0), 0u);
  EXPECT_EQ(part.LowerBound(1), 25u);
  EXPECT_EQ(part.LowerBound(4), std::numeric_limits<Key>::max());
}

TEST(RangePartitionTest, EqualWidthFallbackOnTinySample) {
  RangePartition part(8, {1, 2, 3});
  ASSERT_EQ(part.boundaries().size(), 7u);
  const Key step = std::numeric_limits<Key>::max() / 8;
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(part.boundaries()[i], step * (i + 1));
  }
  EXPECT_EQ(part.ShardOf(0), 0u);
  EXPECT_EQ(part.ShardOf(std::numeric_limits<Key>::max()), 7u);
}

TEST(RangePartitionTest, DuplicateHeavySampleStaysStrictlyIncreasing) {
  // A sample dominated by one key cannot be split by mass; boundaries
  // must still come out strictly increasing (nudged past the duplicate).
  std::vector<Key> sample(1000, 42);
  sample.push_back(7);
  sample.push_back(1'000'000);
  RangePartition part(4, sample);
  for (size_t i = 1; i < part.boundaries().size(); ++i) {
    EXPECT_LT(part.boundaries()[i - 1], part.boundaries()[i]);
  }
  // Every key still maps to a valid shard.
  for (Key k : {Key{0}, Key{7}, Key{42}, Key{1'000'000}}) {
    EXPECT_LT(part.ShardOf(k), 4u);
  }
}

TEST(RangePartitionTest, AllDuplicateSampleShrinksEffectiveShardCount) {
  // Every sampled key identical and equal to Key max: the nudge runs out
  // of domain immediately, so only one boundary survives. The effective
  // shard count must follow the boundary list — the old code kept
  // num_shards at 4, leaving two trailing shards owning empty ranges
  // while the service still spawned workers and fanned scans out to them.
  std::vector<Key> sample(1000, std::numeric_limits<Key>::max());
  RangePartition part(4, sample);
  EXPECT_EQ(part.num_shards(), part.boundaries().size() + 1);
  EXPECT_EQ(part.num_shards(), 2u);
  EXPECT_EQ(part.ShardOf(0), 0u);
  EXPECT_EQ(part.ShardOf(std::numeric_limits<Key>::max()),
            part.num_shards() - 1);

  // All-duplicates in the middle of the domain: nudging disambiguates
  // every boundary, so the full shard count survives.
  std::vector<Key> mid(1000, 42);
  RangePartition part_mid(4, mid);
  EXPECT_EQ(part_mid.num_shards(), 4u);
  ASSERT_EQ(part_mid.boundaries().size(), 3u);
  for (size_t i = 1; i < part_mid.boundaries().size(); ++i) {
    EXPECT_LT(part_mid.boundaries()[i - 1], part_mid.boundaries()[i]);
  }

  // The service must agree with the partition, not the requested count:
  // no dead shards, and requests route within [0, num_shards).
  KvService svc("BTree", SmallConfig(4), sample);
  EXPECT_EQ(svc.num_shards(), 2u);
  std::vector<Key> load = {1, 2, 3, std::numeric_limits<Key>::max() - 1};
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  std::vector<uint8_t> buf(svc.value_size());
  for (Key k : load) {
    EXPECT_EQ(svc.Get(k, buf.data()), RequestStatus::kOk) << k;
  }
  std::vector<Key> got;
  EXPECT_EQ(svc.Scan(0, load.size(), &got), RequestStatus::kOk);
  EXPECT_EQ(got, load);
}

TEST(RangePartitionTest, FirstBoundaryZeroIsNudged) {
  // A sample whose first quantile is 0 used to produce boundaries
  // starting at 0 (the first boundary skipped the nudge), making shard 0
  // own the empty range [0, 0). Key 0 must stay in shard 0 and the
  // boundary must move to 1.
  std::vector<Key> sample(500, 0);
  for (Key i = 0; i < 500; ++i) sample.push_back(1000 + i);
  RangePartition part(4, sample);
  ASSERT_FALSE(part.boundaries().empty());
  EXPECT_GE(part.boundaries()[0], 1u);
  EXPECT_EQ(part.ShardOf(0), 0u);
  for (size_t i = 1; i < part.boundaries().size(); ++i) {
    EXPECT_LT(part.boundaries()[i - 1], part.boundaries()[i]);
  }
  EXPECT_EQ(part.num_shards(), part.boundaries().size() + 1);
}

TEST(ServiceTest, OversizedScanCountReturnsInvalid) {
  // Request carries scan_len as uint32_t. A count above that used to be
  // silently clamped, returning fewer keys than asked with status kOk.
  std::vector<Key> keys = MakeUniformKeys(512, 21);
  KvService svc("BTree", SmallConfig(2), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();
  std::vector<Key> got;
  const size_t oversized =
      static_cast<size_t>(std::numeric_limits<uint32_t>::max()) + 1;
  EXPECT_EQ(svc.Scan(0, oversized, &got), RequestStatus::kInvalid);
  EXPECT_TRUE(got.empty());
  // The max representable count is still served.
  EXPECT_EQ(svc.Scan(0, keys.size(), &got), RequestStatus::kOk);
  EXPECT_EQ(got.size(), keys.size());
}

TEST(ServiceTest, ScanSpanningThreeShardsReturnsExactCount) {
  std::vector<Key> keys = MakeUniformKeys(8192, 23);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  // Start just inside shard 0 and ask for enough keys to cross at least
  // two boundaries (CDF-balanced partition: each shard holds ~1/4).
  const Key from = keys[100];
  const size_t count = keys.size() / 2 + keys.size() / 8;  // ~2.5 shards
  std::vector<Key> got;
  ASSERT_EQ(svc.Scan(from, count, &got), RequestStatus::kOk);
  EXPECT_EQ(got.size(), count);  // exactly `count`, not a clamp artifact
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_GE(svc.ShardOf(got.back()) - svc.ShardOf(got.front()), 2u)
      << "scan did not span >= 3 shards";
  // Against the oracle: the `count` smallest loaded keys >= from.
  auto begin = std::lower_bound(keys.begin(), keys.end(), from);
  std::vector<Key> oracle(begin, begin + static_cast<ptrdiff_t>(count));
  EXPECT_EQ(got, oracle);
}

TEST(ServiceMaintenanceTest, BackgroundRetrainingKeepsServiceCorrect) {
  // End-to-end wiring: maintenance enabled through ServiceConfig, an
  // index that implements MaintenanceHook (XIndex), sustained inserts
  // driving drift, and the maintainer publishing retrains while the shard
  // workers serve — ShardStats must surface the background counters.
  std::vector<Key> keys = MakeUniformKeys(16384, 29);
  ServiceConfig cfg = SmallConfig(2);
  cfg.store.pmem_capacity = size_t{256} << 20;
  cfg.maintenance.enabled = true;
  KvService svc("XIndex", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::vector<Request> batch;
  for (Key i = 0; i < 20000; ++i) {
    Request req;
    req.type = OpType::kInsert;
    req.key = keys[i % keys.size()] + 1 + i;
    batch.push_back(std::move(req));
    if (batch.size() == 256) {
      svc.SubmitBatch(std::move(batch));
      batch.clear();
    }
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();

  // Reads stay correct with retrains in flight.
  std::vector<uint8_t> got(svc.value_size());
  std::vector<uint8_t> expected(svc.value_size());
  for (size_t i = 0; i < keys.size(); i += 511) {
    ASSERT_EQ(svc.Get(keys[i], got.data()), RequestStatus::kOk) << keys[i];
    FillSyntheticRecordValue(keys[i], expected.data(), expected.size());
    EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);
  }
  ServiceStats stats = svc.Stats();
  uint64_t scans = 0, published = 0;
  for (const ShardStats& s : stats.shards) {
    scans += s.bg_scans;
    published += s.bg_published;
  }
  EXPECT_GT(scans, 0u);
  EXPECT_GT(published, 0u);
  svc.Shutdown();

  // Maintenance requested on an index with no hook: stats stay zero and
  // the service works normally (the flag is simply ignored).
  ServiceConfig btree_cfg = SmallConfig(1);
  btree_cfg.maintenance.enabled = true;
  KvService plain("BTree", btree_cfg, keys);
  ASSERT_TRUE(plain.BulkLoad(keys));
  plain.Start();
  EXPECT_EQ(plain.Get(keys[0], got.data()), RequestStatus::kOk);
  EXPECT_EQ(plain.Stats().shards[0].bg_scans, 0u);
}

TEST(ServiceTest, SyncGetPutScanRoundTrip) {
  std::vector<Key> keys = MakeUniformKeys(2048, 11);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::vector<uint8_t> got(svc.value_size());
  std::vector<uint8_t> expected(svc.value_size());
  FillSyntheticRecordValue(keys[100], expected.data(), expected.size());
  EXPECT_EQ(svc.Get(keys[100], got.data()), RequestStatus::kOk);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);

  // A key outside the loaded set.
  Key absent = keys.back() + 12345;
  EXPECT_EQ(svc.Get(absent, got.data()), RequestStatus::kNotFound);
  EXPECT_EQ(svc.Put(absent), RequestStatus::kOk);
  FillSyntheticRecordValue(absent, expected.data(), expected.size());
  EXPECT_EQ(svc.Get(absent, got.data()), RequestStatus::kOk);
  EXPECT_EQ(std::memcmp(got.data(), expected.data(), got.size()), 0);

  // RMW on a present key succeeds, on an absent key reports kNotFound.
  Request rmw;
  rmw.type = OpType::kReadModifyWrite;
  rmw.key = keys[5];
  EXPECT_EQ(DoSync(&svc, std::move(rmw)), RequestStatus::kOk);
  Request rmw_absent;
  rmw_absent.type = OpType::kReadModifyWrite;
  rmw_absent.key = absent + 999;
  EXPECT_EQ(DoSync(&svc, std::move(rmw_absent)), RequestStatus::kNotFound);
}

TEST(ServiceTest, BulkLoadSplitsAcrossAllShards) {
  std::vector<Key> keys = MakeUniformKeys(4096, 5);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  EXPECT_EQ(svc.TotalKeys(), keys.size());
  // The partition was bootstrapped from these very keys, so every shard
  // owns roughly an equal share of them.
  ServiceStats stats = svc.Stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  for (const ShardStats& s : stats.shards) {
    EXPECT_GE(s.keys, keys.size() / 8);
    EXPECT_LE(s.keys, keys.size() / 2);
  }
}

TEST(ServiceTest, CrossShardScanMergesInKeyOrder) {
  std::vector<Key> keys = MakeUniformKeys(4096, 7);
  KvService svc("BTree", SmallConfig(4), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  // Start in shard 0 and span the whole key space: the fan-out touches
  // every shard and the merged result must match a single sorted oracle.
  const size_t want = 3000;  // > one shard's share, so the scan crosses.
  Key from = keys[10];
  std::vector<Key> got;
  EXPECT_EQ(svc.Scan(from, want, &got), RequestStatus::kOk);

  auto begin = std::lower_bound(keys.begin(), keys.end(), from);
  std::vector<Key> oracle(
      begin, begin + std::min<size_t>(want, keys.end() - begin));
  EXPECT_EQ(got, oracle);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

TEST(ServiceTest, AdmissionRejectIsDeterministicAndCounted) {
  // Queue capacity 8, no worker running: the 9th request must be
  // rejected inline — deterministically, since nothing drains the queue.
  std::vector<Key> keys = MakeUniformKeys(512, 3);
  KvService svc("BTree", SmallConfig(1, 8, AdmissionPolicy::kReject), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));

  std::atomic<int> completed{0};
  std::atomic<int> ok{0};
  for (int i = 0; i < 8; ++i) {
    Request req;
    req.type = OpType::kRead;
    req.key = keys[static_cast<size_t>(i)];
    req.done = [&](RequestStatus st) {
      completed.fetch_add(1);
      if (st == RequestStatus::kOk) ok.fetch_add(1);
    };
    svc.Submit(std::move(req));
  }
  EXPECT_EQ(completed.load(), 0);  // Queued, not yet executed.

  RequestStatus rejected_status = RequestStatus::kOk;
  Request extra;
  extra.type = OpType::kRead;
  extra.key = keys[9];
  extra.done = [&](RequestStatus st) { rejected_status = st; };
  svc.Submit(std::move(extra));
  EXPECT_EQ(rejected_status, RequestStatus::kRejected);
  EXPECT_EQ(svc.Stats().total_rejected(), 1u);

  // Once the worker runs, every accepted request completes.
  svc.Start();
  svc.Drain();
  EXPECT_EQ(completed.load(), 8);
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(svc.Stats().total_ops(), 8u);
}

TEST(ServiceTest, BlockingAdmissionCompletesEverything) {
  // Tiny queues under kBlock: producers stall instead of dropping, so
  // all 600 requests complete despite capacity 4.
  std::vector<Key> keys = MakeUniformKeys(2048, 13);
  KvService svc("BTree", SmallConfig(2, 4, AdmissionPolicy::kBlock), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  std::atomic<int> completed{0};
  std::vector<Request> batch;
  for (int i = 0; i < 600; ++i) {
    Request req;
    req.type = i % 2 == 0 ? OpType::kRead : OpType::kUpdate;
    req.key = keys[static_cast<size_t>(i) % keys.size()];
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      completed.fetch_add(1);
    };
    batch.push_back(std::move(req));
  }
  svc.SubmitBatch(std::move(batch));
  svc.Drain();
  EXPECT_EQ(completed.load(), 600);
  EXPECT_EQ(svc.Stats().total_rejected(), 0u);
}

TEST(ServiceTest, ShutdownDrainsAcceptedThenRefusesNewWork) {
  std::vector<Key> keys = MakeUniformKeys(1024, 17);
  KvService svc("BTree", SmallConfig(2, 1024), keys);
  ASSERT_TRUE(svc.BulkLoad(keys));

  // Queue work before any worker exists; graceful shutdown must still
  // execute all of it (accepted requests always complete).
  std::atomic<int> completed{0};
  std::vector<Request> batch;
  for (int i = 0; i < 100; ++i) {
    Request req;
    req.type = OpType::kRead;
    req.key = keys[static_cast<size_t>(i)];
    req.done = [&](RequestStatus st) {
      EXPECT_EQ(st, RequestStatus::kOk);
      completed.fetch_add(1);
    };
    batch.push_back(std::move(req));
  }
  svc.SubmitBatch(std::move(batch));
  svc.Start();
  svc.Shutdown();
  EXPECT_EQ(completed.load(), 100);

  // Post-shutdown submissions complete inline with kShutdown; Shutdown
  // is idempotent.
  std::vector<uint8_t> buf(svc.value_size());
  EXPECT_EQ(svc.Get(keys[0], buf.data()), RequestStatus::kShutdown);
  EXPECT_EQ(svc.Put(keys[0]), RequestStatus::kShutdown);
  svc.Shutdown();
}

TEST(ServiceTest, StoreFullSurfacesPerRequest) {
  // A store with almost no PMem headroom: bulk load fits, but the
  // out-of-place Puts soon exhaust capacity and must report kStoreFull
  // rather than dying or lying.
  std::vector<Key> keys = MakeUniformKeys(256, 19);
  ServiceConfig cfg = SmallConfig(1);
  cfg.store.pmem_capacity = keys.size() * (sizeof(Key) + 64) + 4096;
  KvService svc("BTree", cfg, keys);
  ASSERT_TRUE(svc.BulkLoad(keys));
  svc.Start();

  RequestStatus last = RequestStatus::kOk;
  for (int i = 0; i < 1000 && last == RequestStatus::kOk; ++i) {
    last = svc.Put(keys.back() + 1 + static_cast<Key>(i));
  }
  EXPECT_EQ(last, RequestStatus::kStoreFull);
}

}  // namespace
}  // namespace pieces::service
