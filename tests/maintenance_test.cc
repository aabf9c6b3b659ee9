// Background-maintenance tests: the EpochManager reclamation protocol,
// the MaintenanceHook phase contract (collect -> prepare -> publish) on
// FITing-tree and XIndex, the delta-merge and abort-on-stale paths, the
// Maintainer's token bucket, and concurrent readers with retrains in
// flight (the suite names contain "Maintenance"/"Maintain" so the TSan CI
// shard picks them up).
#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch.h"
#include "common/random.h"
#include "learned/fiting_tree.h"
#include "learned/xindex.h"
#include "service/maintainer.h"
#include "workload/datasets.h"

namespace pieces {
namespace {

using service::MaintainerStats;
using service::MaintenanceConfig;

std::vector<KeyValue> ToData(const std::vector<uint64_t>& keys) {
  std::vector<KeyValue> data;
  for (uint64_t k : keys) data.push_back({k, k + 7});
  return data;
}

// ---------------------------------------------------------------------------
// EpochManager

TEST(MaintenanceEpochTest, RetireFreesAfterQuiescence) {
  EpochManager& mgr = EpochManager::Global();
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  live.store(0);
  mgr.Retire(new Tracked());
  // No guard is pinned: a couple of reclaim passes advance the epoch far
  // enough to free the retiree.
  for (int i = 0; i < 4 && live.load() != 0; ++i) mgr.ReclaimSome();
  EXPECT_EQ(live.load(), 0);
}

TEST(MaintenanceEpochTest, PinnedGuardBlocksReclaim) {
  EpochManager& mgr = EpochManager::Global();
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  live.store(0);
  {
    EpochGuard guard;
    mgr.Retire(new Tracked());
    // The pinned guard holds the epoch back; the retiree must survive
    // any number of reclaim attempts.
    for (int i = 0; i < 4; ++i) mgr.ReclaimSome();
    EXPECT_EQ(live.load(), 1);
  }
  for (int i = 0; i < 4 && live.load() != 0; ++i) mgr.ReclaimSome();
  EXPECT_EQ(live.load(), 0);
}

TEST(MaintenanceEpochTest, NestedGuardsKeepOuterPin) {
  EpochManager& mgr = EpochManager::Global();
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  live.store(0);
  {
    EpochGuard outer;
    {
      EpochGuard inner;
      mgr.Retire(new Tracked());
    }
    // Inner guard exited, but the outer pin must still protect.
    for (int i = 0; i < 4; ++i) mgr.ReclaimSome();
    EXPECT_EQ(live.load(), 1);
  }
  for (int i = 0; i < 4 && live.load() != 0; ++i) mgr.ReclaimSome();
  EXPECT_EQ(live.load(), 0);
}

// ---------------------------------------------------------------------------
// Phase contract, per index

// Drives collect -> prepare -> publish until nothing drifts, verifying
// contents against a reference map afterwards.
void DrainDrift(MaintenanceHook* hook, double threshold) {
  for (int round = 0; round < 64; ++round) {
    std::vector<DriftCandidate> candidates;
    hook->CollectDrift(threshold, &candidates);
    if (candidates.empty()) return;
    for (const DriftCandidate& c : candidates) {
      auto plan = hook->PrepareRetrain(c.segment_id);
      if (plan == nullptr) continue;
      hook->PublishRetrain(std::move(plan));
    }
  }
}

template <typename Index>
void CheckAgainst(const Index& idx, const std::map<Key, Value>& ref) {
  for (const auto& [k, val] : ref) {
    Value v = 0;
    ASSERT_TRUE(idx.Get(k, &v)) << k;
    ASSERT_EQ(v, val) << k;
  }
}

TEST(MaintenanceHookTest, FitingTreeCollectPreparePublish) {
  FitingTree idx(FitingTree::InsertMode::kBuffer, 64, 64);
  MaintenanceHook* hook = idx.maintenance();
  ASSERT_NE(hook, nullptr);
  hook->SetMaintenanceMode(true);

  std::vector<uint64_t> keys = MakeUniformKeys(20000, 11);
  idx.BulkLoad(ToData(keys));
  std::map<Key, Value> ref;
  for (uint64_t k : keys) ref[k] = k + 7;

  // Pound one region so a few leaves drift well past the threshold while
  // the rest stay quiet.
  Rng rng(13);
  for (int i = 0; i < 4000; ++i) {
    Key k = keys[1000 + rng.NextUnder(500)] + 1 + rng.NextUnder(1000);
    if (k == ~0ull) continue;
    ASSERT_TRUE(idx.Insert(k, i));
    ref[k] = static_cast<Value>(i);
  }

  std::vector<DriftCandidate> candidates;
  hook->CollectDrift(0.5, &candidates);
  ASSERT_FALSE(candidates.empty());
  // Sorted worst-first.
  for (size_t i = 1; i < candidates.size(); ++i) {
    EXPECT_GE(candidates[i - 1].pressure, candidates[i].pressure);
  }
  const uint64_t inline_retrains_before = idx.Stats().retrain_count;
  DrainDrift(hook, 0.5);
  // Retraining happened, and through the hook (counted in stats).
  EXPECT_GT(idx.Stats().retrain_count, inline_retrains_before);
  // Drained: nothing above threshold remains.
  candidates.clear();
  hook->CollectDrift(0.5, &candidates);
  EXPECT_TRUE(candidates.empty());
  CheckAgainst(idx, ref);
}

TEST(MaintenanceHookTest, XIndexCollectPreparePublish) {
  XIndex idx(1024, 64);
  MaintenanceHook* hook = idx.maintenance();
  ASSERT_NE(hook, nullptr);
  hook->SetMaintenanceMode(true);

  std::vector<uint64_t> keys = MakeUniformKeys(20000, 17);
  idx.BulkLoad(ToData(keys));
  std::map<Key, Value> ref;
  for (uint64_t k : keys) ref[k] = k + 7;

  Rng rng(19);
  for (int i = 0; i < 4000; ++i) {
    Key k = rng.Next() & (~0ull - 1);
    ASSERT_TRUE(idx.Insert(k, i));
    ref[k] = static_cast<Value>(i);
  }

  std::vector<DriftCandidate> candidates;
  hook->CollectDrift(0.5, &candidates);
  ASSERT_FALSE(candidates.empty());
  DrainDrift(hook, 0.5);
  candidates.clear();
  hook->CollectDrift(0.5, &candidates);
  EXPECT_TRUE(candidates.empty());
  CheckAgainst(idx, ref);
}

TEST(MaintenanceHookTest, PrepareReturnsNullForVanishedSegment) {
  FitingTree fit(FitingTree::InsertMode::kBuffer);
  fit.SetMaintenanceMode(true);
  fit.BulkLoad(ToData(MakeUniformKeys(1000, 3)));
  EXPECT_EQ(fit.PrepareRetrain(1u << 20), nullptr);

  XIndex xi;
  xi.SetMaintenanceMode(true);
  xi.BulkLoad(ToData(MakeUniformKeys(1000, 3)));
  // No group has this pivot (pivot 0 exists; an absurd key routes to a
  // real group whose pivot differs).
  EXPECT_EQ(xi.PrepareRetrain(12345u), nullptr);
}

// ---------------------------------------------------------------------------
// Delta merge and abort-on-stale

TEST(MaintenanceHookTest, FitingTreePublishMergesRacingInserts) {
  FitingTree idx(FitingTree::InsertMode::kBuffer, 64, 64);
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 4000; ++i) keys.push_back(i * 100);
  idx.BulkLoad(ToData(keys));

  std::vector<DriftCandidate> candidates;
  Rng rng(23);
  // 120 inserts into the hot leaf: past the deferred retrain trigger
  // (reserve 64) but far enough under the inline hard cap (4 x 64) that
  // the 41 post-snapshot writes below cannot trip an inline retrain,
  // which would bump dir_version and (correctly) abort this publish.
  for (int i = 0; i < 120; ++i) {
    idx.Insert(keys[rng.NextUnder(100)] + 1 + rng.NextUnder(98), i);
  }
  idx.CollectDrift(0.5, &candidates);
  ASSERT_FALSE(candidates.empty());

  auto plan = idx.PrepareRetrain(candidates[0].segment_id);
  ASSERT_NE(plan, nullptr);
  // Between snapshot and publish, more writes land in the same leaf:
  // fresh keys and an update of a main-resident key. Publish must fold
  // them into the replacement (newest value wins).
  std::map<Key, Value> late;
  for (int i = 0; i < 40; ++i) {
    Key k = keys[rng.NextUnder(100)] + 1 + rng.NextUnder(98);
    ASSERT_TRUE(idx.Insert(k, 90000 + i));
    late[k] = 90000 + i;
  }
  ASSERT_TRUE(idx.Insert(keys[7], 777777));  // update, main-resident
  late[keys[7]] = 777777;

  ASSERT_TRUE(idx.PublishRetrain(std::move(plan)));
  for (const auto& [k, val] : late) {
    Value v = 0;
    ASSERT_TRUE(idx.Get(k, &v)) << k;
    EXPECT_EQ(v, val) << k;
  }
}

TEST(MaintenanceHookTest, FitingTreePublishAbortsOnStructuralChange) {
  FitingTree idx(FitingTree::InsertMode::kBuffer, 64, 32);
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 4000; ++i) keys.push_back(i * 100);
  idx.BulkLoad(ToData(keys));

  auto plan = idx.PrepareRetrain(0);
  ASSERT_NE(plan, nullptr);
  // A bulk load replaces the whole directory: the plan's snapshot no
  // longer matches any live leaf and must be rejected (its buffers are
  // freed with the plan, no leak under ASan).
  idx.BulkLoad(ToData(keys));
  EXPECT_FALSE(idx.PublishRetrain(std::move(plan)));
}

TEST(MaintenanceHookTest, XIndexPublishKeepsNewerBufferedUpdate) {
  XIndex idx(1024, 128);
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys = MakeUniformKeys(4000, 29);
  idx.BulkLoad(ToData(keys));

  // Seed buffered writes, snapshot the group, then overwrite one of the
  // buffered keys *after* the snapshot.
  ASSERT_TRUE(idx.Insert(keys[10] + 1, 111));
  std::vector<DriftCandidate> candidates;
  idx.CollectDrift(0.001, &candidates);
  ASSERT_FALSE(candidates.empty());
  // The candidate owning our key is whichever group has nonzero pressure;
  // prepare them all to be safe.
  std::vector<std::unique_ptr<PreparedRetrain>> plans;
  for (const DriftCandidate& c : candidates) {
    auto p = idx.PrepareRetrain(c.segment_id);
    if (p != nullptr) plans.push_back(std::move(p));
  }
  ASSERT_FALSE(plans.empty());
  ASSERT_TRUE(idx.Insert(keys[10] + 1, 222));  // newer than the snapshot
  for (auto& p : plans) idx.PublishRetrain(std::move(p));
  Value v = 0;
  ASSERT_TRUE(idx.Get(keys[10] + 1, &v));
  // The publish subtracts only the exact snapshot entries from the
  // buffer; the newer write survives and shadows the published array.
  EXPECT_EQ(v, 222u);
}

TEST(MaintenanceHookTest, XIndexPublishAbortsAfterRacingCompaction) {
  XIndex idx(1024, 8);  // Tiny buffer: easy to force a compaction.
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys = MakeUniformKeys(2000, 31);
  idx.BulkLoad(ToData(keys));

  ASSERT_TRUE(idx.Insert(keys[5] + 1, 1));
  std::vector<DriftCandidate> candidates;
  idx.CollectDrift(0.001, &candidates);
  ASSERT_FALSE(candidates.empty());
  auto plan = idx.PrepareRetrain(candidates[0].segment_id);
  ASSERT_NE(plan, nullptr);
  // Saturate the same group's buffer past the maintenance hard cap so the
  // writer compacts inline, bumping data_version under us.
  uint64_t retrains_before = idx.Stats().retrain_count;
  Key base = candidates[0].segment_id;
  for (uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(idx.Insert(base + 2 + i, i));
  }
  ASSERT_GT(idx.Stats().retrain_count, retrains_before)
      << "hard cap should have forced an inline compaction";
  EXPECT_FALSE(idx.PublishRetrain(std::move(plan)));
}

// ---------------------------------------------------------------------------
// Retrain-path duplicate resolution (key in buffer AND main)

TEST(MaintenanceHookTest, DuplicateResolvesToNewestThroughRetrain) {
  // FITing-tree: after Prepare snapshots a leaf, an update of a main-
  // resident key makes the merged view differ from the snapshot at an
  // equal key. InstallPlan routes the delta into the replacement leaf's
  // buffer, so the key briefly exists in both the new main run (old
  // value) and the buffer (new value) — reads and the next merge must
  // both pick the buffer.
  FitingTree idx(FitingTree::InsertMode::kBuffer, 64, 64);
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 2000; ++i) keys.push_back(i * 10);
  idx.BulkLoad(ToData(keys));
  Rng rng(37);
  for (int i = 0; i < 300; ++i) {
    idx.Insert(keys[rng.NextUnder(50)] + 1 + rng.NextUnder(8), i);
  }
  std::vector<DriftCandidate> candidates;
  idx.CollectDrift(0.5, &candidates);
  ASSERT_FALSE(candidates.empty());
  auto plan = idx.PrepareRetrain(candidates[0].segment_id);
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(idx.Insert(keys[3], 424242));  // main-resident update
  ASSERT_TRUE(idx.PublishRetrain(std::move(plan)));
  Value v = 0;
  ASSERT_TRUE(idx.Get(keys[3], &v));
  EXPECT_EQ(v, 424242u);
  // Force the next merge over that leaf and re-check: the duplicate must
  // not resurrect the stale value. (Threshold must be positive: pressure
  // comparison is >=, so 0.0 would flag fully-quiescent leaves forever.)
  DrainDrift(&idx, 0.01);
  v = 0;
  ASSERT_TRUE(idx.Get(keys[3], &v));
  EXPECT_EQ(v, 424242u);
}

// ---------------------------------------------------------------------------
// Maintainer (token bucket + end-to-end off-thread retraining)

TEST(MaintainerTest, PublishesOffThreadAndPreservesContents) {
  auto idx = std::make_unique<FitingTree>(FitingTree::InsertMode::kBuffer,
                                          64, 64);
  idx->SetMaintenanceMode(true);
  std::vector<uint64_t> keys = MakeUniformKeys(20000, 41);
  idx->BulkLoad(ToData(keys));
  std::map<Key, Value> ref;
  for (uint64_t k : keys) ref[k] = k + 7;

  MaintenanceConfig cfg;
  cfg.enabled = true;
  service::Maintainer maintainer(idx->maintenance(), cfg);
  maintainer.Start();

  Rng rng(43);
  for (int i = 0; i < 30000; ++i) {
    Key k = rng.Next() & (~0ull - 1);
    ASSERT_TRUE(idx->Insert(k, i));
    ref[k] = static_cast<Value>(i);
  }
  // Give the maintainer a chance to drain the backlog, then stop it.
  for (int i = 0; i < 100; ++i) {
    std::vector<DriftCandidate> c;
    idx->CollectDrift(0.5, &c);
    if (c.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  maintainer.Stop();
  MaintainerStats stats = maintainer.Stats();
  EXPECT_GT(stats.scans, 0u);
  EXPECT_GT(stats.published, 0u);
  CheckAgainst(*idx, ref);
}

TEST(MaintainerTest, TokenBucketThrottles) {
  auto idx = std::make_unique<XIndex>(1024, 32);
  idx->SetMaintenanceMode(true);
  std::vector<uint64_t> keys = MakeUniformKeys(20000, 47);
  idx->BulkLoad(ToData(keys));

  MaintenanceConfig cfg;
  cfg.enabled = true;
  cfg.segments_per_sec = 1;  // Starved: one retrain/second.
  service::Maintainer maintainer(idx->maintenance(), cfg);
  maintainer.Start();

  Rng rng(53);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_TRUE(idx->Insert(rng.Next() & (~0ull - 1), i));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  maintainer.Stop();
  MaintainerStats stats = maintainer.Stats();
  // The budget admits at most burst(1) + ~elapsed seconds of retrains;
  // with dozens of drifted groups the rest must be counted throttled.
  EXPECT_LE(stats.published, 4u);
  EXPECT_GT(stats.throttled, 0u);
  // The index stays correct regardless — drift just waits.
  Value v = 0;
  ASSERT_TRUE(idx->Get(keys[100], &v));
  EXPECT_EQ(v, keys[100] + 7);
}

// ---------------------------------------------------------------------------
// Concurrent readers with retrains in flight (TSan targets)

TEST(MaintenanceConcurrentTest, FitingTreeReadersNeverBlockDuringPublish) {
  // FITing-tree is single-foreground-writer (in the service only the
  // shard worker mutates it), so the race under test is readers vs the
  // *maintainer*: insert bursts run alone to build drift, then reader
  // threads probe the directory under EpochGuards while the maintainer
  // prepares and publishes the retrains those bursts provoked. TSan
  // verifies the swap/retire ordering.
  FitingTree idx(FitingTree::InsertMode::kBuffer, 64, 64);
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys = MakeUniformKeys(20000, 59);
  idx.BulkLoad(ToData(keys));

  MaintenanceConfig cfg;
  cfg.enabled = true;
  service::Maintainer maintainer(idx.maintenance(), cfg);
  maintainer.Start();

  std::atomic<uint64_t> reads{0};
  Rng rng(61);
  int inserted = 0;
  for (int round = 0; round < 16; ++round) {
    // Foreground burst into a sliding hot window — exactly the drift the
    // maintainer is built for. Fresh keys go into gaps between loaded
    // keys so the readers' key set stays valid throughout.
    for (int i = 0; i < 2000; ++i, ++inserted) {
      size_t slot = (inserted / 100) % (keys.size() - 1);
      Key lo = keys[slot], hi = keys[slot + 1];
      Key k = hi > lo + 1 ? lo + 1 + rng.NextUnder(hi - lo - 1) : lo;
      ASSERT_TRUE(idx.Insert(k, inserted));
    }
    // Reader phase: the maintainer is mid-drain of the burst above, so
    // these probes overlap prepares and publishes in flight.
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&, t] {
        Rng r(100 + t);
        Value v;
        std::vector<KeyValue> scan;
        for (int i = 0; i < 3000; ++i) {
          Key k = keys[r.NextUnder(keys.size())];
          if (idx.Get(k, &v)) reads.fetch_add(1, std::memory_order_relaxed);
          if (r.NextUnder(64) == 0) {
            scan.clear();
            idx.Scan(k, 32, &scan);
          }
        }
      });
    }
    for (std::thread& t : readers) t.join();
    if (round >= 3 && maintainer.Stats().published > 0) break;
  }
  maintainer.Stop();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(maintainer.Stats().published, 0u);
  // Every bulk-loaded key must still resolve.
  Value v = 0;
  for (size_t i = 0; i < keys.size(); i += 997) {
    ASSERT_TRUE(idx.Get(keys[i], &v)) << keys[i];
  }
}

TEST(MaintenanceConcurrentTest, XIndexWritersAndReadersDuringPublish) {
  // XIndex takes concurrent writers, so the harder shape runs here:
  // multiple writer threads + readers + maintainer, all in flight.
  XIndex idx(1024, 64);
  idx.SetMaintenanceMode(true);
  std::vector<uint64_t> keys = MakeUniformKeys(20000, 67);
  idx.BulkLoad(ToData(keys));

  MaintenanceConfig cfg;
  cfg.enabled = true;
  service::Maintainer maintainer(idx.maintenance(), cfg);
  maintainer.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(200 + t);
      Value v;
      while (!stop.load(std::memory_order_relaxed)) {
        Key k = keys[rng.NextUnder(keys.size())];
        if (idx.Get(k, &v)) reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + t);
      for (int i = 0; i < 15000; ++i) {
        idx.Insert(rng.Next() & (~0ull - 1), i);
      }
    });
  }
  // Writers are finite; readers run until they finish.
  threads[2].join();
  threads[3].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  maintainer.Stop();
  EXPECT_GT(reads.load(), 0u);
  Value v = 0;
  for (size_t i = 0; i < keys.size(); i += 997) {
    ASSERT_TRUE(idx.Get(keys[i], &v)) << keys[i];
  }
}

}  // namespace
}  // namespace pieces
