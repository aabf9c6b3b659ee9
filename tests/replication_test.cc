// Store-level replication tests: the log/transport/replica pipeline units
// and the failover offset sweep (the replication durability contract,
// proven by exhaustion). The sweep kills the primary→replica link after
// EVERY possible delivered-record count — covering every shipped-batch
// boundary and every mid-batch offset deterministically, regardless of how
// records happened to batch at runtime — promotes the replica, and checks
// the promoted store byte-for-byte against an acked-ops oracle: acked
// writes survive, unacked writes never resurrect. Failures minimize to the
// shortest op stream that still fails, same shape as crash_sweep_test.cc.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/registry.h"
#include "replication/replica_session.h"
#include "replication/replication_log.h"
#include "replication/transport.h"
#include "store/record_format.h"
#include "store/viper.h"

namespace pieces {
namespace {

using replication::InProcessTransport;
using replication::LogRecord;
using replication::Replica;
using replication::ReplicaSession;
using replication::ReplicationConfig;
using replication::ReplicationLog;

constexpr size_t kValueSize = 24;

ViperStore::Config StoreCfg() {
  ViperStore::Config cfg;
  cfg.value_size = kValueSize;
  cfg.pmem_capacity = size_t{8} << 20;
  return cfg;
}

std::unique_ptr<StoreBackend> MakeStore(const std::string& index_name) {
  auto index = MakeIndex(index_name);
  EXPECT_NE(index, nullptr) << index_name;
  return std::make_unique<ViperStore>(std::move(index), StoreCfg());
}

ReplicationConfig SessionCfg() {
  ReplicationConfig cfg;
  cfg.enabled = true;
  // Small batches against a ~40-op stream: the offset sweep crosses
  // several batch boundaries and plenty of mid-batch offsets.
  cfg.ship_batch = 8;
  // Generous: with the in-process transport an ack resolves as soon as
  // the shipper runs (or the link dies); the timeout only fires on a bug.
  cfg.ack_timeout_us = 5'000'000;
  return cfg;
}

// A distinct, recognizable value for write #i of a test: never equal to
// the synthetic bulk value, never equal across ops.
std::vector<uint8_t> OpValue(uint64_t tag) {
  std::vector<uint8_t> v(kValueSize);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(0xA5u ^ (tag * 131) ^ (i * 7));
  }
  return v;
}

// The semi-sync ack of the calling thread's latest put, as a group of
// one write.
bool AwaitOwnPut(ReplicaSession& session) {
  const uint64_t mark = session.log()->ThisThreadWatermark();
  return session.AwaitReplicated({&mark, 1}) == 1;
}

std::vector<Key> BaseKeys(size_t n) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(100 + 10 * i);
  return keys;
}

// ---------------------------------------------------------------------------
// Pipeline units
// ---------------------------------------------------------------------------

CommitRecord MakeCommit(Key key, const std::vector<uint8_t>& value) {
  CommitRecord rec;
  rec.key = key;
  rec.value = value.data();
  rec.value_size = value.size();
  return rec;
}

TEST(ReplicationLogTest, AppendReadTruncate) {
  ReplicationLog log;
  EXPECT_EQ(log.tail(), 0u);
  std::vector<uint8_t> v0 = OpValue(0), v1 = OpValue(1), v2 = OpValue(2);
  log.OnCommit(MakeCommit(10, v0));
  log.OnCommit(MakeCommit(20, v1));
  log.OnCommit(MakeCommit(10, v2));
  EXPECT_EQ(log.tail(), 3u);
  // This thread appended record index 2; its watermark covers exactly it.
  EXPECT_EQ(log.ThisThreadWatermark(), 3u);

  std::vector<LogRecord> out;
  EXPECT_EQ(log.Read(0, 10, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, 10u);
  EXPECT_EQ(out[0].value, v0);
  EXPECT_EQ(out[2].key, 10u);
  EXPECT_EQ(out[2].value, v2);

  // Partial read from a mid-log position.
  out.clear();
  EXPECT_EQ(log.Read(1, 1, &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 20u);

  // Truncation drops the shipped prefix; a stale `from` snaps up.
  log.TruncateTo(2);
  out.clear();
  EXPECT_EQ(log.Read(0, 10, &out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value, v2);
  EXPECT_EQ(log.tail(), 3u);
}

TEST(ReplicationLogTest, WaitTailAndClose) {
  ReplicationLog log;
  // An append on another thread wakes the waiter.
  std::thread writer([&] {
    std::vector<uint8_t> v = OpValue(1);
    log.OnCommit(MakeCommit(5, v));
  });
  EXPECT_TRUE(log.WaitTail(0));
  writer.join();
  // Close on another thread wakes a waiter no append satisfies.
  std::thread closer([&] { log.Close(); });
  EXPECT_FALSE(log.WaitTail(1));
  closer.join();
  // Closed log: waiters return at once, appends still record.
  EXPECT_FALSE(log.WaitTail(1));
  std::vector<uint8_t> v = OpValue(2);
  log.OnCommit(MakeCommit(6, v));
  EXPECT_EQ(log.tail(), 2u);
}

TEST(ReplicationLogTest, ThreadWatermarkIsPerThread) {
  ReplicationLog log;
  std::vector<uint8_t> v = OpValue(3);
  log.OnCommit(MakeCommit(5, v));
  uint64_t other_thread_watermark = 0;
  std::thread t([&] {
    // This thread never appended: the fallback is the (conservative)
    // global tail.
    other_thread_watermark = log.ThisThreadWatermark();
  });
  t.join();
  EXPECT_EQ(other_thread_watermark, log.tail());
  EXPECT_EQ(log.ThisThreadWatermark(), 1u);
}

constexpr InProcessTransport::Clock::time_point kNoDeadline =
    InProcessTransport::Clock::time_point::max();

TEST(TransportTest, FailAfterDeliversExactPrefix) {
  Replica replica(MakeStore("BTree"));
  InProcessTransport transport(&replica);
  transport.FailAfter(2);
  std::vector<LogRecord> batch(3);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].key = 1000 + i;
    batch[i].value = OpValue(i);
  }
  // Short delivery: exactly 2 of 3, then the link is down for good.
  EXPECT_EQ(transport.Ship({batch.data(), batch.size()}, kNoDeadline, nullptr),
            2u);
  EXPECT_EQ(transport.Ship({batch.data(), batch.size()}, kNoDeadline, nullptr),
            0u);
  EXPECT_EQ(replica.applied(), 2u);
  bool gone = false;
  std::vector<uint8_t> out(kValueSize);
  EXPECT_TRUE(replica.Get(1000, out.data(), &gone));
  EXPECT_EQ(out, OpValue(0));
  EXPECT_FALSE(replica.Get(1002, out.data(), &gone));
}

TEST(TransportTest, GateHoldsDeliveryUntilReleased) {
  Replica replica(MakeStore("BTree"));
  InProcessTransport transport(&replica);
  transport.SetGated(true);
  std::atomic<bool> delivered{false};
  std::vector<LogRecord> batch(1);
  batch[0].key = 42;
  batch[0].value = OpValue(9);
  std::thread shipper([&] {
    EXPECT_EQ(
        transport.Ship({batch.data(), batch.size()}, kNoDeadline, nullptr),
        1u);
    delivered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(delivered.load());
  transport.SetGated(false);
  shipper.join();
  EXPECT_TRUE(delivered.load());
  EXPECT_EQ(replica.applied(), 1u);
}

// A deadline separates a stalled link from a dead one: a gated Ship that
// outlasts its deadline delivers nothing, reports the stall and leaves
// the link up; a tripped fail point is a short count with no stall.
TEST(ReplicationTransportTest, DeadlineSeparatesStalledFromDead) {
  using Clock = std::chrono::steady_clock;
  Replica replica(MakeStore("BTree"));
  InProcessTransport transport(&replica);
  std::vector<LogRecord> batch(2);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].key = 2000 + i;
    batch[i].value = OpValue(i);
  }
  transport.SetGated(true);
  bool stalled = false;
  const auto start = Clock::now();
  EXPECT_EQ(transport.Ship({batch.data(), batch.size()},
                           start + std::chrono::milliseconds(20), &stalled),
            0u);
  EXPECT_TRUE(stalled);
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(20));
  EXPECT_EQ(replica.applied(), 0u);

  // Still alive: once the gate opens the same batch ships whole.
  transport.SetGated(false);
  EXPECT_EQ(transport.Ship({batch.data(), batch.size()},
                           Clock::now() + std::chrono::seconds(5), &stalled),
            2u);
  EXPECT_FALSE(stalled);
  EXPECT_EQ(replica.applied(), 2u);

  // Dead: a short count, not a stall, and a gate does not mask it.
  transport.FailAfter(1);
  EXPECT_EQ(transport.Ship({batch.data(), batch.size()},
                           Clock::now() + std::chrono::seconds(5), &stalled),
            1u);
  EXPECT_FALSE(stalled);
  transport.SetGated(true);
  EXPECT_EQ(transport.Ship({batch.data(), batch.size()},
                           Clock::now() + std::chrono::seconds(5), &stalled),
            0u);
  EXPECT_FALSE(stalled);
  EXPECT_EQ(replica.applied(), 3u);
}

// ---------------------------------------------------------------------------
// Failover offset sweep (single writer, exact byte-level oracle)
// ---------------------------------------------------------------------------

struct SweepFailure {
  bool failed = false;
  std::string report;
};

// One sweep point: base image, `ops` writes with the link killed after
// exactly `fail_after` delivered records, promotion, then an exact
// comparison of the promoted store against the model "base + the first
// min(fail_after, ops) writes". Every divergence is a replication bug:
// a key whose acked write is missing/stale (acked loss) or a key holding
// an unacked write's bytes (resurrection).
SweepFailure RunSweepPoint(const std::string& index_name, size_t ops,
                           uint64_t fail_after) {
  SweepFailure fail;
  auto report = [&](const std::string& what) {
    fail.failed = true;
    fail.report = index_name + " ops=" + std::to_string(ops) +
                  " fail_after=" + std::to_string(fail_after) + ": " + what;
  };

  auto primary = MakeStore(index_name);
  const std::vector<Key> base = BaseKeys(64);
  if (!primary->BulkLoad(base)) {
    report("bulk load failed");
    return fail;
  }
  auto session =
      std::make_unique<ReplicaSession>(MakeStore(index_name), SessionCfg());
  primary->SetCommitTap(session->log());
  if (!session->SeedFromPrimary(*primary)) {
    report("seed failed");
    return fail;
  }
  session->transport()->FailAfter(fail_after);
  session->Start();

  // Model: the exact byte image the promoted store must hold.
  std::map<Key, std::vector<uint8_t>> model;
  for (Key k : base) {
    std::vector<uint8_t> v(kValueSize);
    FillSyntheticRecordValue(k, v.data(), v.size());
    model[k] = std::move(v);
  }
  const uint64_t delivered = std::min<uint64_t>(fail_after, ops);
  for (size_t i = 0; i < ops; ++i) {
    // Alternate updates of base keys with inserts of fresh keys, so the
    // sweep kills mid-update and mid-insert streaks alike.
    const Key key = (i % 2 == 0) ? base[(i * 7) % base.size()]
                                 : Key{10'000 + i};
    const std::vector<uint8_t> value = OpValue(i);
    if (!primary->Put(key, value.data())) {
      report("primary put failed at op " + std::to_string(i));
      return fail;
    }
    const bool acked = AwaitOwnPut(*session);
    // Exact ack oracle: with the in-process transport, delivery, apply
    // and ack are one atomic step, so write #i is acked iff i < the
    // fail point.
    if (acked != (i < fail_after)) {
      report("ack mismatch at op " + std::to_string(i) + ": got " +
             (acked ? "acked" : "unacked"));
      return fail;
    }
    if (i < delivered) model[key] = value;
  }

  uint64_t rebuild_ns = 0;
  std::unique_ptr<StoreBackend> promoted = session->Promote(&rebuild_ns);
  if (promoted == nullptr) {
    report("promotion returned no store");
    return fail;
  }
  if (promoted->size() != model.size()) {
    report("promoted size " + std::to_string(promoted->size()) +
           " != model " + std::to_string(model.size()));
    return fail;
  }
  std::vector<Key> scanned;
  promoted->Scan(0, model.size() + ops, &scanned);
  if (scanned.size() != model.size()) {
    report("promoted scan count " + std::to_string(scanned.size()) +
           " != model " + std::to_string(model.size()));
    return fail;
  }
  size_t i = 0;
  std::vector<uint8_t> got(kValueSize);
  for (const auto& [key, want] : model) {
    if (scanned[i] != key) {
      report("scan key " + std::to_string(scanned[i]) + " at position " +
             std::to_string(i) + ", expected " + std::to_string(key));
      return fail;
    }
    ++i;
    if (!promoted->Get(key, got.data())) {
      report("acked key " + std::to_string(key) + " missing after failover");
      return fail;
    }
    if (std::memcmp(got.data(), want.data(), kValueSize) != 0) {
      report("key " + std::to_string(key) +
             " bytes diverge after failover (acked write lost or unacked "
             "write resurrected)");
      return fail;
    }
  }
  return fail;
}

// Shrinks a failing sweep point to the shortest op stream that still
// fails (halving, then linear), so a red run prints a minimal repro.
std::string MinimizeSweepFailure(const std::string& index_name, size_t ops,
                                 uint64_t fail_after,
                                 const std::string& first_report) {
  size_t best = ops;
  std::string report = first_report;
  for (size_t trial = ops / 2; trial > 0; trial /= 2) {
    if (trial >= best) break;
    const uint64_t fa = std::min<uint64_t>(fail_after, trial);
    SweepFailure f = RunSweepPoint(index_name, trial, fa);
    if (f.failed) {
      best = trial;
      report = f.report;
    }
  }
  return "minimal failing stream: " + std::to_string(best) + " ops\n" +
         report;
}

class FailoverSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FailoverSweepTest, EveryDeliveredCount) {
  // 40 ops with ship_batch=8: the sweep crosses 5 exact batch boundaries
  // (8, 16, 24, 32, 40) plus every mid-batch offset, the no-delivery kill
  // (0) and the never-killed run (> ops).
  constexpr size_t kOps = 40;
  for (uint64_t fail_after = 0; fail_after <= kOps + 1; ++fail_after) {
    SweepFailure f = RunSweepPoint(GetParam(), kOps, fail_after);
    ASSERT_FALSE(f.failed) << MinimizeSweepFailure(GetParam(), kOps,
                                                   fail_after, f.report);
  }
}

// A traditional, a learned in-place, and a learned delta-buffer family;
// the replica applies through the ordinary Put path, so index-specific
// apply bugs would surface here.
INSTANTIATE_TEST_SUITE_P(Representative, FailoverSweepTest,
                         ::testing::Values("BTree", "ALEX", "PGM"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// ---------------------------------------------------------------------------
// Concurrent writers: the per-thread ack watermark keeps the oracle exact
// ---------------------------------------------------------------------------

TEST(FailoverSweepConcurrent, AckedOracleHoldsUnderConcurrentWriters) {
  // ALEX supports concurrent writers; each thread writes a disjoint key
  // range so present-in-replica is decidable per op. The in-process
  // transport makes ack exact: a one-write AwaitReplicated() confirms
  // iff that thread's own record was delivered — so after promotion,
  // acked ⟺ present must hold in BOTH directions, per op, per thread.
  constexpr size_t kThreads = 3;
  constexpr size_t kOpsPerThread = 30;
  const std::vector<uint64_t> fail_points = {0, 7, 23, 45, 61,
                                             kThreads * kOpsPerThread};
  for (uint64_t fail_after : fail_points) {
    auto primary = MakeStore("ALEX");
    ASSERT_TRUE(primary->BulkLoad(BaseKeys(32)));
    auto session =
        std::make_unique<ReplicaSession>(MakeStore("ALEX"), SessionCfg());
    primary->SetCommitTap(session->log());
    ASSERT_TRUE(session->SeedFromPrimary(*primary));
    session->transport()->FailAfter(fail_after);
    session->Start();

    struct ThreadLogEntry {
      Key key;
      bool acked;
      std::vector<uint8_t> value;
    };
    std::vector<std::vector<ThreadLogEntry>> logs(kThreads);
    std::vector<std::thread> writers;
    for (size_t t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (size_t i = 0; i < kOpsPerThread; ++i) {
          const Key key = 100'000 + 1000 * t + i;  // unique per op
          std::vector<uint8_t> value = OpValue(t * 1000 + i);
          ASSERT_TRUE(primary->Put(key, value.data()));
          const bool acked = AwaitOwnPut(*session);
          logs[t].push_back({key, acked, std::move(value)});
        }
      });
    }
    for (auto& w : writers) w.join();

    uint64_t rebuild_ns = 0;
    std::unique_ptr<StoreBackend> promoted = session->Promote(&rebuild_ns);
    ASSERT_NE(promoted, nullptr);

    size_t total_acked = 0;
    std::vector<uint8_t> got(kValueSize);
    for (size_t t = 0; t < kThreads; ++t) {
      for (const ThreadLogEntry& e : logs[t]) {
        const bool present = promoted->Get(e.key, got.data());
        ASSERT_EQ(present, e.acked)
            << "fail_after=" << fail_after << " thread " << t << " key "
            << e.key << (e.acked ? ": acked write lost by failover"
                                 : ": unacked write resurrected");
        if (present) {
          ++total_acked;
          EXPECT_EQ(std::memcmp(got.data(), e.value.data(), kValueSize), 0)
              << "fail_after=" << fail_after << " key " << e.key
              << ": acked bytes diverged";
        }
      }
    }
    EXPECT_EQ(total_acked,
              std::min<uint64_t>(fail_after, kThreads * kOpsPerThread));
  }
}

// ---------------------------------------------------------------------------
// Semi-sync acks
// ---------------------------------------------------------------------------

// Semi-sync ack on a healthy link: every write confirms; on a dead link:
// every write degrades to unacked, and the failure counter ticks.
TEST(SemiSyncAck, HealthyLinkConfirmsDeadLinkDegrades) {
  auto primary = MakeStore("BTree");
  ASSERT_TRUE(primary->BulkLoad(BaseKeys(16)));
  ReplicaSession session(MakeStore("BTree"), SessionCfg());
  primary->SetCommitTap(session.log());
  ASSERT_TRUE(session.SeedFromPrimary(*primary));
  session.Start();

  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary->Put(500 + i, OpValue(i).data()));
    EXPECT_TRUE(AwaitOwnPut(session)) << "op " << i;
  }
  session.transport()->FailAfter(0);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(primary->Put(600 + i, OpValue(i).data()));
    EXPECT_FALSE(AwaitOwnPut(session)) << "op " << i;
  }
  replication::ReplicaSessionStats stats = session.Stats();
  EXPECT_TRUE(stats.dead);
  EXPECT_GE(stats.ack_failures, 5u);
  EXPECT_EQ(stats.acked, 10u);
}

// A group wait over m writes on a link that dies after k deliveries:
// exactly the first k confirm, and every other write counts as one ack
// failure.
TEST(SemiSyncAck, GroupWaitConfirmsExactlyTheDeliveredPrefix) {
  constexpr size_t kWrites = 6;
  for (uint64_t k = 0; k <= kWrites; ++k) {
    auto primary = MakeStore("BTree");
    ASSERT_TRUE(primary->BulkLoad(BaseKeys(16)));
    ReplicaSession session(MakeStore("BTree"), SessionCfg());
    primary->SetCommitTap(session.log());
    ASSERT_TRUE(session.SeedFromPrimary(*primary));
    session.transport()->FailAfter(k);
    std::vector<uint64_t> marks;
    for (uint64_t i = 0; i < kWrites; ++i) {
      ASSERT_TRUE(primary->Put(700 + i, OpValue(i).data()));
      marks.push_back(session.log()->ThisThreadWatermark());
    }
    // Started after the puts: the shipper sees the whole group at once.
    session.Start();
    EXPECT_EQ(session.AwaitReplicated(marks), k) << "k=" << k;
    EXPECT_EQ(session.Stats().ack_failures, kWrites - k) << "k=" << k;
    EXPECT_EQ(session.AwaitReplicated({}), 0u);
  }
}

// Under kReplicated the ack waiter ships the log itself, so a stalled
// link holds the waiter only for ack_timeout_us: the write degrades to
// unacked and the session stays alive. Nothing ships in the background;
// the next waiter ships the stalled record first, then its own.
TEST(SemiSyncAck, GatedInlineShipHonoursAckTimeout) {
  ReplicationConfig cfg = SessionCfg();
  cfg.ack = ReplicationConfig::AckMode::kReplicated;
  cfg.ack_timeout_us = 20'000;
  auto primary = MakeStore("BTree");
  ASSERT_TRUE(primary->BulkLoad(BaseKeys(16)));
  ReplicaSession session(MakeStore("BTree"), cfg);
  primary->SetCommitTap(session.log());
  ASSERT_TRUE(session.SeedFromPrimary(*primary));
  session.Start();
  const uint64_t seeded = session.Stats().acked;

  session.transport()->SetGated(true);
  const std::vector<uint8_t> stalled = OpValue(1);
  ASSERT_TRUE(primary->Put(100, stalled.data()));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(AwaitOwnPut(session));
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(20));
  EXPECT_LT(waited, std::chrono::seconds(2));
  replication::ReplicaSessionStats stats = session.Stats();
  EXPECT_FALSE(stats.dead);
  EXPECT_EQ(stats.acked, seeded);
  EXPECT_EQ(stats.ack_failures, 1u);

  session.transport()->SetGated(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(session.replica()->applied(), seeded)
      << "a record shipped with no ack waiter";

  const std::vector<uint8_t> fresh = OpValue(2);
  ASSERT_TRUE(primary->Put(100, fresh.data()));
  EXPECT_TRUE(AwaitOwnPut(session));
  stats = session.Stats();
  EXPECT_FALSE(stats.dead);
  EXPECT_EQ(stats.acked, seeded + 2);
  EXPECT_EQ(session.replica()->applied(), seeded + 2);
  std::vector<uint8_t> out(kValueSize);
  bool gone = false;
  ASSERT_TRUE(session.replica()->Get(100, out.data(), &gone));
  EXPECT_EQ(out, fresh) << "the stalled record was applied after its successor";
}

}  // namespace
}  // namespace pieces
