// Service-level replication tests: replica-divergence differential (the
// primary and its replica must agree byte-for-byte on Get/Scan
// transcripts after a seeded mixed workload with concurrent catch-up —
// across both store backends, three index families, and through a live
// shard split), read-after-write on a replicated service, and failover
// via KvService::FailOverShard (promotion republishes the routing
// snapshot; acked writes survive, kReplicated acks make crash failover
// lossless).
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/router.h"
#include "store/record_format.h"

namespace pieces::service {
namespace {

using replication::ReplicationConfig;

constexpr size_t kValueSize = 32;

std::string TempDir(const char* tag) {
  std::string dir = testing::TempDir() + "/pieces_repl_" + tag + "_" +
                    std::to_string(::getpid());
  // TempDir exists; per-test subdirectories keep shard files apart.
  (void)mkdir(dir.c_str(), 0755);
  return dir;
}

ServiceConfig BaseConfig(const std::string& backend, const char* tag) {
  ServiceConfig cfg;
  cfg.num_shards = 2;
  cfg.queue_capacity = 256;
  cfg.max_batch = 32;
  cfg.store.value_size = kValueSize;
  cfg.store.pmem_capacity = size_t{16} << 20;
  cfg.backend = backend;
  if (backend == "disk") {
    cfg.disk.path = TempDir(tag);
    cfg.disk.pool_pages = 128;
    cfg.disk.file_capacity = size_t{64} << 20;
  }
  cfg.replication.enabled = true;
  cfg.replication.ship_batch = 16;
  cfg.replication.ack_timeout_us = 5'000'000;
  return cfg;
}

std::vector<Key> LoadKeys(size_t n) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) keys.push_back(1000 + 10 * i);
  return keys;
}

std::vector<uint8_t> TaggedValue(uint64_t tag) {
  std::vector<uint8_t> v(kValueSize);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(0x5Cu ^ (tag * 97) ^ (i * 13));
  }
  return v;
}

// ---------------------------------------------------------------------------
// Replica-divergence differential
// ---------------------------------------------------------------------------

struct DivergenceCase {
  std::string index;
  std::string backend;
};

class ReplicaDivergenceTest
    : public ::testing::TestWithParam<DivergenceCase> {};

// Seeded mixed workload with the shipper catching up concurrently; at
// quiesce the replica of every shard must hold exactly the primary's
// image — same keys in the same order (Scan transcript) and the same
// bytes per key (Get transcript) — including through a live split of
// shard 0 in the middle of the write phase.
TEST_P(ReplicaDivergenceTest, PrimaryAndReplicaAgreeByteForByte) {
  const DivergenceCase& param = GetParam();
  ServiceConfig cfg = BaseConfig(
      param.backend, ("div_" + param.index + "_" + param.backend).c_str());
  const std::vector<Key> load = LoadKeys(512);
  KvService service(param.index, cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  // Model of every key's last acked value; sync Puts mean commit order
  // is model order.
  std::map<Key, std::vector<uint8_t>> model;
  for (Key k : load) {
    std::vector<uint8_t> v(kValueSize);
    FillSyntheticRecordValue(k, v.data(), v.size());
    model[k] = std::move(v);
  }
  std::mt19937_64 rng(0xd1f5eedull);
  constexpr size_t kOps = 600;
  for (size_t i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {
      // Live split mid-workload: the hot shard retires, two replacements
      // (each with a freshly seeded replica) take over, and the stream
      // keeps writing against the successor snapshot.
      ASSERT_TRUE(service.SplitShard(0));
    }
    const Key key = (i % 3 != 0)
                        ? load[rng() % load.size()]        // update
                        : Key{200'000 + (rng() % 4096)};   // insert
    std::vector<uint8_t> value = TaggedValue(i);
    ASSERT_EQ(service.Put(key, value.data()), RequestStatus::kOk) << i;
    model[key] = std::move(value);
    if (i % 5 == 0) {
      // Interleave reads so the workload is genuinely mixed.
      std::vector<uint8_t> out(kValueSize);
      ASSERT_EQ(service.Get(key, out.data()), RequestStatus::kOk);
    }
  }

  // Quiesce: every queued request done, every replica at the log tail.
  service.Drain();
  ASSERT_TRUE(service.WaitReplicasCaughtUp());

  // Scan transcript: the service's global ordered key stream...
  std::vector<Key> primary_scan;
  ASSERT_EQ(service.Scan(0, model.size() + 10, &primary_scan),
            RequestStatus::kOk);
  ASSERT_EQ(primary_scan.size(), model.size());
  // ...must equal the concatenation of the replicas' scans in shard
  // order (replicas shadow disjoint ranges, so shard order = key order).
  std::vector<Key> replica_scan;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    auto session = service.replica_session(s);
    ASSERT_NE(session, nullptr) << "shard " << s;
    const StoreBackend* rstore = session->replica()->store();
    ASSERT_NE(rstore, nullptr) << "shard " << s;
    rstore->Scan(0, rstore->size(), &replica_scan);
  }
  EXPECT_EQ(replica_scan, primary_scan);

  // Get transcript: primary bytes == replica bytes == model bytes for
  // every key ever written.
  std::vector<uint8_t> via_service(kValueSize);
  std::vector<uint8_t> via_replica(kValueSize);
  for (const auto& [key, want] : model) {
    ASSERT_EQ(service.Get(key, via_service.data()), RequestStatus::kOk)
        << "key " << key;
    EXPECT_EQ(std::memcmp(via_service.data(), want.data(), kValueSize), 0)
        << "primary diverged from model at key " << key;
    auto session = service.replica_session(service.ShardOf(key));
    ASSERT_NE(session, nullptr);
    bool gone = false;
    ASSERT_TRUE(session->replica()->Get(key, via_replica.data(), &gone))
        << "replica missing key " << key;
    ASSERT_FALSE(gone);
    EXPECT_EQ(std::memcmp(via_replica.data(), want.data(), kValueSize), 0)
        << "replica diverged from primary at key " << key;
  }
  EXPECT_GE(service.Stats().splits, 1u);
  service.Shutdown();
}

// The scan and get transcript check of the test above, as a step check:
// quiesce, then every shard's replica must hold exactly its primary's
// image, and both must hold `model`.
void ExpectReplicasMatch(KvService& service,
                         const std::map<Key, std::vector<uint8_t>>& model) {
  service.Drain();
  ASSERT_TRUE(service.WaitReplicasCaughtUp());
  std::vector<Key> primary_scan;
  ASSERT_EQ(service.Scan(0, model.size() + 10, &primary_scan),
            RequestStatus::kOk);
  ASSERT_EQ(primary_scan.size(), model.size());
  std::vector<Key> replica_scan;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    auto session = service.replica_session(s);
    ASSERT_NE(session, nullptr) << "shard " << s;
    const StoreBackend* rstore = session->replica()->store();
    ASSERT_NE(rstore, nullptr) << "shard " << s;
    rstore->Scan(0, rstore->size(), &replica_scan);
  }
  EXPECT_EQ(replica_scan, primary_scan);
  std::vector<uint8_t> via_service(kValueSize);
  std::vector<uint8_t> via_replica(kValueSize);
  for (const auto& [key, want] : model) {
    ASSERT_EQ(service.Get(key, via_service.data()), RequestStatus::kOk)
        << "key " << key;
    EXPECT_EQ(std::memcmp(via_service.data(), want.data(), kValueSize), 0)
        << "primary diverged from model at key " << key;
    auto session = service.replica_session(service.ShardOf(key));
    ASSERT_NE(session, nullptr);
    bool gone = false;
    ASSERT_TRUE(session->replica()->Get(key, via_replica.data(), &gone))
        << "replica missing key " << key;
    ASSERT_FALSE(gone);
    EXPECT_EQ(std::memcmp(via_replica.data(), want.data(), kValueSize), 0)
        << "replica diverged from primary at key " << key;
  }
}

// Every structural transition with replication on: split shard 0, merge
// the pair back, fail shard 0 over gracefully — writes between steps, and
// the primary/replica transcripts must agree after each one.
TEST_P(ReplicaDivergenceTest, EveryTransitionKeepsReplicasInStep) {
  const DivergenceCase& param = GetParam();
  ServiceConfig cfg = BaseConfig(
      param.backend, ("steps_" + param.index + "_" + param.backend).c_str());
  const std::vector<Key> load = LoadKeys(512);
  KvService service(param.index, cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  std::map<Key, std::vector<uint8_t>> model;
  for (Key k : load) {
    std::vector<uint8_t> v(kValueSize);
    FillSyntheticRecordValue(k, v.data(), v.size());
    model[k] = std::move(v);
  }
  std::mt19937_64 rng(0x57e95ull);
  uint64_t tag = 0;
  auto write_some = [&] {
    for (size_t i = 0; i < 100; ++i, ++tag) {
      const Key key = (i % 3 != 0) ? load[rng() % load.size()]
                                   : Key{200'000 + (rng() % 4096)};
      std::vector<uint8_t> value = TaggedValue(tag);
      ASSERT_EQ(service.Put(key, value.data()), RequestStatus::kOk) << tag;
      model[key] = std::move(value);
    }
  };

  ASSERT_NO_FATAL_FAILURE(write_some());
  ASSERT_TRUE(service.SplitShard(0));
  ASSERT_EQ(service.num_shards(), 3u);
  ASSERT_NO_FATAL_FAILURE(ExpectReplicasMatch(service, model));

  ASSERT_NO_FATAL_FAILURE(write_some());
  ASSERT_TRUE(service.MergeShards(0));
  ASSERT_EQ(service.num_shards(), 2u);
  ASSERT_NO_FATAL_FAILURE(ExpectReplicasMatch(service, model));

  ASSERT_NO_FATAL_FAILURE(write_some());
  FailoverReport report = service.FailOverShard(0, /*graceful=*/true);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.lost_records, 0u);
  ASSERT_NO_FATAL_FAILURE(write_some());
  ASSERT_NO_FATAL_FAILURE(ExpectReplicasMatch(service, model));

  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.splits, 1u);
  EXPECT_EQ(stats.merges, 1u);
  EXPECT_EQ(stats.failovers, 1u);
  service.Shutdown();
}

std::string DivergenceName(
    const ::testing::TestParamInfo<DivergenceCase>& info) {
  std::string n = info.param.index + "_" + info.param.backend;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    IndexesAndBackends, ReplicaDivergenceTest,
    ::testing::Values(DivergenceCase{"BTree", "viper"},
                      DivergenceCase{"ALEX", "viper"},
                      DivergenceCase{"PGM", "viper"},
                      DivergenceCase{"BTree", "disk"},
                      DivergenceCase{"ALEX", "disk"}),
    DivergenceName);

// ---------------------------------------------------------------------------
// Read-after-write on a replicated service
// ---------------------------------------------------------------------------

// Write, wait for the ack, then read: the primary serves every read, so
// with replication on under either ack mode each read returns the bytes
// of the write just acked, never a predecessor's. (The name dates from
// replica reads, which could bounce a read back to the primary.)
TEST(ServiceReadYourWrites, BouncePolicyNeverServesStale) {
  for (const ReplicationConfig::AckMode ack :
       {ReplicationConfig::AckMode::kLocal,
        ReplicationConfig::AckMode::kReplicated}) {
    SCOPED_TRACE(ack == ReplicationConfig::AckMode::kLocal ? "local ack"
                                                          : "replicated ack");
    ServiceConfig cfg = BaseConfig("viper", "raw");
    cfg.replication.ack = ack;
    const std::vector<Key> load = LoadKeys(128);
    KvService service("BTree", cfg, load);
    ASSERT_TRUE(service.BulkLoad(load));
    service.Start();

    std::vector<uint8_t> out(kValueSize);
    for (uint64_t i = 0; i < 300; ++i) {
      const Key key = load[i % load.size()];
      std::vector<uint8_t> value = TaggedValue(i);
      ASSERT_EQ(service.Put(key, value.data()), RequestStatus::kOk);
      ASSERT_EQ(service.Get(key, out.data()), RequestStatus::kOk);
      ASSERT_EQ(std::memcmp(out.data(), value.data(), kValueSize), 0)
          << "stale read after acked write, op " << i;
    }
    service.Shutdown();
  }
}

// ---------------------------------------------------------------------------
// Failover through the router
// ---------------------------------------------------------------------------

// Graceful failover: catch the replica up, promote, republish. No writes
// are lost, the snapshot version bumps, and the promoted shard keeps
// serving reads and writes (it gets a fresh replica of its own — a
// second failover of the same range must also work).
TEST(ServiceFailover, GracefulPromotionLosesNothing) {
  ServiceConfig cfg = BaseConfig("viper", "fo_graceful");
  const std::vector<Key> load = LoadKeys(256);
  KvService service("ALEX", cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  std::map<Key, std::vector<uint8_t>> model;
  for (uint64_t i = 0; i < 200; ++i) {
    const Key key = load[(i * 13) % load.size()];
    std::vector<uint8_t> value = TaggedValue(i);
    ASSERT_EQ(service.Put(key, value.data()), RequestStatus::kOk);
    model[key] = std::move(value);
  }
  const uint64_t version_before = service.partition_version();
  FailoverReport report = service.FailOverShard(0, /*graceful=*/true);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.lost_records, 0u);
  EXPECT_GT(report.outage_ns, 0u);
  EXPECT_GT(service.partition_version(), version_before);
  EXPECT_EQ(service.Stats().failovers, 1u);

  std::vector<uint8_t> out(kValueSize);
  for (const auto& [key, want] : model) {
    ASSERT_EQ(service.Get(key, out.data()), RequestStatus::kOk)
        << "key " << key << " lost by graceful failover";
    EXPECT_EQ(std::memcmp(out.data(), want.data(), kValueSize), 0);
  }
  // The promoted shard accepts writes and can fail over again.
  ASSERT_EQ(service.Put(load[0], TaggedValue(999).data()),
            RequestStatus::kOk);
  ASSERT_TRUE(service.WaitReplicasCaughtUp());
  FailoverReport again = service.FailOverShard(0, /*graceful=*/true);
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.lost_records, 0u);
  ASSERT_EQ(service.Get(load[0], out.data()), RequestStatus::kOk);
  EXPECT_EQ(std::memcmp(out.data(), TaggedValue(999).data(), kValueSize), 0);
  service.Shutdown();
}

// Crash failover with semi-sync acks: every kOk was applied on the
// replica, so promoting without a catch-up wait still loses zero acked
// writes — the acceptance bar for the replication subsystem.
TEST(ServiceFailover, ReplicatedAcksMakeCrashFailoverLossless) {
  ServiceConfig cfg = BaseConfig("viper", "fo_synced");
  cfg.replication.ack = ReplicationConfig::AckMode::kReplicated;
  const std::vector<Key> load = LoadKeys(256);
  KvService service("BTree", cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  std::map<Key, std::vector<uint8_t>> model;
  for (uint64_t i = 0; i < 150; ++i) {
    const Key key =
        (i % 2 == 0) ? load[(i * 7) % load.size()] : Key{300'000 + i};
    std::vector<uint8_t> value = TaggedValue(i);
    // kOk under kReplicated means "applied on the replica".
    ASSERT_EQ(service.Put(key, value.data()), RequestStatus::kOk);
    model[key] = std::move(value);
  }
  // Abrupt promotion — no catch-up wait, as if the primary just died.
  FailoverReport report = service.FailOverShard(0, /*graceful=*/false);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.lost_records, 0u)
      << "kReplicated acks must imply the replica already has every "
         "acked write";
  std::vector<uint8_t> out(kValueSize);
  for (const auto& [key, want] : model) {
    ASSERT_EQ(service.Get(key, out.data()), RequestStatus::kOk)
        << "acked write lost by crash failover, key " << key;
    EXPECT_EQ(std::memcmp(out.data(), want.data(), kValueSize), 0);
  }
  service.Shutdown();
}

// Crash failover on a DEAD link under async (kLocal) acks: locally-acked
// writes past the kill point are gone — counted in the report, absent
// from the promoted store (no partial/implied resurrection) — while
// everything shipped before the kill survives byte-for-byte.
TEST(ServiceFailover, DeadLinkCrashFailoverLosesExactlyTheUnshippedTail) {
  ServiceConfig cfg = BaseConfig("viper", "fo_dead");
  const std::vector<Key> load = LoadKeys(64);
  KvService service("BTree", cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  // Fresh keys all landing in shard 0's range (below the first
  // boundary), so the kill's blast radius is exactly shard 0.
  const Key probe = load[0];
  const size_t shard = service.ShardOf(probe);
  auto session = service.replica_session(shard);
  ASSERT_NE(session, nullptr);

  // Phase 1: healthy link; ship and confirm.
  std::map<Key, std::vector<uint8_t>> survivors;
  for (uint64_t i = 0; i < 40; ++i) {
    const Key key = load[i % load.size()];
    if (service.ShardOf(key) != shard) continue;
    std::vector<uint8_t> value = TaggedValue(i);
    ASSERT_EQ(service.Put(key, value.data()), RequestStatus::kOk);
    survivors[key] = std::move(value);
  }
  ASSERT_TRUE(service.WaitReplicasCaughtUp());

  // Phase 2: the link dies. Writes keep acking locally (async mode) but
  // never reach the replica.
  session->transport()->FailAfter(0);
  std::vector<Key> casualties;
  for (uint64_t i = 0; i < 20; ++i) {
    const Key key = 500 + i;  // below load[0]=1000: shard 0's range
    ASSERT_EQ(service.ShardOf(key), shard);
    ASSERT_EQ(service.Put(key, TaggedValue(1000 + i).data()),
              RequestStatus::kOk);
    casualties.push_back(key);
  }
  service.Drain();

  FailoverReport report = service.FailOverShard(shard, /*graceful=*/false);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.lost_records, 20u);
  std::vector<uint8_t> out(kValueSize);
  for (const auto& [key, want] : survivors) {
    ASSERT_EQ(service.Get(key, out.data()), RequestStatus::kOk)
        << "shipped write lost, key " << key;
    EXPECT_EQ(std::memcmp(out.data(), want.data(), kValueSize), 0);
  }
  for (Key key : casualties) {
    EXPECT_EQ(service.Get(key, out.data()), RequestStatus::kNotFound)
        << "unshipped write resurrected, key " << key;
  }
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// Semi-sync group acks: one replication wait per worker batch
// ---------------------------------------------------------------------------

// Completions of one SubmitBatch, in the order the worker fired them.
struct CompletionLog {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<size_t, RequestStatus>> done;

  std::function<void(RequestStatus)> For(size_t i) {
    return [this, i](RequestStatus status) {
      std::lock_guard<std::mutex> lock(mu);
      done.emplace_back(i, status);
      cv.notify_all();
    };
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return done.size();
  }
  bool WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return done.size() >= n; });
  }
};

Request WriteOf(Key key, const std::vector<uint8_t>& value,
                CompletionLog& log, size_t i) {
  Request req;
  req.type = OpType::kUpdate;
  req.key = key;
  req.value = value.data();
  req.done = log.For(i);
  return req;
}

Request ReadOf(Key key, std::vector<uint8_t>& out, CompletionLog& log,
               size_t i) {
  Request req;
  req.type = OpType::kRead;
  req.key = key;
  req.out = out.data();
  req.done = log.For(i);
  return req;
}

class ServiceSemiSyncGroupAck
    : public ::testing::TestWithParam<std::string> {
 protected:
  ServiceConfig Config(const std::string& tag) {
    ServiceConfig cfg =
        BaseConfig(GetParam(), (tag + "_" + GetParam()).c_str());
    cfg.replication.ack = ReplicationConfig::AckMode::kReplicated;
    return cfg;
  }
};

// [R, W, R, W, W] in one batch on a stalled link: the leading read
// completes inline, everything from the first write on waits for the
// batch's one replication ack, and once the link opens the held-back
// requests complete in batch order, all kOk.
TEST_P(ServiceSemiSyncGroupAck, GatedLinkHoldsTheGroupUntilTheLinkOpens) {
  const std::vector<Key> load = LoadKeys(128);
  KvService service("BTree", Config("group_gated"), load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();
  const size_t shard = service.ShardOf(load[0]);
  auto session = service.replica_session(shard);
  ASSERT_NE(session, nullptr);
  const Key a = load[0];
  const Key b = 500;  // below load[0]: shard 0's range
  const Key c = 501;
  ASSERT_EQ(service.ShardOf(a), shard);
  ASSERT_EQ(service.ShardOf(b), shard);
  ASSERT_EQ(service.ShardOf(c), shard);

  const std::vector<uint8_t> va = TaggedValue(1);
  const std::vector<uint8_t> vb = TaggedValue(2);
  const std::vector<uint8_t> vc = TaggedValue(3);
  std::vector<uint8_t> before(kValueSize);
  std::vector<uint8_t> after(kValueSize);
  CompletionLog log;
  std::vector<Request> batch;
  batch.push_back(ReadOf(a, before, log, 0));
  batch.push_back(WriteOf(a, va, log, 1));
  batch.push_back(ReadOf(a, after, log, 2));
  batch.push_back(WriteOf(b, vb, log, 3));
  batch.push_back(WriteOf(c, vc, log, 4));

  session->transport()->SetGated(true);
  service.SubmitBatch(std::move(batch));
  ASSERT_TRUE(log.WaitFor(1)) << "the leading read never completed";
  // Give a wrongly released completion ample time to show up.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(log.mu);
    ASSERT_EQ(log.done.size(), 1u)
        << "a request completed before its group was replicated";
    EXPECT_EQ(log.done[0].first, 0u);
    EXPECT_EQ(log.done[0].second, RequestStatus::kOk);
  }

  session->transport()->SetGated(false);
  service.Drain();
  ASSERT_EQ(log.count(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(log.done[i].first, i) << "completions out of batch order";
    EXPECT_EQ(log.done[i].second, RequestStatus::kOk) << "request " << i;
  }
  std::vector<uint8_t> loaded(kValueSize);
  FillSyntheticRecordValue(a, loaded.data(), loaded.size());
  EXPECT_EQ(before, loaded);
  EXPECT_EQ(after, va) << "the held-back read ran out of queue order";
  EXPECT_EQ(session->Stats().ack_failures, 0u);
  service.Shutdown();
}

// A group of m writes on a link that dies after k deliveries: exactly the
// first k writes ack kOk, the rest kRetry with one ack failure each, and
// a crash failover then keeps every kOk write and loses the m - k others.
TEST_P(ServiceSemiSyncGroupAck, PartialDeliveryAcksExactlyTheDeliveredPrefix) {
  constexpr size_t kWrites = 6;
  for (uint64_t k : {uint64_t{0}, uint64_t{2}, uint64_t{5},
                     uint64_t{kWrites}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::vector<Key> load = LoadKeys(64);
    KvService service("BTree", Config("group_partial_" + std::to_string(k)),
                      load);
    ASSERT_TRUE(service.BulkLoad(load));
    service.Start();
    const size_t shard = service.ShardOf(load[0]);
    auto session = service.replica_session(shard);
    ASSERT_NE(session, nullptr);

    std::vector<std::vector<uint8_t>> values;
    for (size_t i = 0; i < kWrites; ++i) values.push_back(TaggedValue(i));
    CompletionLog log;
    std::vector<Request> batch;
    for (size_t i = 0; i < kWrites; ++i) {
      const Key key = 500 + i;  // fresh keys in shard 0's range
      ASSERT_EQ(service.ShardOf(key), shard);
      batch.push_back(WriteOf(key, values[i], log, i));
    }
    session->transport()->FailAfter(k);
    service.SubmitBatch(std::move(batch));
    service.Drain();

    ASSERT_EQ(log.count(), kWrites);
    for (size_t i = 0; i < kWrites; ++i) {
      EXPECT_EQ(log.done[i].first, i);
      EXPECT_EQ(log.done[i].second,
                i < k ? RequestStatus::kOk : RequestStatus::kRetry)
          << "write " << i;
    }
    EXPECT_EQ(session->Stats().ack_failures, kWrites - k);

    FailoverReport report = service.FailOverShard(shard, /*graceful=*/false);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.lost_records, kWrites - k);
    std::vector<uint8_t> out(kValueSize);
    for (size_t i = 0; i < kWrites; ++i) {
      if (i < k) {
        ASSERT_EQ(service.Get(500 + i, out.data()), RequestStatus::kOk)
            << "kOk write " << i << " lost by crash failover";
        EXPECT_EQ(out, values[i]);
      } else {
        EXPECT_EQ(service.Get(500 + i, out.data()), RequestStatus::kNotFound)
            << "kRetry write " << i << " resurrected";
      }
    }
    service.Shutdown();
  }
}

// ReplicatedAcksMakeCrashFailoverLossless with the writes sent as
// multi-write batches, so every ack is a group ack.
TEST_P(ServiceSemiSyncGroupAck, BatchedAcksMakeCrashFailoverLossless) {
  const std::vector<Key> load = LoadKeys(256);
  KvService service("BTree", Config("group_lossless"), load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  constexpr size_t kWrites = 150;
  constexpr size_t kBatch = 32;
  std::vector<Key> keys;
  std::vector<std::vector<uint8_t>> values;
  for (uint64_t i = 0; i < kWrites; ++i) {
    keys.push_back((i % 2 == 0) ? load[(i * 7) % load.size()]
                                : Key{300'000 + i});
    values.push_back(TaggedValue(i));
  }
  CompletionLog log;
  for (size_t first = 0; first < kWrites; first += kBatch) {
    std::vector<Request> batch;
    for (size_t i = first; i < std::min(kWrites, first + kBatch); ++i) {
      batch.push_back(WriteOf(keys[i], values[i], log, i));
    }
    service.SubmitBatch(std::move(batch));
  }
  service.Drain();
  ASSERT_EQ(log.count(), kWrites);
  for (const auto& [i, status] : log.done) {
    // kOk under kReplicated means "applied on the replica".
    ASSERT_EQ(status, RequestStatus::kOk) << "write " << i;
  }
  // Abrupt promotion — no catch-up wait, as if the primary just died.
  FailoverReport report = service.FailOverShard(0, /*graceful=*/false);
  ASSERT_TRUE(report.ok);
  EXPECT_EQ(report.lost_records, 0u)
      << "group acks must imply the replica already has every acked write";
  std::vector<uint8_t> out(kValueSize);
  for (size_t i = 0; i < kWrites; ++i) {
    ASSERT_EQ(service.Get(keys[i], out.data()), RequestStatus::kOk)
        << "acked write lost by crash failover, key " << keys[i];
    EXPECT_EQ(out, values[i]);
  }
  service.Shutdown();
}

// Four writer lanes per shard await their own group acks at once and
// share each session's ship token. Every kOk write must already be on the
// replica when the client sees it, the replica must match the primary
// byte for byte once caught up, and a crash failover must keep every kOk
// write.
TEST_P(ServiceSemiSyncGroupAck, LanesShareTheShipLock) {
  ServiceConfig cfg = Config("lanes");
  cfg.writers_per_shard = 4;
  const std::vector<Key> load = LoadKeys(512);
  KvService service("ALEX", cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 12;
  constexpr size_t kBatch = 16;
  // Every key is written once: even writes update a loaded key, odd ones
  // insert the key just above it, and no two clients share a key.
  auto key_of = [&](size_t client, size_t n) {
    const Key base = load[(n / 2) * kClients + client];
    return n % 2 == 0 ? base : base + 1;
  };
  std::vector<std::map<Key, std::vector<uint8_t>>> acked(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRounds; ++r) {
        std::vector<Key> keys;
        std::vector<std::vector<uint8_t>> values;
        for (size_t i = 0; i < kBatch; ++i) {
          const size_t n = r * kBatch + i;
          keys.push_back(key_of(c, n));
          values.push_back(TaggedValue(c * 100'000 + n));
        }
        CompletionLog log;
        std::vector<Request> batch;
        for (size_t i = 0; i < kBatch; ++i) {
          batch.push_back(WriteOf(keys[i], values[i], log, i));
        }
        service.SubmitBatch(std::move(batch));
        if (!log.WaitFor(kBatch)) {
          ADD_FAILURE() << "client " << c << " round " << r << " hung";
          return;
        }
        std::lock_guard<std::mutex> lock(log.mu);
        for (const auto& [i, status] : log.done) {
          EXPECT_EQ(status, RequestStatus::kOk) << "key " << keys[i];
          if (status == RequestStatus::kOk) acked[c][keys[i]] = values[i];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::vector<uint8_t> out(kValueSize);
  bool gone = false;
  for (const auto& model : acked) {
    for (const auto& [key, want] : model) {
      auto session = service.replica_session(service.ShardOf(key));
      ASSERT_NE(session, nullptr);
      ASSERT_TRUE(session->replica()->Get(key, out.data(), &gone))
          << "kOk write missing on the replica, key " << key;
      EXPECT_EQ(out, want) << "key " << key;
    }
  }
  ASSERT_TRUE(service.WaitReplicasCaughtUp());
  std::vector<uint8_t> primary(kValueSize);
  for (const auto& model : acked) {
    for (const auto& [key, want] : model) {
      auto session = service.replica_session(service.ShardOf(key));
      ASSERT_TRUE(session->replica()->Get(key, out.data(), &gone));
      ASSERT_EQ(service.Get(key, primary.data()), RequestStatus::kOk);
      EXPECT_EQ(out, primary) << "replica diverged, key " << key;
    }
  }
  for (size_t s = 0; s < cfg.num_shards; ++s) {
    EXPECT_EQ(service.replica_session(s)->Stats().ack_failures, 0u);
    FailoverReport report = service.FailOverShard(s, /*graceful=*/false);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.lost_records, 0u) << "shard " << s;
  }
  for (const auto& model : acked) {
    for (const auto& [key, want] : model) {
      ASSERT_EQ(service.Get(key, out.data()), RequestStatus::kOk)
          << "kOk write lost by crash failover, key " << key;
      EXPECT_EQ(out, want) << "key " << key;
    }
  }
  service.Shutdown();
}

// LanesShareTheShipLock checks the replica only after every client has
// joined, when a write acked early has long since shipped. Here the check
// runs inside each write's `done`, the moment the client learns of it: a
// kOk must already be readable on the replica, with four writer lanes
// per shard awaiting their own acks on a healthy link.
TEST_P(ServiceSemiSyncGroupAck, EveryOkIsOnTheReplicaWhenItCompletes) {
  ServiceConfig cfg = Config("ack_time");
  cfg.writers_per_shard = 4;
  const std::vector<Key> load = LoadKeys(512);
  KvService service("ALEX", cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 12;
  constexpr size_t kBatch = 16;
  // As in LanesShareTheShipLock: every key is written once, so the
  // replica holds the written value exactly when it has the write.
  auto key_of = [&](size_t client, size_t n) {
    const Key base = load[(n / 2) * kClients + client];
    return n % 2 == 0 ? base : base + 1;
  };
  std::atomic<size_t> oks{0};
  std::atomic<size_t> early{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kRounds; ++r) {
        std::vector<std::vector<uint8_t>> values;
        for (size_t i = 0; i < kBatch; ++i) {
          values.push_back(TaggedValue(c * 100'000 + r * kBatch + i));
        }
        CompletionLog log;
        std::vector<Request> batch;
        for (size_t i = 0; i < kBatch; ++i) {
          const Key key = key_of(c, r * kBatch + i);
          auto session = service.replica_session(service.ShardOf(key));
          ASSERT_NE(session, nullptr);
          Request req = WriteOf(key, values[i], log, i);
          req.done = [&, key, session, want = &values[i],
                      record = log.For(i)](RequestStatus status) {
            if (status == RequestStatus::kOk) {
              oks.fetch_add(1, std::memory_order_relaxed);
              std::vector<uint8_t> out(kValueSize);
              bool gone = false;
              if (!session->replica()->Get(key, out.data(), &gone) ||
                  out != *want) {
                early.fetch_add(1, std::memory_order_relaxed);
              }
            }
            record(status);
          };
          batch.push_back(std::move(req));
        }
        service.SubmitBatch(std::move(batch));
        if (!log.WaitFor(kBatch)) {
          ADD_FAILURE() << "client " << c << " round " << r << " hung";
          return;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(oks.load(), kClients * kRounds * kBatch);
  EXPECT_EQ(early.load(), 0u)
      << "kOk writes not yet on the replica when they completed";
  service.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ServiceSemiSyncGroupAck, ::testing::Values("viper", "disk"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// Failover is refused cleanly when replication is off.
TEST(ServiceFailover, RefusedWithoutReplication) {
  ServiceConfig cfg = BaseConfig("viper", "fo_off");
  cfg.replication.enabled = false;
  const std::vector<Key> load = LoadKeys(32);
  KvService service("BTree", cfg, load);
  ASSERT_TRUE(service.BulkLoad(load));
  service.Start();
  FailoverReport report = service.FailOverShard(0, true);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(service.Stats().failovers, 0u);
  service.Shutdown();
}

}  // namespace
}  // namespace pieces::service
