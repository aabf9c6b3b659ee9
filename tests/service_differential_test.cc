// Differential test for the sharded KV service: replay a seeded mixed
// workload through KvService and through a trivially-correct ordered-set
// oracle, comparing every read status, every read payload (values are
// the store's deterministic synthetic function of the key, so the oracle
// only tracks presence), every scan result, and the final state.
//
// The suite name contains "Differential" on purpose: the CI sanitizer
// matrix (ASan/TSan) selects suites by that pattern, and the concurrent
// phase below is exactly the kind of test TSan is for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "service/router.h"
#include "workload/datasets.h"
#include "workload/ycsb.h"

namespace pieces::service {
namespace {

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

ServiceConfig TestConfig(size_t shards) {
  ServiceConfig cfg;
  cfg.num_shards = shards;
  cfg.queue_capacity = 1024;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.store.value_size = 64;
  cfg.store.pmem_capacity = size_t{128} << 20;
  return cfg;
}

// Compares the full service state against the oracle key set: key count,
// a whole-keyspace scan, and a payload check on a sample of keys.
void ExpectFinalStateMatches(KvService* svc, const std::set<Key>& oracle) {
  // ViperStore counts every successful put (updates claim a fresh slot,
  // out-of-place), so TotalKeys is an upper bound on distinct keys; the
  // whole-keyspace scan below is the exact distinct-key comparison.
  ASSERT_GE(svc->TotalKeys(), oracle.size());

  std::vector<Key> scanned;
  ASSERT_EQ(svc->Scan(0, oracle.size() + 16, &scanned), RequestStatus::kOk);
  std::vector<Key> expected(oracle.begin(), oracle.end());
  EXPECT_EQ(scanned, expected);

  std::vector<uint8_t> got(svc->value_size());
  std::vector<uint8_t> want(svc->value_size());
  size_t i = 0;
  for (Key k : oracle) {
    if (i++ % 37 != 0) continue;  // Sample; full scan already compared keys.
    ASSERT_EQ(svc->Get(k, got.data()), RequestStatus::kOk) << k;
    FillSyntheticRecordValue(k, want.data(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0) << k;
  }
}

class ServiceDifferentialTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ServiceDifferentialTest, SequentialMixedWorkloadMatchesOracle) {
  std::vector<Key> all = MakeUniformKeys(4096, 31);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  KvService svc(GetParam(), TestConfig(4), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();
  std::set<Key> oracle(load.begin(), load.end());

  WorkloadSpec spec;
  spec.read_pct = 40;
  spec.update_pct = 25;
  spec.insert_pct = 20;
  spec.rmw_pct = 10;
  spec.scan_pct = 5;
  spec.scan_len = 64;
  std::vector<Op> ops = GenerateOps(spec, 3000, load, inserts, 1234);

  std::vector<uint8_t> got(svc.value_size());
  std::vector<uint8_t> want(svc.value_size());
  for (const Op& op : ops) {
    switch (op.type) {
      case OpType::kRead: {
        RequestStatus st = svc.Get(op.key, got.data());
        if (oracle.count(op.key) != 0) {
          ASSERT_EQ(st, RequestStatus::kOk) << op.key;
          FillSyntheticRecordValue(op.key, want.data(), want.size());
          ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size()), 0)
              << op.key;
        } else {
          ASSERT_EQ(st, RequestStatus::kNotFound) << op.key;
        }
        break;
      }
      case OpType::kUpdate:
      case OpType::kInsert:
        ASSERT_EQ(svc.Put(op.key), RequestStatus::kOk) << op.key;
        oracle.insert(op.key);
        break;
      case OpType::kReadModifyWrite: {
        Request req;
        req.type = OpType::kReadModifyWrite;
        req.key = op.key;
        RequestStatus st = DoSync(&svc, std::move(req));
        ASSERT_EQ(st, oracle.count(op.key) != 0 ? RequestStatus::kOk
                                                : RequestStatus::kNotFound)
            << op.key;
        break;
      }
      case OpType::kScan: {
        std::vector<Key> scanned;
        ASSERT_EQ(svc.Scan(op.key, op.scan_len, &scanned), RequestStatus::kOk);
        std::vector<Key> expected;
        for (auto it = oracle.lower_bound(op.key);
             it != oracle.end() && expected.size() < op.scan_len; ++it) {
          expected.push_back(*it);
        }
        ASSERT_EQ(scanned, expected) << "scan from " << op.key;
        break;
      }
    }
  }
  ExpectFinalStateMatches(&svc, oracle);
}

TEST_P(ServiceDifferentialTest, ConcurrentClientsConvergeToOracleState) {
  // Four client threads hammer the service concurrently: disjoint insert
  // streams (so the final state is deterministic) interleaved with reads
  // of the bulk-loaded keys whose payloads are verified in flight.
  // Synthetic values are a pure function of the key, so interleaving
  // cannot produce a third state — the oracle is load ∪ all pools.
  std::vector<Key> all = MakeUniformKeys(8192, 43);
  std::vector<Key> load, inserts;
  SplitLoadAndInserts(all, 4, &load, &inserts);

  KvService svc(GetParam(), TestConfig(2), load);
  ASSERT_TRUE(svc.BulkLoad(load));
  svc.Start();

  const size_t kClients = 4;
  std::atomic<int> payload_mismatches{0};
  std::atomic<int> bad_statuses{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<uint8_t> got(svc.value_size());
      std::vector<uint8_t> want(svc.value_size());
      // Disjoint slice of the insert pool: client c takes i % kClients == c.
      for (size_t i = c; i < inserts.size(); i += kClients) {
        if (svc.Put(inserts[i]) != RequestStatus::kOk) {
          bad_statuses.fetch_add(1);
        }
        // Interleave a verified read of a loaded key.
        Key k = load[(i * 2654435761u) % load.size()];
        if (svc.Get(k, got.data()) != RequestStatus::kOk) {
          bad_statuses.fetch_add(1);
          continue;
        }
        FillSyntheticRecordValue(k, want.data(), want.size());
        if (std::memcmp(got.data(), want.data(), got.size()) != 0) {
          payload_mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  svc.Drain();

  EXPECT_EQ(bad_statuses.load(), 0);
  EXPECT_EQ(payload_mismatches.load(), 0);
  std::set<Key> oracle(load.begin(), load.end());
  oracle.insert(inserts.begin(), inserts.end());
  ExpectFinalStateMatches(&svc, oracle);
}

INSTANTIATE_TEST_SUITE_P(Indexes, ServiceDifferentialTest,
                         ::testing::Values("BTree", "ALEX", "PGM"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace pieces::service
