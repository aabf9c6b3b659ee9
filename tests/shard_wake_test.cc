// The bounded spin before a shard worker parks (common/spin_wait.h,
// Shard::WorkerLoop): the helper's contract, and lost-wakeup stress on
// one-lane and multi-lane shards with arrival gaps drawn around the spin
// budget, so batches land on a worker that is busy, spinning, just giving
// up the spin, or parked. The SpinWait and ShardWake suite names are part
// of the TSan CI filter.
#include "common/spin_wait.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "index/registry.h"
#include "service/shard.h"
#include "store/viper.h"

namespace pieces {
namespace {

using std::chrono::microseconds;
using std::chrono::steady_clock;

TEST(SpinWaitTest, ReturnsTrueOnTheFirstReadyPoll) {
  int polls = 0;
  EXPECT_TRUE(SpinUntil([&] { return ++polls == 1; }));
  EXPECT_EQ(polls, 1);
  polls = 0;
  EXPECT_TRUE(SpinUntil([&] { return ++polls == 100; }));
  EXPECT_EQ(polls, 100);
}

TEST(SpinWaitTest, ReturnsFalseOnceTheBudgetEnds) {
  const auto start = steady_clock::now();
  EXPECT_FALSE(SpinUntil([] { return false; }));
  EXPECT_GE(steady_clock::now() - start, kSpinBudget);
}

TEST(SpinWaitTest, ChecksOnceWhenEverySpinnerCannotHaveACore) {
  std::vector<std::unique_ptr<SpinnerScope>> spinners;
  while (spin_internal::spinners.load() < spin_internal::kCores) {
    spinners.push_back(std::make_unique<SpinnerScope>());
  }
  int polls = 0;
  EXPECT_FALSE(SpinUntil([&] { return ++polls > 1; }));
  EXPECT_EQ(polls, 1);
  // One below the cap, the second poll (the first inside the spin) runs.
  spinners.pop_back();
  polls = 0;
  EXPECT_TRUE(SpinUntil([&] { return ++polls > 1; }));
  EXPECT_EQ(polls, 2);
}

}  // namespace

namespace service {
namespace {

// Waits for `done` to reach `target`, failing (instead of hanging) after a
// bound far above any wake-up latency: a lost wake-up leaves the request
// queued behind a parked worker forever.
::testing::AssertionResult ReachesWithin(const std::atomic<size_t>& done,
                                         size_t target) {
  const auto deadline = steady_clock::now() + std::chrono::seconds(20);
  while (done.load(std::memory_order_acquire) < target) {
    if (steady_clock::now() > deadline) {
      return ::testing::AssertionFailure()
             << done.load() << " of " << target << " requests completed";
    }
    std::this_thread::yield();
  }
  return ::testing::AssertionSuccess();
}

void BusyWait(microseconds gap) {
  const auto until = steady_clock::now() + gap;
  while (steady_clock::now() < until) {
  }
}

class ShardWakeTest : public ::testing::TestWithParam<size_t> {
 protected:
  // ALEX takes concurrent writers, so the parameter is the lane count. Two
  // lanes, not more, so both workers still spin on a 4-core machine.
  std::unique_ptr<Shard> MakeShard(size_t queue_capacity = 1024) {
    ViperStore::Config cfg;
    cfg.value_size = 16;
    cfg.pmem_capacity = size_t{16} << 20;
    auto store = std::make_unique<ViperStore>(MakeIndex("ALEX"), cfg);
    std::vector<Key> keys;
    for (Key k = 1; k <= 1000; ++k) keys.push_back(k * 16);
    EXPECT_TRUE(store->BulkLoad(keys));
    auto shard = std::make_unique<Shard>(0, std::move(store), queue_capacity,
                                         MaintenanceConfig{}, GetParam());
    EXPECT_EQ(shard->writers(), GetParam());
    return shard;
  }

  // A one-request batch whose completion bumps `done`.
  static std::vector<Request> One(Key key, OpType type,
                                  std::atomic<size_t>* done) {
    std::vector<Request> batch(1);
    batch[0].type = type;
    batch[0].key = key;
    batch[0].done = [done](RequestStatus) {
      done->fetch_add(1, std::memory_order_release);
    };
    return batch;
  }
};

TEST_P(ShardWakeTest, EveryRequestCompletesAcrossGapsAroundTheBudget) {
  auto shard = MakeShard();
  shard->Start();
  // 0, just under, just over and several times the spin budget.
  const microseconds gaps[] = {microseconds(0), kSpinBudget - microseconds(5),
                               kSpinBudget + microseconds(5), kSpinBudget * 4};
  std::mt19937_64 rng(7);
  std::atomic<size_t> done{0};
  size_t sent = 0;
  for (int i = 0; i < 2000; ++i) {
    const Key key = 1 + rng() % 20000;
    const OpType type = i % 4 == 0 ? OpType::kInsert : OpType::kRead;
    ASSERT_EQ(shard->Enqueue(One(key, type, &done), AdmissionPolicy::kBlock),
              Shard::EnqueueResult::kAccepted);
    ++sent;
    // The worker goes idle right after this completion: the gap decides
    // whether the next batch finds it spinning, leaving the spin, or
    // parked. Waiting here makes each wake-up count on its own instead of
    // being rescued by the next Enqueue.
    ASSERT_TRUE(ReachesWithin(done, sent)) << "request " << i;
    BusyWait(gaps[rng() % 4]);
  }
  shard->Drain();
  EXPECT_EQ(done.load(), sent);
  shard->Stop();
}

TEST_P(ShardWakeTest, BackToBackBurstsDrain) {
  // No per-request wait: batches pile up behind busy and spinning workers
  // alike, and Drain must still see every one executed.
  auto shard = MakeShard(/*queue_capacity=*/16);
  shard->Start();
  std::mt19937_64 rng(11);
  std::atomic<size_t> done{0};
  size_t sent = 0;
  for (int burst = 0; burst < 40; ++burst) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(shard->Enqueue(One(1 + rng() % 20000, OpType::kRead, &done),
                               AdmissionPolicy::kBlock),
                Shard::EnqueueResult::kAccepted);
      ++sent;
    }
    BusyWait(burst % 2 == 0 ? kSpinBudget / 2 : kSpinBudget * 2);
  }
  ASSERT_TRUE(ReachesWithin(done, sent));
  shard->Drain();
  EXPECT_EQ(done.load(), sent);
  EXPECT_EQ(shard->QueueDepth(), 0u);
}

TEST_P(ShardWakeTest, StopWhileSpinningExecutesEveryAcceptedRequest) {
  for (int round = 0; round < 20; ++round) {
    auto shard = MakeShard();
    shard->Start();
    std::atomic<size_t> done{0};
    ASSERT_EQ(shard->Enqueue(One(5, OpType::kRead, &done),
                             AdmissionPolicy::kBlock),
              Shard::EnqueueResult::kAccepted);
    // Its worker has just finished a batch and is now inside its spin.
    ASSERT_TRUE(ReachesWithin(done, 1));
    size_t accepted = 1;
    // Odd rounds queue more work first, so Stop also has to drain it.
    for (int i = 0; round % 2 == 1 && i < 30; ++i) {
      ASSERT_EQ(shard->Enqueue(One(16 * (i + 1), OpType::kRead, &done),
                               AdmissionPolicy::kBlock),
                Shard::EnqueueResult::kAccepted);
      ++accepted;
    }
    shard->Stop();
    EXPECT_EQ(done.load(), accepted) << "round " << round;
    EXPECT_EQ(shard->Enqueue(One(5, OpType::kRead, &done),
                             AdmissionPolicy::kBlock),
              Shard::EnqueueResult::kShutdown);
  }
}

TEST_P(ShardWakeTest, RetireEndsTheSpinAndQueuedWorkStillRuns) {
  auto shard = MakeShard();
  shard->Start();
  std::atomic<size_t> done{0};
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(shard->Enqueue(One(16 * (i + 1), OpType::kRead, &done),
                             AdmissionPolicy::kBlock),
              Shard::EnqueueResult::kAccepted);
  }
  shard->BeginRetire();
  EXPECT_EQ(shard->Enqueue(One(5, OpType::kRead, &done),
                           AdmissionPolicy::kBlock),
            Shard::EnqueueResult::kRetired);
  shard->Drain();
  EXPECT_EQ(done.load(), 30u);
  shard->Stop();
}

INSTANTIATE_TEST_SUITE_P(Lanes, ShardWakeTest, ::testing::Values(size_t{1}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 1 ? std::string("OneLane")
                                                  : std::string("TwoLanes");
                         });

}  // namespace
}  // namespace service
}  // namespace pieces
