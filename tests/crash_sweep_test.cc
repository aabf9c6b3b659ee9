// Crash-point fault-injection sweep (the durability contract, proven by
// exhaustion): for every updatable index, replay a seeded mixed workload
// against ViperStore and crash at EVERY persist barrier the stream
// crosses — and, for a dense tear sweep, with every interesting torn-
// write prefix of the crashing barrier's range. After each crash the
// recovered store must hold exactly the acknowledged-durable ops (plus
// the in-flight put only when its commit header deterministically became
// durable). Failures minimize to a replayable op prefix, same as the
// differential suite.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential_harness.h"
#include "index/registry.h"
#include "store/crash_controller.h"
#include "store/viper.h"

namespace pieces {
namespace {

constexpr int64_t kNoTear = CrashController::kNoTear;

uint64_t BaseSeed() {
  const char* env = std::getenv("PIECES_DIFF_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 0x5eedull;
}

// Small stream: the sweep replays it once per (barrier, tear) pair, so
// total work is quadratic in the put count.
DiffConfig SweepConfig(uint64_t seed_offset) {
  DiffConfig cfg;
  cfg.seed = BaseSeed() + seed_offset;
  cfg.dataset = "ycsb";
  cfg.load_keys = 256;
  cfg.ops = 96;
  return cfg;
}

class CrashSweepTest : public ::testing::TestWithParam<std::string> {};

// Every persist barrier, clean power cut (nothing of the crashing
// barrier's range survives).
TEST_P(CrashSweepTest, EveryPersistPoint) {
  CrashSweepResult res = RunCrashSweep(GetParam(), SweepConfig(0), {kNoTear});
  EXPECT_TRUE(res.ok) << res.report;
  // The stream writes, so there are barriers to crash at, and each was hit.
  EXPECT_GT(res.crash_points, 0u);
  EXPECT_EQ(res.runs, res.crash_points);
}

INSTANTIATE_TEST_SUITE_P(AllUpdatable, CrashSweepTest,
                         ::testing::ValuesIn(UpdatableIndexNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// Dense torn-write sweep on two representative indexes (a traditional and
// a learned one): tears below, at, and beyond the 16-byte commit header,
// including the 8/15-byte prefixes that leave seqno+crc plausible but the
// trailing magic incomplete.
class TornWriteSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TornWriteSweepTest, DenseTearOffsets) {
  static_assert(sizeof(RecordHeader) == 16);
  CrashSweepResult res = RunCrashSweep(GetParam(), SweepConfig(1),
                                       {kNoTear, 1, 7, 8, 15, 16, 23});
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_EQ(res.runs, res.crash_points * 7);
}

INSTANTIATE_TEST_SUITE_P(Representative, TornWriteSweepTest,
                         ::testing::Values("BTree", "ALEX"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// BulkLoad's batched per-page barriers: crash at every span barrier x
// tear offset; the recovered store must hold exactly the durable prefix
// (full spans plus the torn span's complete records). Runs against every
// index — bulk load is supported by all 14.
class BulkLoadCrashSweepTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BulkLoadCrashSweepTest, ExactDurablePrefix) {
  // Record is 8 (key) + 24 (value) + 16 (header) = 48 bytes; tears cover
  // nothing, a torn first record, exactly one record, one-and-a-bit, and
  // several records.
  CrashSweepResult res = RunBulkLoadCrashSweep(
      GetParam(), 256, {kNoTear, 1, 47, 48, 49, 96, 500}, BaseSeed());
  EXPECT_TRUE(res.ok) << res.report;
  // 256 keys at 64 slots/page = 4 page-span barriers.
  EXPECT_EQ(res.crash_points, 4u);
  EXPECT_EQ(res.runs, 4u * 7);
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, BulkLoadCrashSweepTest,
                         ::testing::ValuesIn(AllIndexNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// The differential harness's crash_before_recover mode: a long mixed
// stream with periodic power failures at quiescent points — every
// acknowledged op must survive each outage.
TEST(CrashBeforeRecoverTest, PeriodicPowerFailuresLoseNothing) {
  for (const std::string& name : {std::string("BTree"), std::string("ALEX")}) {
    DiffConfig cfg;
    cfg.seed = BaseSeed() + 7;
    cfg.load_keys = 2000;
    cfg.ops = 4000;
    cfg.recover_every = 500;
    cfg.crash_before_recover = true;
    DiffResult res = RunStoreDifferential(name, cfg);
    EXPECT_TRUE(res.ok) << name << ":\n" << res.report;
  }
}

}  // namespace
}  // namespace pieces
