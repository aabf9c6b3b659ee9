// Differential conformance: every registered index (and ViperStore on top
// of every updatable index) against a std::map oracle through >= 100k
// interleaved ops per index. A failure prints the seed, index name and a
// delta-minimized op prefix; rerun one seed with PIECES_DIFF_SEED=<n>.
#include <string>

#include <gtest/gtest.h>

#include "differential_harness.h"
#include "index/registry.h"

namespace pieces {
namespace {

class IndexDifferentialTest : public ::testing::TestWithParam<std::string> {};

// Mixed zipfian stream over the YCSB-style uniform key space.
TEST_P(IndexDifferentialTest, MixedZipfianYcsb) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed();
  cfg.dataset = "ycsb";
  cfg.load_keys = 20000;
  cfg.ops = 40000;
  DiffResult res = RunIndexDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_GE(res.ops_executed, cfg.ops);
}

// Adversarial keys: dense runs, near-UINT64_MAX tail, clustered gaps.
TEST_P(IndexDifferentialTest, AdversarialKeys) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + 1;
  cfg.dataset = "adversarial";
  cfg.load_keys = 15000;
  cfg.ops = 30000;
  cfg.scan_len = 32;
  DiffResult res = RunIndexDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
}

// Latest-biased appends over a dense sequential space plus periodic
// recovery (bulk re-load from a snapshot mid-stream, Fig. 16 semantics).
TEST_P(IndexDifferentialTest, SequentialLatestWithRecovery) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + 2;
  cfg.dataset = "sequential";
  cfg.load_keys = 15000;
  cfg.ops = 30000;
  cfg.pick = KeyPick::kLatest;
  cfg.insert_pct = 30;
  cfg.update_pct = 10;
  cfg.recover_every = 5000;
  DiffResult res = RunIndexDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
}

// Heavily skewed FACE-like key space, uniform request keys.
TEST_P(IndexDifferentialTest, FaceUniform) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + 3;
  cfg.dataset = "face";
  cfg.load_keys = 15000;
  cfg.ops = 20000;
  cfg.pick = KeyPick::kUniform;
  DiffResult res = RunIndexDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
}

// Buffer-saturating insert-heavy stream over dense sequential keys: the
// write share keeps every insert buffer at its retrain trigger, so the
// merge/dedup paths (buffer entry shadowing a main-array key must resolve
// to the newest value) run continuously rather than occasionally.
TEST_P(IndexDifferentialTest, BufferSaturatingInsertHeavy) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + 6;
  cfg.dataset = "sequential";
  cfg.load_keys = 15000;
  cfg.ops = 40000;
  cfg.read_pct = 15;
  cfg.update_pct = 20;
  cfg.insert_pct = 60;
  cfg.rmw_pct = 0;
  cfg.scan_pct = 5;
  cfg.pick = KeyPick::kZipfian;
  DiffResult res = RunIndexDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, IndexDifferentialTest,
                         ::testing::ValuesIn(AllIndexNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class StoreDifferentialTest : public ::testing::TestWithParam<std::string> {};

// End-to-end through ViperStore: full value payloads verified on every
// read, ViperStore::Recover exercised mid-stream.
TEST_P(StoreDifferentialTest, MixedStreamWithRecovery) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + 4;
  cfg.dataset = "ycsb";
  cfg.load_keys = 8000;
  cfg.ops = 15000;
  cfg.scan_len = 32;
  cfg.recover_every = 4000;
  DiffResult res = RunStoreDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
}

TEST_P(StoreDifferentialTest, AdversarialKeys) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + 5;
  cfg.dataset = "adversarial";
  cfg.load_keys = 6000;
  cfg.ops = 10000;
  cfg.scan_len = 16;
  DiffResult res = RunStoreDifferential(GetParam(), cfg);
  EXPECT_TRUE(res.ok) << res.report;
}

INSTANTIATE_TEST_SUITE_P(UpdatableIndexes, StoreDifferentialTest,
                         ::testing::ValuesIn(UpdatableIndexNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace pieces
