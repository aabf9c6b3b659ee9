// Property tests for the approximation algorithms — these encode the
// paper's §IV-A claims as invariants:
//  * Opt-PLA and Greedy-PLA respect the requested max error;
//  * Opt-PLA never produces more segments than Greedy-PLA (optimality);
//  * LSA-gap achieves lower mean error than LSA at equal segmentation;
//  * the greedy spline respects its error corridor.
#include <algorithm>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "pla/greedy_pla.h"
#include "pla/lsa.h"
#include "pla/optimal_pla.h"
#include "pla/segment.h"
#include "pla/spline.h"
#include "workload/datasets.h"

namespace pieces {
namespace {

struct Case {
  const char* dataset;
  size_t n;
  size_t eps;
};

// Without this gtest prints a Case as its raw bytes, which include the
// dataset pointer; the test names would then change from run to run.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.dataset << "_n" << c.n << "_eps" << c.eps;
}

class PlaPropertyTest : public ::testing::TestWithParam<Case> {};

void CheckSegmentsCoverAll(const PlaResult& r, size_t n) {
  size_t covered = 0;
  size_t expected_base = 0;
  for (const Segment& s : r.segments) {
    EXPECT_EQ(s.base_rank, expected_base);
    EXPECT_GE(s.count, 1u);
    covered += s.count;
    expected_base += s.count;
  }
  EXPECT_EQ(covered, n);
}

TEST_P(PlaPropertyTest, OptimalPlaRespectsErrorBound) {
  const Case& c = GetParam();
  std::vector<uint64_t> keys = MakeKeys(c.dataset, c.n, 11);
  PlaResult r = BuildOptimalPla(keys.data(), keys.size(), c.eps);
  CheckSegmentsCoverAll(r, keys.size());
  // +1 covers the floor() of real-valued predictions; the index search
  // windows are sized eps+1 for exactly this reason.
  EXPECT_LE(r.max_error, c.eps + 1) << c.dataset;
  EXPECT_LE(r.mean_error, static_cast<double>(c.eps) + 1);
}

TEST_P(PlaPropertyTest, GreedyPlaRespectsErrorBound) {
  const Case& c = GetParam();
  std::vector<uint64_t> keys = MakeKeys(c.dataset, c.n, 11);
  PlaResult r = BuildGreedyPla(keys.data(), keys.size(), c.eps);
  CheckSegmentsCoverAll(r, keys.size());
  EXPECT_LE(r.max_error, c.eps + 1) << c.dataset;
}

TEST_P(PlaPropertyTest, OptimalNeverWorseThanGreedy) {
  const Case& c = GetParam();
  std::vector<uint64_t> keys = MakeKeys(c.dataset, c.n, 11);
  PlaResult opt = BuildOptimalPla(keys.data(), keys.size(), c.eps);
  PlaResult greedy = BuildGreedyPla(keys.data(), keys.size(), c.eps);
  EXPECT_LE(opt.segments.size(), greedy.segments.size()) << c.dataset;
}

TEST_P(PlaPropertyTest, SplineRespectsErrorBound) {
  const Case& c = GetParam();
  std::vector<uint64_t> keys = MakeKeys(c.dataset, c.n, 11);
  SplineResult r = BuildGreedySpline(keys.data(), keys.size(), c.eps);
  // The corridor restart re-anchors at the previous point, which can cost
  // one extra rank of slack in rare boundary cases; 2*eps is the safe
  // envelope the index search window uses.
  EXPECT_LE(r.max_error, 2 * c.eps + 2) << c.dataset;
  EXPECT_GE(r.points.size(), c.n >= 2 ? 2u : 1u);
  EXPECT_EQ(r.points.front().key, keys.front());
  EXPECT_EQ(r.points.back().key, keys.back());
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, PlaPropertyTest,
    ::testing::Values(Case{"ycsb", 50000, 8}, Case{"ycsb", 50000, 64},
                      Case{"normal", 50000, 16}, Case{"lognormal", 50000, 64},
                      Case{"osm", 50000, 32}, Case{"face", 50000, 32},
                      Case{"sequential", 10000, 4}, Case{"ycsb", 1, 4},
                      Case{"ycsb", 2, 4}, Case{"ycsb", 100, 4}));

TEST(PlaTest, OsmNeedsMoreSegmentsThanUniform) {
  // The paper's OSM observation: a complex CDF costs more segments at the
  // same error bound.
  std::vector<uint64_t> uni = MakeKeys("ycsb", 100000, 5);
  std::vector<uint64_t> osm = MakeKeys("osm", 100000, 5);
  PlaResult u = BuildOptimalPla(uni.data(), uni.size(), 64);
  PlaResult o = BuildOptimalPla(osm.data(), osm.size(), 64);
  EXPECT_GT(o.segments.size(), u.segments.size());
}

TEST(PlaTest, SmallerEpsMoreSegments) {
  std::vector<uint64_t> keys = MakeKeys("osm", 100000, 5);
  size_t prev = 0;
  for (size_t eps : {256, 64, 16, 4}) {
    PlaResult r = BuildOptimalPla(keys.data(), keys.size(), eps);
    EXPECT_GE(r.segments.size(), prev);
    prev = r.segments.size();
  }
}

TEST(PlaTest, FindSegmentRoutesEveryKey) {
  std::vector<uint64_t> keys = MakeKeys("osm", 20000, 7);
  PlaResult r = BuildOptimalPla(keys.data(), keys.size(), 16);
  for (size_t i = 0; i < keys.size(); i += 7) {
    size_t seg = FindSegment(r.segments, keys[i]);
    const Segment& s = r.segments[seg];
    EXPECT_GE(i, s.base_rank);
    EXPECT_LT(i, s.base_rank + s.count);
  }
  EXPECT_EQ(FindSegment(r.segments, 0), 0u);
}

TEST(PlaTest, LsaSegmentationIsFixedSize) {
  std::vector<uint64_t> keys = MakeKeys("ycsb", 10000, 3);
  PlaResult r = BuildLsa(keys.data(), keys.size(), 256);
  EXPECT_EQ(r.segments.size(), (keys.size() + 255) / 256);
  for (size_t i = 0; i + 1 < r.segments.size(); ++i) {
    EXPECT_EQ(r.segments[i].count, 256u);
  }
}

TEST(PlaTest, LsaGapReducesErrorVersusLsa) {
  // Paper Fig. 17(a)/(b): at the same segment count, reshaping the CDF
  // with gaps yields a much lower average error than plain LSA. (On the
  // staircase OSM CDF neither works well — which is the paper's separate
  // observation that learned indexes degrade on OSM.)
  for (const char* ds : {"ycsb", "lognormal"}) {
    std::vector<uint64_t> keys = MakeKeys(ds, 100000, 3);
    PlaResult lsa = BuildLsa(keys.data(), keys.size(), 2048);
    LsaGapResult gap = BuildLsaGap(keys.data(), keys.size(), 2048, 0.7);
    ASSERT_EQ(lsa.segments.size(), gap.segments.size());
    EXPECT_LT(gap.mean_error, lsa.mean_error) << ds;
  }
}

TEST(PlaTest, LsaGapPlacementIsOrderedAndInBounds) {
  std::vector<uint64_t> keys = MakeKeys("lognormal", 30000, 9);
  LsaGapResult gap = BuildLsaGap(keys.data(), keys.size(), 1024, 0.7);
  for (const GappedSegment& g : gap.segments) {
    ASSERT_EQ(g.slots.size(), g.count);
    for (size_t i = 0; i < g.slots.size(); ++i) {
      EXPECT_LT(g.slots[i], g.capacity);
      if (i > 0) EXPECT_GT(g.slots[i], g.slots[i - 1]);
    }
  }
}

TEST(PlaTest, EmptyAndTinyInputs) {
  std::vector<uint64_t> empty;
  EXPECT_TRUE(BuildOptimalPla(empty.data(), 0, 8).segments.empty());
  EXPECT_TRUE(BuildGreedyPla(empty.data(), 0, 8).segments.empty());
  EXPECT_TRUE(BuildGreedySpline(empty.data(), 0, 8).points.empty());

  uint64_t one[] = {42};
  PlaResult r = BuildOptimalPla(one, 1, 8);
  ASSERT_EQ(r.segments.size(), 1u);
  EXPECT_EQ(r.segments[0].PredictRank(42), 0u);
}

TEST(PlaTest, AdversarialStaircase) {
  // Alternating dense/sparse steps: stress-tests hull updates near the
  // feasibility boundary.
  std::vector<uint64_t> keys;
  uint64_t k = 0;
  for (int step = 0; step < 500; ++step) {
    for (int i = 0; i < 20; ++i) keys.push_back(k += 1);
    k += 1'000'000;
  }
  for (size_t eps : {2, 8, 32}) {
    PlaResult r = BuildOptimalPla(keys.data(), keys.size(), eps);
    EXPECT_LE(r.max_error, eps + 1);
    PlaResult g = BuildGreedyPla(keys.data(), keys.size(), eps);
    EXPECT_LE(g.max_error, eps + 1);
    EXPECT_LE(r.segments.size(), g.segments.size());
  }
}

}  // namespace
}  // namespace pieces
