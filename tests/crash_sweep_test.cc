// Crash-point fault-injection sweep (the durability contract, proven by
// exhaustion): for every updatable index, replay a seeded mixed workload
// against a record store and crash at EVERY durability barrier the
// stream crosses — and, for a dense tear sweep, with every interesting
// torn-write prefix of the crashing barrier's declared bytes. After each
// crash the recovered store must hold exactly the acknowledged-durable
// ops (plus the in-flight put only when its commit header
// deterministically became durable). Every suite runs once on ViperStore
// (persist fences) and once on DiskStore (fsyncs) with the same oracle:
// both media cut power through one FaultDevice. Failures minimize to a
// replayable op prefix, same as the differential suite.
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "differential_harness.h"
#include "index/registry.h"
#include "store/fault_device.h"

namespace pieces {
namespace {

constexpr int64_t kNoTear = FaultDevice::kNoTear;
// The sweeps' record geometry: [key | 24-byte value | 16-byte header].
constexpr size_t kValueSize = 24;
constexpr int64_t kPayload = sizeof(Key) + kValueSize;
constexpr int64_t kRecord = kPayload + sizeof(RecordHeader);

// One sweep target: an index on a medium.
struct SweepCase {
  StoreMedium medium;
  std::string index;
};

// A Viper case prints as its bare index name, the way the suites printed
// before they ran on disk too.
void PrintTo(const SweepCase& c, std::ostream* os) {
  if (c.medium == StoreMedium::kViper) {
    *os << '"' << c.index << '"';
  } else {
    *os << "(\"" << MediumName(c.medium) << "\", \"" << c.index << "\")";
  }
}

std::vector<SweepCase> Cases(StoreMedium medium,
                             const std::vector<std::string>& indexes) {
  std::vector<SweepCase> cases;
  for (const std::string& index : indexes) cases.push_back({medium, index});
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  std::string n = info.param.index;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

// Small stream: the sweep replays it once per (barrier, tear) pair, so
// total work is quadratic in the put count.
DiffConfig SweepConfig(StoreMedium medium, uint64_t seed_offset) {
  DiffConfig cfg;
  cfg.seed = DiffBaseSeed() + seed_offset;
  cfg.dataset = "ycsb";
  cfg.load_keys = 256;
  cfg.ops = 96;
  cfg.medium = medium;
  cfg.store_value_size = kValueSize;
  return cfg;
}

class CrashSweepTest : public ::testing::TestWithParam<SweepCase> {};

// Every barrier, clean power cut (nothing of the crashing barrier's
// declared bytes survives).
TEST_P(CrashSweepTest, EveryPersistPoint) {
  CrashSweepResult res = RunCrashSweep(
      GetParam().index, SweepConfig(GetParam().medium, 0), {kNoTear});
  EXPECT_TRUE(res.ok) << res.report;
  // The stream writes, so there are barriers to crash at, and each was hit.
  EXPECT_GT(res.crash_points, 0u);
  EXPECT_EQ(res.runs, res.crash_points);
}

INSTANTIATE_TEST_SUITE_P(
    AllUpdatable, CrashSweepTest,
    ::testing::ValuesIn(Cases(StoreMedium::kViper, UpdatableIndexNames())),
    CaseName);
INSTANTIATE_TEST_SUITE_P(
    AllUpdatableDisk, CrashSweepTest,
    ::testing::ValuesIn(Cases(StoreMedium::kDisk, UpdatableIndexNames())),
    CaseName);

// Dense torn-write sweep on two representative indexes (a traditional and
// a learned one). A put's one barrier declares its whole record,
// [key | value | 16-byte header]; the tears move by the payload length so
// they still land before the record's header (none of it, one byte),
// at header offsets 0, 7, 8, 15 and 16 — the 8/15-byte prefixes leave
// seqno+crc plausible but the trailing magic incomplete — and past the
// record.
class TornWriteSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TornWriteSweepTest, DenseTearOffsets) {
  static_assert(sizeof(RecordHeader) == 16);
  const std::vector<int64_t> tears = {
      kNoTear,      1,             kPayload,      kPayload + 7,
      kPayload + 8, kPayload + 15, kPayload + 16, kPayload + 23};
  CrashSweepResult res = RunCrashSweep(
      GetParam().index, SweepConfig(GetParam().medium, 1), tears);
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_EQ(res.runs, res.crash_points * tears.size());
}

// Tail tears: the record's last bytes land and its head does not — bytes
// inside one barrier landing out of order. crc and magic without the
// seqno (8) fail the seqno check; the header alone (16) and everything
// but the key (kRecord - 8) pass magic and seqno, and only the CRC keeps
// recovery from returning the put. A tail covering the whole record
// makes the in-flight put durable.
TEST_P(TornWriteSweepTest, TailTearOffsets) {
  const std::vector<int64_t> tails = {8, 16, kRecord - 8, kRecord,
                                      kRecord + 7};
  CrashSweepResult res =
      RunCrashSweep(GetParam().index, SweepConfig(GetParam().medium, 2),
                    tails, FaultDevice::TearEnd::kTail);
  EXPECT_TRUE(res.ok) << res.report;
  EXPECT_EQ(res.runs, res.crash_points * tails.size());
}

INSTANTIATE_TEST_SUITE_P(Representative, TornWriteSweepTest,
                         ::testing::ValuesIn(Cases(StoreMedium::kViper,
                                                   {"BTree", "ALEX"})),
                         CaseName);
INSTANTIATE_TEST_SUITE_P(RepresentativeDisk, TornWriteSweepTest,
                         ::testing::ValuesIn(Cases(StoreMedium::kDisk,
                                                   {"BTree", "ALEX"})),
                         CaseName);

// BulkLoad's batched per-page barriers: crash at every span barrier x
// tear offset; the recovered store must hold exactly the durable prefix
// (full spans plus the torn span's complete records). Runs against every
// index — bulk load is supported by all 14.
class BulkLoadCrashSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BulkLoadCrashSweepTest, ExactDurablePrefix) {
  // Record is 8 (key) + 24 (value) + 16 (header) = 48 bytes; tears cover
  // nothing, a torn first record, exactly one record, one-and-a-bit, and
  // several records.
  CrashSweepResult res = RunBulkLoadCrashSweep(
      GetParam().medium, GetParam().index, 256,
      {kNoTear, 1, 47, 48, 49, 96, 500}, DiffBaseSeed());
  EXPECT_TRUE(res.ok) << res.report;
  // 256 keys at 64 slots/page (Viper) or 85 per 4 KiB page (disk) = 4
  // page-span barriers.
  EXPECT_EQ(res.crash_points, 4u);
  EXPECT_EQ(res.runs, 4u * 7);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, BulkLoadCrashSweepTest,
    ::testing::ValuesIn(Cases(StoreMedium::kViper, AllIndexNames())),
    CaseName);
INSTANTIATE_TEST_SUITE_P(
    AllIndexesDisk, BulkLoadCrashSweepTest,
    ::testing::ValuesIn(Cases(StoreMedium::kDisk, AllIndexNames())),
    CaseName);

// The differential harness's crash_before_recover mode: a long mixed
// stream with periodic power failures at quiescent points — every
// acknowledged op must survive each outage, on either medium.
TEST(CrashBeforeRecoverTest, PeriodicPowerFailuresLoseNothing) {
  for (StoreMedium medium : {StoreMedium::kViper, StoreMedium::kDisk}) {
    for (const std::string& name :
         {std::string("BTree"), std::string("ALEX")}) {
      DiffConfig cfg;
      cfg.seed = DiffBaseSeed() + 7;
      cfg.load_keys = 2000;
      cfg.ops = 4000;
      cfg.recover_every = 500;
      cfg.crash_before_recover = true;
      cfg.medium = medium;
      DiffResult res = RunStoreDifferential(name, cfg);
      EXPECT_TRUE(res.ok) << MediumName(medium) << " " << name << ":\n"
                          << res.report;
    }
  }
}

}  // namespace
}  // namespace pieces
