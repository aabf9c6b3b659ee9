// Fault-injection and edge-path tests for the KV substrate: PMem
// exhaustion mid-stream, recovery after mixed insert/update traffic,
// recovery idempotence, latency accounting, the fault device's
// semantics (programmed crash points, disarming, torn barriers) on both
// media, and the store-level commit protocol on both media
// (unacknowledged puts never recover, a payload that fails its CRC never
// wins).
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "index/registry.h"
#include "store/disk_store.h"
#include "store/fault_device.h"
#include "store/sim_pmem.h"
#include "store/viper.h"
#include "workload/datasets.h"

namespace pieces {
namespace {

TEST(StoreFaultTest, PutFailsCleanlyOnPmemExhaustion) {
  ViperStore::Config cfg;
  cfg.value_size = 200;
  cfg.pmem_capacity = 64 << 10;  // Room for ~300 records.
  ViperStore store(MakeIndex("BTree"), cfg);
  ASSERT_TRUE(store.BulkLoad(MakeSequentialKeys(100, 1, 1)));

  size_t accepted = 0;
  bool failed = false;
  for (Key k = 1000; k < 2000; ++k) {
    if (store.PutSynthetic(k)) {
      ++accepted;
    } else {
      failed = true;
      break;
    }
  }
  EXPECT_TRUE(failed) << "capacity should eventually be exhausted";
  EXPECT_GT(accepted, 0u);
  // Everything accepted before the failure must still be readable.
  std::vector<uint8_t> buf(200);
  for (Key k = 1000; k < 1000 + accepted; ++k) {
    EXPECT_TRUE(store.Get(k, buf.data())) << k;
  }
}

TEST(StoreFaultTest, RecoveryAfterMixedTraffic) {
  ViperStore::Config cfg;
  cfg.pmem_capacity = 256 << 20;
  ViperStore store(MakeIndex("ALEX"), cfg);
  std::vector<Key> keys = MakeUniformKeys(20000, 3);
  ASSERT_TRUE(store.BulkLoad(keys));

  // Mixed traffic: fresh inserts and updates of loaded keys.
  Rng rng(5);
  std::map<Key, uint8_t> expect_first_byte;
  for (Key k : keys) {
    expect_first_byte[k] = static_cast<uint8_t>(k & 0xff);
  }
  std::vector<uint8_t> value(200);
  for (int i = 0; i < 5000; ++i) {
    if (i % 2 == 0) {
      Key fresh = rng.Next() & (~0ull - 1);
      std::memset(value.data(), 0xAB, value.size());
      ASSERT_TRUE(store.Put(fresh, value.data()));
      expect_first_byte[fresh] = 0xAB;
    } else {
      Key existing = keys[rng.NextUnder(keys.size())];
      std::memset(value.data(), 0xCD, value.size());
      ASSERT_TRUE(store.Put(existing, value.data()));
      expect_first_byte[existing] = 0xCD;
    }
  }

  store.Recover();
  EXPECT_EQ(store.size(), expect_first_byte.size());
  std::vector<uint8_t> buf(200);
  for (const auto& [k, byte] : expect_first_byte) {
    ASSERT_TRUE(store.Get(k, buf.data())) << k;
    EXPECT_EQ(buf[0], byte) << "newest version must win for " << k;
  }
}

TEST(StoreFaultTest, RecoveryIsIdempotent) {
  ViperStore::Config cfg;
  cfg.pmem_capacity = 64 << 20;
  ViperStore store(MakeIndex("PGM"), cfg);
  std::vector<Key> keys = MakeUniformKeys(5000, 7);
  ASSERT_TRUE(store.BulkLoad(keys));
  store.Recover();
  store.Recover();
  EXPECT_EQ(store.size(), keys.size());
  std::vector<uint8_t> buf(200);
  EXPECT_TRUE(store.Get(keys[1234], buf.data()));
}

TEST(StoreFaultTest, RecoveryOnEmptyStore) {
  ViperStore::Config cfg;
  cfg.pmem_capacity = 1 << 20;
  ViperStore store(MakeIndex("BTree"), cfg);
  store.Recover();
  EXPECT_EQ(store.size(), 0u);
  std::vector<uint8_t> buf(200);
  EXPECT_FALSE(store.Get(42, buf.data()));
}

TEST(StoreFaultTest, LatencyInjectionChargesOps) {
  ViperStore::Config cfg;
  cfg.pmem_capacity = 8 << 20;
  cfg.read_latency_ns = 5000;
  cfg.write_latency_ns = 5000;
  ViperStore store(MakeIndex("BTree"), cfg);
  std::vector<Key> keys = MakeSequentialKeys(100, 1, 1);
  ASSERT_TRUE(store.BulkLoad(keys));
  std::vector<uint8_t> buf(200);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 100; ++i) store.Get(keys[i % 100], buf.data());
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  EXPECT_GT(ns, 100 * 4000) << "injected read latency must be observable";
}

// --- The fault device, on both media ---

// The PMem-only half of a power cut: every accessor refuses while the
// power is off, and a quiescent crash drops the unpersisted bytes.
TEST(StoreFaultTest, CrashDiscardsUnpersistedWrites) {
  SimulatedPmem pmem(1 << 20);
  uint8_t* a = pmem.Allocate(64);
  uint8_t* b = pmem.Allocate(64);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::vector<uint8_t> data(64, 0x11);
  pmem.Write(a, data.data(), 64);
  pmem.Persist(a, 64);  // a's 0x11 image is durable
  std::memset(data.data(), 0x22, 64);
  pmem.Write(a, data.data(), 64);  // overwrite, never persisted
  pmem.Write(b, data.data(), 64);  // fresh write, never persisted

  pmem.Crash();
  // Power is off: every access throws until recovery clears the crash.
  std::vector<uint8_t> buf(64);
  EXPECT_THROW(pmem.Read(a, buf.data(), 64), SimulatedCrash);
  EXPECT_THROW(pmem.Write(a, data.data(), 64), SimulatedCrash);
  EXPECT_THROW(pmem.Persist(a, 64), SimulatedCrash);
  EXPECT_THROW(pmem.Allocate(8), SimulatedCrash);
  EXPECT_EQ(pmem.fault().crash_count(), 1u);

  pmem.fault().ClearCrash();
  pmem.Read(a, buf.data(), 64);
  for (uint8_t byte : buf) EXPECT_EQ(byte, 0x11);  // rollback to persisted
  pmem.Read(b, buf.data(), 64);
  for (uint8_t byte : buf) EXPECT_EQ(byte, 0x00);  // never durable
}

TEST(StoreFaultTest, TornPersistKeepsExactPrefix) {
  SimulatedPmem pmem(1 << 20);
  uint8_t* a = pmem.Allocate(256);
  std::vector<uint8_t> data(256, 0x33);
  pmem.Write(a, data.data(), 256);
  pmem.fault().FailAfterBarriers(1, /*tear_bytes=*/100);
  EXPECT_THROW(pmem.Persist(a, 256), SimulatedCrash);
  pmem.fault().ClearCrash();
  std::vector<uint8_t> buf(256);
  pmem.Read(a, buf.data(), 256);
  for (size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(buf[i], i < 100 ? 0x33 : 0x00) << "byte " << i;
  }
}

TEST(StoreFaultTest, FailAfterPersistsCountsBarriers) {
  SimulatedPmem pmem(1 << 20);
  uint8_t* a = pmem.Allocate(64);
  std::vector<uint8_t> data(64, 0x44);
  pmem.fault().FailAfterBarriers(3);
  pmem.Write(a, data.data(), 64);
  pmem.Persist(a, 64);  // 1
  pmem.Persist(a, 64);  // 2
  EXPECT_FALSE(pmem.fault().crashed());
  EXPECT_THROW(pmem.Persist(a, 64), SimulatedCrash);  // 3 fires
  EXPECT_TRUE(pmem.fault().crashed());
  // kNoTear: nothing of the crashing barrier's range survives, but the
  // two earlier barriers committed the range.
  pmem.fault().ClearCrash();
  std::vector<uint8_t> buf(64);
  pmem.Read(a, buf.data(), 64);
  for (uint8_t byte : buf) EXPECT_EQ(byte, 0x44);
}

// One region of a medium, written whole and covered whole by each
// barrier: a PMem range under Persist, or a file page under a bare Sync.
class FaultMedium {
 public:
  static constexpr size_t kRegion = 512;
  virtual ~FaultMedium() = default;
  virtual FaultDevice& fault() = 0;
  virtual void Write(const std::vector<uint8_t>& bytes) = 0;
  virtual void Barrier() = 0;
  virtual void Crash() = 0;
  virtual std::vector<uint8_t> Read() = 0;
};

class PmemMedium : public FaultMedium {
 public:
  PmemMedium() : pmem_(1 << 20), region_(pmem_.Allocate(kRegion)) {}
  FaultDevice& fault() override { return pmem_.fault(); }
  void Write(const std::vector<uint8_t>& bytes) override {
    pmem_.Write(region_, bytes.data(), kRegion);
  }
  void Barrier() override { pmem_.Persist(region_, kRegion); }
  void Crash() override { pmem_.Crash(); }
  std::vector<uint8_t> Read() override {
    std::vector<uint8_t> out(kRegion);
    pmem_.Read(region_, out.data(), kRegion);
    return out;
  }

 private:
  SimulatedPmem pmem_;
  uint8_t* region_;
};

class DiskMedium : public FaultMedium {
 public:
  DiskMedium()
      : pages_(testing::TempDir() + "/pieces_fault_device_" +
                   std::to_string(::getpid()) + ".pages",
               PageStore::Options{.page_size = kRegion, .max_pages = 4}),
        page_(pages_.AllocatePage()) {}
  FaultDevice& fault() override { return pages_.fault(); }
  void Write(const std::vector<uint8_t>& bytes) override {
    pages_.WritePage(page_, bytes.data());
  }
  void Barrier() override { pages_.Sync(); }
  void Crash() override { pages_.Crash(); }
  std::vector<uint8_t> Read() override {
    std::vector<uint8_t> out(kRegion);
    pages_.ReadPage(page_, out.data());
    return out;
  }

 private:
  PageStore pages_;
  uint32_t page_;
};

// The device semantics every crash sweep relies on, pinned once and run
// unchanged on each medium. Per row: a durable base image, then the
// row's arming calls, then up to four write + barrier rounds, each
// writing a distinct image.
class FaultDeviceCrashTest : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultDeviceCrashTest, SemanticsTable) {
  constexpr size_t kRegion = FaultMedium::kRegion;
  constexpr int64_t kNoTear = FaultDevice::kNoTear;
  struct Row {
    const char* what;
    std::vector<uint64_t> arms;  // FailAfterBarriers(n, tear) in order
    int64_t tear;
    bool quiescent_crash;  // a Crash() + ClearCrash() after arming
    int fires_at;          // the round whose barrier fails; 0 = none
    size_t survive;        // bytes of that round's image that survive
    FaultDevice::TearEnd end = FaultDevice::TearEnd::kHead;
  };
  const Row rows[] = {
      {"fires at exactly the nth barrier", {3}, kNoTear, false, 3, 0},
      {"n == 0 disarms", {2, 0}, kNoTear, false, 0, 0},
      {"re-arming replaces the old point", {1, 3}, kNoTear, false, 3, 0},
      {"a quiescent Crash() disarms", {2}, kNoTear, true, 0, 0},
      {"kNoTear commits nothing", {1}, kNoTear, false, 1, 0},
      {"a zero tear commits nothing", {2}, 0, false, 2, 0},
      {"a tear commits exactly its prefix", {1}, 100, false, 1, 100},
      {"a tear past the barrier commits all of it", {2}, 4 * kRegion, false,
       2, kRegion},
      {"a tail tear commits exactly its suffix", {1}, 100, false, 1, 100,
       FaultDevice::TearEnd::kTail},
      {"a zero tail tear commits nothing", {2}, 0, false, 2, 0,
       FaultDevice::TearEnd::kTail},
      {"a tail tear past the barrier commits all of it", {1}, 4 * kRegion,
       false, 1, kRegion, FaultDevice::TearEnd::kTail},
  };
  auto image = [](uint8_t tag) {
    std::vector<uint8_t> bytes(kRegion);
    for (size_t i = 0; i < kRegion; ++i) {
      bytes[i] = static_cast<uint8_t>(tag ^ (i & 0xff));
    }
    return bytes;
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    std::unique_ptr<FaultMedium> medium;
    if (GetParam() == "pmem") {
      medium = std::make_unique<PmemMedium>();
    } else {
      medium = std::make_unique<DiskMedium>();
    }
    FaultDevice& fault = medium->fault();
    std::vector<uint8_t> durable = image(0x10);
    medium->Write(durable);
    medium->Barrier();
    for (uint64_t n : row.arms) fault.FailAfterBarriers(n, row.tear, row.end);
    uint64_t crashes = 0;
    if (row.quiescent_crash) {
      medium->Write(image(0xee));  // never barriered: rolls back
      medium->Crash();
      ++crashes;
      EXPECT_TRUE(fault.crashed());
      EXPECT_FALSE(fault.armed());
      fault.ClearCrash();
      EXPECT_EQ(medium->Read(), durable);
    }
    int fired = 0;
    std::vector<uint8_t> last;
    for (int round = 1; round <= 4 && fired == 0; ++round) {
      last = image(static_cast<uint8_t>(0x20 * round));
      medium->Write(last);
      try {
        medium->Barrier();
        durable = last;
      } catch (const SimulatedCrash&) {
        fired = round;
        ++crashes;
      }
    }
    EXPECT_EQ(fired, row.fires_at);
    EXPECT_FALSE(fault.armed());
    EXPECT_EQ(fault.crashed(), fired != 0);
    EXPECT_EQ(fault.crash_count(), crashes);
    if (fired == 0) continue;
    EXPECT_THROW(medium->Read(), SimulatedCrash);  // power is off
    fault.ClearCrash();
    std::vector<uint8_t> want = durable;
    if (row.end == FaultDevice::TearEnd::kTail) {
      std::copy(last.end() - row.survive, last.end(),
                want.end() - row.survive);
    } else {
      std::copy(last.begin(), last.begin() + row.survive, want.begin());
    }
    EXPECT_EQ(medium->Read(), want);
  }
}

INSTANTIATE_TEST_SUITE_P(Media, FaultDeviceCrashTest,
                         ::testing::Values("pmem", "disk"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// --- Store-level commit protocol, on both media ---

// The record core's commit and recovery under each medium's own barrier:
// persist fences on ViperStore, fsyncs on DiskStore.
class StoreCommitFaultTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr size_t kValueSize = 200;

  RecordCore& MakeStore(const std::string& index) {
    if (GetParam() == "viper") {
      ViperStore::Config cfg;
      cfg.pmem_capacity = 8 << 20;
      viper_ = std::make_unique<ViperStore>(MakeIndex(index), cfg);
      return *viper_;
    }
    DiskStore::Config cfg;
    cfg.value_size = kValueSize;
    cfg.file_capacity = 8 << 20;
    cfg.path = testing::TempDir() + "/pieces_store_fault_" +
               std::to_string(::getpid()) + ".pages";
    disk_ = std::make_unique<DiskStore>(MakeIndex(index), cfg);
    EXPECT_TRUE(disk_->ok()) << disk_->error();
    return *disk_;
  }

  // A put's one barrier declares its whole record: key and value bytes,
  // then the header.
  static constexpr int64_t kPayloadBytes = sizeof(Key) + kValueSize;

  // Flips the first value byte of the record at `handle` durably on the
  // medium, leaving its header intact.
  void CorruptValueByte(Value handle) {
    const uint32_t page = RecordCore::HandlePage(handle);
    const uint32_t slot = RecordCore::HandleSlot(handle);
    if (viper_) {
      const size_t rb = viper_->record_bytes();
      // 200-byte values: 224-byte records, so pages carry no padding.
      ASSERT_EQ(rb * viper_->slots_per_page() % 8, 0u);
      uint8_t* addr = viper_->mutable_pmem().AddressAt(
          (page * viper_->slots_per_page() + slot) * rb + sizeof(Key));
      uint8_t byte;
      viper_->pmem().Read(addr, &byte, 1);
      byte ^= 0xff;
      viper_->mutable_pmem().Write(addr, &byte, 1);
      viper_->mutable_pmem().Persist(addr, 1);
    } else {
      PageStore& pages = disk_->mutable_pages();
      std::vector<uint8_t> buf(pages.page_size());
      pages.ReadPage(page, buf.data());
      buf[slot * disk_->record_bytes() + sizeof(Key)] ^= 0xff;
      pages.WritePage(page, buf.data());
      pages.Sync();
    }
  }

 private:
  std::unique_ptr<ViperStore> viper_;
  std::unique_ptr<DiskStore> disk_;
};

// Crash at the put's record barrier with nothing landed: the put was
// never acknowledged, so recovery must not resurrect it.
TEST_P(StoreCommitFaultTest, PutNotAcknowledgedIsNotRecovered) {
  RecordCore& store = MakeStore("BTree");
  std::vector<Key> keys = MakeSequentialKeys(100, 1, 1);
  ASSERT_TRUE(store.BulkLoad(keys));
  store.fault().FailAfterBarriers(1);  // the record barrier
  EXPECT_THROW(store.PutSynthetic(5000), SimulatedCrash);
  store.Recover();
  EXPECT_EQ(store.size(), keys.size());
  std::vector<uint8_t> buf(kValueSize);
  EXPECT_FALSE(store.Get(5000, buf.data()));
  for (Key k : keys) EXPECT_TRUE(store.Get(k, buf.data())) << k;
}

// Same crash point but the torn write commits the whole payload: still
// no header, still not recovered — payload bytes alone never validate.
TEST_P(StoreCommitFaultTest, TornPayloadWithoutHeaderIsNotRecovered) {
  RecordCore& store = MakeStore("BTree");
  std::vector<Key> keys = MakeSequentialKeys(100, 1, 1);
  ASSERT_TRUE(store.BulkLoad(keys));
  store.fault().FailAfterBarriers(1, kPayloadBytes);
  EXPECT_THROW(store.PutSynthetic(5000), SimulatedCrash);
  store.Recover();
  std::vector<uint8_t> buf(kValueSize);
  EXPECT_FALSE(store.Get(5000, buf.data()));
}

// The mirror image, bytes inside the barrier landing out of order: a
// tail tear lands the header (and, for the longer tail, all but the
// key's low byte) while the payload head stays zero. The header alone
// validates — magic, seqno — so only the CRC keeps recovery from
// returning a record, under key 5000 or under whatever key the torn
// head now spells.
TEST_P(StoreCommitFaultTest, TailTornRecordFailsCrcAndIsNotRecovered) {
  RecordCore& store = MakeStore("BTree");
  std::vector<Key> keys = MakeSequentialKeys(100, 1, 1);
  ASSERT_TRUE(store.BulkLoad(keys));
  const int64_t record = static_cast<int64_t>(store.record_bytes());
  for (int64_t tail : {int64_t{sizeof(RecordHeader)}, record - 1}) {
    SCOPED_TRACE("tail=" + std::to_string(tail));
    store.fault().FailAfterBarriers(1, tail, FaultDevice::TearEnd::kTail);
    EXPECT_THROW(store.PutSynthetic(5000), SimulatedCrash);
    store.Recover();
    EXPECT_EQ(store.size(), keys.size());
    std::vector<uint8_t> buf(kValueSize);
    EXPECT_FALSE(store.Get(5000, buf.data()));
    for (Key k : keys) EXPECT_TRUE(store.Get(k, buf.data())) << k;
  }
}

// One barrier per put (two when the swing fails), on either medium.
TEST_P(StoreCommitFaultTest, PutTakesOneBarrier) {
  RecordCore& store = MakeStore("BTree");
  ASSERT_TRUE(store.BulkLoad(MakeSequentialKeys(100, 1, 1)));
  const uint64_t before = store.IoStats().barriers;
  ASSERT_TRUE(store.PutSynthetic(5000));
  EXPECT_EQ(store.IoStats().barriers - before, 1u);
}

// Regression for the pre-commit-protocol bug: Put used to leave the
// record durable when the index swing failed, so recovery resurrected a
// put whose caller was told it failed. A read-only index rejects every
// Insert, making the failed swing deterministic.
TEST_P(StoreCommitFaultTest, FailedIndexSwingDoesNotResurrect) {
  RecordCore& store = MakeStore("RMI");
  std::vector<Key> keys = MakeSequentialKeys(100, 1, 1);
  ASSERT_TRUE(store.BulkLoad(keys));
  const uint64_t before = store.IoStats().barriers;
  EXPECT_FALSE(store.PutSynthetic(5000));  // swing fails, header revoked
  EXPECT_EQ(store.IoStats().barriers - before, 2u);
  store.Crash();
  store.Recover();
  EXPECT_EQ(store.size(), keys.size());
  std::vector<uint8_t> buf(kValueSize);
  EXPECT_FALSE(store.Get(5000, buf.data()))
      << "unacknowledged put resurrected by recovery";
  for (Key k : keys) EXPECT_TRUE(store.Get(k, buf.data())) << k;
}

// A header that validates over a payload that does not: only the CRC
// can reject the record, and recovery falls back to the key's older one.
TEST_P(StoreCommitFaultTest, CorruptPayloadFailsCrcAndOlderRecordWins) {
  RecordCore& store = MakeStore("BTree");
  ASSERT_TRUE(store.BulkLoad(MakeSequentialKeys(100, 1, 1)));
  const std::vector<uint8_t> older(kValueSize, 0x11);
  const std::vector<uint8_t> newer(kValueSize, 0x22);
  ASSERT_TRUE(store.Put(5000, older.data()));
  ASSERT_TRUE(store.Put(5000, newer.data()));
  store.Recover();  // size() now counts distinct keys
  const size_t size = store.size();
  Value handle;
  ASSERT_TRUE(store.index().Get(5000, &handle));
  CorruptValueByte(handle);
  store.Recover();
  EXPECT_EQ(store.size(), size);
  std::vector<uint8_t> buf(kValueSize);
  ASSERT_TRUE(store.Get(5000, buf.data()));
  EXPECT_EQ(buf, older);
}

INSTANTIATE_TEST_SUITE_P(Media, StoreCommitFaultTest,
                         ::testing::Values("viper", "disk"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(StoreFaultTest, KeyZeroAndBoundaryKeys) {
  // Keys 0 and 2^64-2 are valid; 2^64-1 is reserved as the gap sentinel.
  for (const std::string& name : UpdatableIndexNames()) {
    auto index = MakeIndex(name);
    index->BulkLoad({});
    ASSERT_TRUE(index->Insert(0, 100)) << name;
    ASSERT_TRUE(index->Insert(~0ull - 1, 200)) << name;
    Value v = 0;
    ASSERT_TRUE(index->Get(0, &v)) << name;
    EXPECT_EQ(v, 100u);
    ASSERT_TRUE(index->Get(~0ull - 1, &v)) << name;
    EXPECT_EQ(v, 200u);
    EXPECT_FALSE(index->Get(12345, &v)) << name;
  }
}

}  // namespace
}  // namespace pieces
