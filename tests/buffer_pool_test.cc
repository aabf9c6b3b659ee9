// PageStore + BufferPool unit tests: file-backed page durability semantics
// (sync barriers, quiescent crash rollback, torn prefixes of a barrier's
// declared bytes; the device semantics themselves are pinned on both
// media by FaultDeviceCrashTest in store_fault_test.cc) and the
// CLOCK pool's pin/evict/writeback contract, including a multi-threaded
// pin/evict stress.
#include "store/buffer_pool.h"

#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "store/page_store.h"

namespace pieces {
namespace {

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/pieces_" + tag + "_" +
         std::to_string(::getpid()) + ".pages";
}

PageStore::Options SmallOpts(size_t page_size = 512, size_t max_pages = 64) {
  PageStore::Options opts;
  opts.page_size = page_size;
  opts.max_pages = max_pages;
  return opts;
}

std::vector<uint8_t> Stamp(size_t page_size, uint8_t tag) {
  std::vector<uint8_t> buf(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    buf[i] = static_cast<uint8_t>(tag ^ (i & 0xff));
  }
  return buf;
}

TEST(PageStoreTest, AllocateWriteReadRoundtrip) {
  PageStore store(TempPath("psrw"), SmallOpts());
  ASSERT_TRUE(store.ok()) << store.error();
  uint32_t a = store.AllocatePage();
  uint32_t b = store.AllocatePage();
  ASSERT_NE(a, PageStore::kInvalidPage);
  ASSERT_NE(b, PageStore::kInvalidPage);
  EXPECT_NE(a, b);
  std::vector<uint8_t> wa = Stamp(512, 0xa5);
  store.WritePage(a, wa.data());
  std::vector<uint8_t> back(512, 0xff);
  store.ReadPage(a, back.data());
  EXPECT_EQ(back, wa);
  // Never-written pages read as zeros.
  store.ReadPage(b, back.data());
  EXPECT_EQ(back, std::vector<uint8_t>(512, 0));
  EXPECT_EQ(store.num_pages(), 2u);
}

TEST(PageStoreTest, CapacityGuardReturnsInvalidPage) {
  PageStore store(TempPath("pscap"), SmallOpts(512, 2));
  ASSERT_TRUE(store.ok());
  EXPECT_NE(store.AllocatePage(), PageStore::kInvalidPage);
  EXPECT_NE(store.AllocatePage(), PageStore::kInvalidPage);
  EXPECT_EQ(store.AllocatePage(), PageStore::kInvalidPage);
}

TEST(PageStoreTest, UnwritablePathReportsError) {
  PageStore store("/nonexistent_dir_zzz/x.pages", SmallOpts());
  EXPECT_FALSE(store.ok());
  EXPECT_NE(store.error().find("cannot open"), std::string::npos);
}

TEST(PageStoreTest, CrashRollsBackUnsyncedWrites) {
  PageStore store(TempPath("psroll"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p = store.AllocatePage();
  std::vector<uint8_t> durable = Stamp(512, 0x11);
  store.WritePage(p, durable.data());
  store.Sync();  // durable point
  std::vector<uint8_t> volat = Stamp(512, 0x22);
  store.WritePage(p, volat.data());
  store.Crash();  // unsynced write must vanish
  EXPECT_TRUE(store.fault().crashed());
  EXPECT_THROW(store.Sync(), SimulatedCrash);
  std::vector<uint8_t> probe(512);
  EXPECT_THROW(store.ReadPage(p, probe.data()), SimulatedCrash);
  store.fault().ClearCrash();
  store.ReadPage(p, probe.data());
  EXPECT_EQ(probe, durable);
}

TEST(PageStoreTest, SyncMakesWritesSurviveCrash) {
  PageStore store(TempPath("pssync"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p = store.AllocatePage();
  std::vector<uint8_t> data = Stamp(512, 0x33);
  store.WritePage(p, data.data());
  store.Sync();
  store.Crash();
  store.fault().ClearCrash();
  std::vector<uint8_t> probe(512);
  store.ReadPage(p, probe.data());
  EXPECT_EQ(probe, data);
}

TEST(PageStoreTest, ArmedSyncTearsPrefixAndThrows) {
  PageStore store(TempPath("pstear"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p = store.AllocatePage();
  std::vector<uint8_t> durable = Stamp(512, 0x44);
  store.WritePage(p, durable.data());
  store.Sync();
  const int64_t tear = 100;
  store.fault().FailAfterBarriers(1, tear);
  std::vector<uint8_t> fresh = Stamp(512, 0x55);
  store.WritePage(p, fresh.data());
  EXPECT_THROW(store.Sync(), SimulatedCrash);
  EXPECT_TRUE(store.fault().crashed());
  store.fault().ClearCrash();
  // A bare Sync declares the whole page: exactly the first `tear` new
  // bytes survive; the rest rolled back.
  std::vector<uint8_t> probe(512);
  store.ReadPage(p, probe.data());
  EXPECT_TRUE(std::memcmp(probe.data(), fresh.data(), tear) == 0);
  EXPECT_TRUE(std::memcmp(probe.data() + tear, durable.data() + tear,
                          512 - tear) == 0);
}

TEST(PageStoreTest, ArmedSyncNoTearCommitsNothing) {
  PageStore store(TempPath("psnot"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p = store.AllocatePage();
  std::vector<uint8_t> durable = Stamp(512, 0x66);
  store.WritePage(p, durable.data());
  store.Sync();
  store.fault().FailAfterBarriers(1, FaultDevice::kNoTear);
  std::vector<uint8_t> fresh = Stamp(512, 0x77);
  store.WritePage(p, fresh.data());
  EXPECT_THROW(store.Sync(), SimulatedCrash);
  store.fault().ClearCrash();
  std::vector<uint8_t> probe(512);
  store.ReadPage(p, probe.data());
  EXPECT_EQ(probe, durable);
}

TEST(PageStoreTest, TornBarrierCommitsPagesInFirstWriteOrder) {
  PageStore store(TempPath("psorder"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t a = store.AllocatePage();
  uint32_t b = store.AllocatePage();
  store.Sync();
  std::vector<uint8_t> wa = Stamp(512, 0x88);
  std::vector<uint8_t> wb = Stamp(512, 0x99);
  // A bare Sync declares whole pages in first-write order. Tear = one
  // whole page + 64 bytes: page a (written first) commits fully, page b
  // commits a 64-byte prefix.
  store.fault().FailAfterBarriers(1, 512 + 64);
  store.WritePage(a, wa.data());
  store.WritePage(b, wb.data());
  EXPECT_THROW(store.Sync(), SimulatedCrash);
  store.fault().ClearCrash();
  std::vector<uint8_t> probe(512);
  store.ReadPage(a, probe.data());
  EXPECT_EQ(probe, wa);
  store.ReadPage(b, probe.data());
  EXPECT_TRUE(std::memcmp(probe.data(), wb.data(), 64) == 0);
  EXPECT_EQ(probe[64], 0);  // the rest rolled back to zeros
}

// A tail tear keeps the last declared bytes, counted across the extents
// in order: here all of page b's extent and the end of page a's. Every
// other byte — a's extent head, and everything undeclared — rolls back.
TEST(PageStoreTest, TailTearKeepsTheLastDeclaredBytes) {
  PageStore store(TempPath("pstail"), SmallOpts());
  ASSERT_TRUE(store.ok());
  const uint32_t a = store.AllocatePage();
  const uint32_t b = store.AllocatePage();
  store.Sync();
  std::vector<uint8_t> wa = Stamp(512, 0x31);
  std::vector<uint8_t> wb = Stamp(512, 0x42);
  store.WritePage(a, wa.data());
  store.WritePage(b, wb.data());
  const PageStore::Extent declared[] = {{a, 100, 50}, {b, 0, 80}};
  store.fault().FailAfterBarriers(1, 100, FaultDevice::TearEnd::kTail);
  EXPECT_THROW(store.Sync(declared), SimulatedCrash);
  store.fault().ClearCrash();
  std::vector<uint8_t> probe(512);
  store.ReadPage(a, probe.data());
  for (size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(probe[i], i >= 130 && i < 150 ? wa[i] : 0) << "a byte " << i;
  }
  store.ReadPage(b, probe.data());
  for (size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(probe[i], i < 80 ? wb[i] : 0) << "b byte " << i;
  }
}

// The writers of one DiskStore run their barriers concurrently. A barrier
// already waiting for the device when another barrier cuts the power
// must fail as well: returning normally would report its rolled-back
// bytes durable, and its put would be acked and then lost.
TEST(PageStoreTest, SyncQueuedBehindACrashingSyncFails) {
  PageStore store(TempPath("psqueue"), SmallOpts());
  ASSERT_TRUE(store.ok());
  const uint32_t p = store.AllocatePage();
  std::vector<uint8_t> data = Stamp(512, 0x21);
  store.WritePage(p, data.data());
  // Barrier 1 holds the device for 100 ms while two more queue behind
  // it; the first of those crashes, and the second must throw too.
  store.SetSyncDelayForTest(100'000);
  store.fault().FailAfterBarriers(2);
  std::thread holder([&] { store.Sync(); });
  while (store.syncs() == 0) std::this_thread::yield();
  std::atomic<int> crashed{0};
  std::vector<std::thread> queued;
  for (int i = 0; i < 2; ++i) {
    queued.emplace_back([&] {
      try {
        store.Sync();
      } catch (const SimulatedCrash&) {
        crashed.fetch_add(1);
      }
    });
  }
  holder.join();
  for (std::thread& t : queued) t.join();
  EXPECT_EQ(crashed.load(), 2);
}

// A barrier's tear counts its declared bytes. When only bytes
// [offset, offset + len) of a page differ from its durable image, a
// whole-page tear t and a declared tear t - offset leave the same page.
TEST(PageStoreTest, DeclaredTearMatchesPagePrefixTear) {
  const size_t kOffset = 200;
  const size_t kLen = 100;
  auto torn_page = [&](bool declared, int64_t tear) {
    PageStore store(TempPath("psdecl"), SmallOpts());
    EXPECT_TRUE(store.ok());
    uint32_t p = store.AllocatePage();
    std::vector<uint8_t> page = Stamp(512, 0x12);
    store.WritePage(p, page.data());
    store.Sync();
    for (size_t i = kOffset; i < kOffset + kLen; ++i) page[i] ^= 0xff;
    store.WritePage(p, page.data());
    store.fault().FailAfterBarriers(1, tear);
    const PageStore::Extent extent{p, kOffset, kLen};
    if (declared) {
      EXPECT_THROW(store.Sync({&extent, 1}), SimulatedCrash);
    } else {
      EXPECT_THROW(store.Sync(), SimulatedCrash);
    }
    store.fault().ClearCrash();
    std::vector<uint8_t> probe(512);
    store.ReadPage(p, probe.data());
    return probe;
  };
  for (int64_t t : {int64_t{0}, int64_t{1}, int64_t{50}, int64_t{99},
                    int64_t{100}, int64_t{300}}) {
    SCOPED_TRACE(t);
    EXPECT_EQ(torn_page(true, t),
              torn_page(false, t + static_cast<int64_t>(kOffset)));
  }
  // The declared bytes are all the barrier has: a tear past them commits
  // exactly the declared range and nothing else.
  std::vector<uint8_t> full = torn_page(true, 512);
  std::vector<uint8_t> want = Stamp(512, 0x12);
  for (size_t i = kOffset; i < kOffset + kLen; ++i) want[i] ^= 0xff;
  EXPECT_EQ(full, want);
}

TEST(BufferPoolTest, HitMissEvictionCounters) {
  PageStore store(TempPath("bpcnt"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p0 = store.AllocatePage();
  uint32_t p1 = store.AllocatePage();
  uint32_t p2 = store.AllocatePage();
  BufferPool pool(&store, 2);
  ASSERT_NE(pool.Pin(p0), nullptr);
  pool.Unpin(p0, false);
  EXPECT_EQ(pool.misses(), 1u);
  ASSERT_NE(pool.Pin(p0), nullptr);  // hit
  pool.Unpin(p0, false);
  EXPECT_EQ(pool.hits(), 1u);
  ASSERT_NE(pool.Pin(p1), nullptr);
  pool.Unpin(p1, false);
  ASSERT_NE(pool.Pin(p2), nullptr);  // pool full: must evict
  pool.Unpin(p2, false);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(BufferPoolTest, PinnedFramesAreNeverEvicted) {
  PageStore store(TempPath("bppin"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p0 = store.AllocatePage();
  uint32_t p1 = store.AllocatePage();
  uint32_t p2 = store.AllocatePage();
  BufferPool pool(&store, 2);
  uint8_t* f0 = pool.Pin(p0);
  uint8_t* f1 = pool.Pin(p1);
  ASSERT_NE(f0, nullptr);
  ASSERT_NE(f1, nullptr);
  // Every frame pinned: no victim exists.
  EXPECT_EQ(pool.Pin(p2), nullptr);
  std::memset(f0, 0xab, 512);
  pool.Unpin(p0, true);
  // Now p0 is evictable; pinning p2 must evict p0 (writing it back), and
  // the still-pinned p1 must survive.
  ASSERT_NE(pool.Pin(p2), nullptr);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.writebacks(), 1u);
  std::vector<uint8_t> probe(512);
  store.ReadPage(p0, probe.data());  // write-back reached the file
  EXPECT_EQ(probe, std::vector<uint8_t>(512, 0xab));
  pool.Unpin(p2, false);
  pool.Unpin(p1, false);
}

TEST(BufferPoolTest, NestedPinsKeepFrameResident) {
  PageStore store(TempPath("bpnest"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p0 = store.AllocatePage();
  uint32_t p1 = store.AllocatePage();
  BufferPool pool(&store, 1);
  uint8_t* first = pool.Pin(p0);
  uint8_t* second = pool.Pin(p0);
  EXPECT_EQ(first, second);  // same frame, pins nest
  pool.Unpin(p0, false);
  EXPECT_EQ(pool.Pin(p1), nullptr);  // one pin still held
  pool.Unpin(p0, false);
  EXPECT_NE(pool.Pin(p1), nullptr);  // fully released: evictable
  pool.Unpin(p1, false);
}

TEST(BufferPoolTest, FlushPageIsDurableWritebackIsNot) {
  PageStore store(TempPath("bpflush"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p0 = store.AllocatePage();
  uint32_t p1 = store.AllocatePage();
  store.Sync();
  BufferPool pool(&store, 2);
  uint8_t* f0 = pool.Pin(p0);
  ASSERT_NE(f0, nullptr);
  std::memset(f0, 0x11, 512);
  pool.FlushPage(p0);  // write-through + fsync: durable
  pool.Unpin(p0, false);
  uint8_t* f1 = pool.Pin(p1);
  ASSERT_NE(f1, nullptr);
  std::memset(f1, 0x22, 512);
  pool.Unpin(p1, true);
  pool.FlushAll();  // write-back only: NOT durable
  store.Crash();
  store.fault().ClearCrash();
  pool.Reset();
  std::vector<uint8_t> probe(512);
  store.ReadPage(p0, probe.data());
  EXPECT_EQ(probe, std::vector<uint8_t>(512, 0x11));
  store.ReadPage(p1, probe.data());
  EXPECT_EQ(probe, std::vector<uint8_t>(512, 0));
}

TEST(BufferPoolTest, PinNewSkipsFetchAndZeroes) {
  PageStore store(TempPath("bpnew"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p = store.AllocatePage();
  BufferPool pool(&store, 2);
  uint8_t* f = pool.PinNew(p);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(store.pages_read(), 0u);  // no disk fetch
  for (size_t i = 0; i < 512; ++i) EXPECT_EQ(f[i], 0) << i;
  pool.Unpin(p, true);
}

// Multi-threaded pin/evict stress: every page is stamped with a
// page-derived pattern; readers pin random pages through a pool far
// smaller than the page set (forcing constant eviction races) and verify
// the pattern, while a flusher thread cycles FlushAll. Any torn fetch,
// eviction of a pinned frame, or table/frame race corrupts a stamp.
TEST(BufferPoolTest, ConcurrentPinEvictStress) {
  const size_t kPageSize = 256;
  const size_t kPages = 64;
  PageStore store(TempPath("bpstress"), SmallOpts(kPageSize, kPages));
  ASSERT_TRUE(store.ok());
  BufferPool pool(&store, 8);
  for (size_t p = 0; p < kPages; ++p) {
    uint32_t id = store.AllocatePage();
    ASSERT_EQ(id, p);
    std::vector<uint8_t> stamp =
        Stamp(kPageSize, static_cast<uint8_t>(p * 37 + 1));
    store.WritePage(id, stamp.data());
  }
  store.Sync();
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 20000; ++i) {
        uint32_t page = static_cast<uint32_t>(rng.NextUnder(kPages));
        uint8_t* frame;
        while ((frame = pool.Pin(page)) == nullptr) {
          std::this_thread::yield();
        }
        const uint8_t tag = static_cast<uint8_t>(page * 37 + 1);
        for (size_t off = 0; off < kPageSize; off += 61) {
          if (frame[off] != static_cast<uint8_t>(tag ^ (off & 0xff))) {
            failures.fetch_add(1);
            break;
          }
        }
        pool.Unpin(page, false);
      }
    });
  }
  std::thread flusher([&] {
    while (!stop.load()) {
      pool.FlushAll();
      std::this_thread::yield();
    }
  });
  for (auto& th : readers) th.join();
  stop.store(true);
  flusher.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(pool.evictions(), 0u);  // the pool really was under pressure
}

// ---- PinStatus, readahead and prefetch (PR 9 async-fetch layer) -------

// An engine whose reads always hard-fail: drives the kIoError path.
class FailingEngine : public IoEngine {
 public:
  std::string_view name() const override { return "failing"; }
  bool ReadBatch(std::span<const IoFetch> fetches) override {
    NoteBatch(fetches.size(), 1, fetches.size());
    return false;
  }
};

TEST(BufferPoolTest, AllPinnedAndIoErrorAreDistinct) {
  PageStore store(TempPath("bpstatus"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p0 = store.AllocatePage();
  uint32_t p1 = store.AllocatePage();
  {
    BufferPool pool(&store, 1);
    PinStatus status;
    ASSERT_NE(pool.Pin(p0, &status), nullptr);
    EXPECT_EQ(status, PinStatus::kOk);
    // The only frame is pinned: pool pressure, not data loss.
    EXPECT_EQ(pool.Pin(p1, &status), nullptr);
    EXPECT_EQ(status, PinStatus::kAllPinned);
    EXPECT_EQ(pool.all_pinned(), 1u);
    EXPECT_EQ(pool.io_errors(), 0u);
    pool.Unpin(p0, false);
  }
  {
    BufferPool pool(&store, 2, std::make_unique<FailingEngine>());
    PinStatus status;
    EXPECT_EQ(pool.Pin(p0, &status), nullptr);
    EXPECT_EQ(status, PinStatus::kIoError);
    EXPECT_EQ(pool.io_errors(), 1u);
    EXPECT_EQ(pool.all_pinned(), 0u);
    // The failed frame was dropped, not left mapped with garbage.
    EXPECT_EQ(pool.Pin(p0, &status), nullptr);
    EXPECT_EQ(pool.io_errors(), 2u);
  }
}

TEST(BufferPoolTest, PinSpanBringsSpanResidentAndCountsReadahead) {
  PageStore store(TempPath("bpspan"), SmallOpts());
  ASSERT_TRUE(store.ok());
  std::vector<uint32_t> pages;
  for (int i = 0; i < 6; ++i) {
    uint32_t id = store.AllocatePage();
    pages.push_back(id);
    std::vector<uint8_t> stamp = Stamp(512, static_cast<uint8_t>(id + 1));
    store.WritePage(id, stamp.data());
  }
  store.Sync();
  BufferPool pool(&store, 8);
  // Pin page 1 with readahead span [0, 4): pages 0, 2, 3 ride along.
  uint8_t* f = pool.PinSpan(pages[1], pages[0], pages[3] + 1);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f[0], Stamp(512, static_cast<uint8_t>(pages[1] + 1))[0]);
  EXPECT_EQ(pool.misses(), 1u);  // only the demand page is a miss
  EXPECT_EQ(pool.readahead_pages(), 3u);
  // A lookup landing in the span is a pool hit AND a readahead hit — no
  // new fetch.
  const uint64_t fetches_before = store.pages_read();
  uint8_t* f2 = pool.Pin(pages[2]);
  ASSERT_NE(f2, nullptr);
  EXPECT_EQ(f2[0], Stamp(512, static_cast<uint8_t>(pages[2] + 1))[0]);
  EXPECT_EQ(store.pages_read(), fetches_before);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.readahead_hits(), 1u);
  pool.Unpin(pages[1], false);
  pool.Unpin(pages[2], false);
}

TEST(BufferPoolTest, EvictedUntouchedReadaheadCountsWasted) {
  PageStore store(TempPath("bpwaste"), SmallOpts());
  ASSERT_TRUE(store.ok());
  std::vector<uint32_t> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(store.AllocatePage());
  store.Sync();
  BufferPool pool(&store, 2);
  // Span fills both frames: demand page 0 + readahead page 1.
  ASSERT_NE(pool.PinSpan(pages[0], pages[0], pages[1] + 1), nullptr);
  EXPECT_EQ(pool.readahead_pages(), 1u);
  pool.Unpin(pages[0], false);
  // Two fresh demand pins evict both; page 1 was never used.
  ASSERT_NE(pool.Pin(pages[2]), nullptr);
  pool.Unpin(pages[2], false);
  ASSERT_NE(pool.Pin(pages[3]), nullptr);
  pool.Unpin(pages[3], false);
  EXPECT_EQ(pool.readahead_wasted(), 1u);
  EXPECT_EQ(pool.readahead_hits(), 0u);
}

TEST(BufferPoolTest, PrefetchChargesMissesOncePerPage) {
  PageStore store(TempPath("bppre"), SmallOpts());
  ASSERT_TRUE(store.ok());
  std::vector<uint32_t> pages;
  for (int i = 0; i < 3; ++i) {
    uint32_t id = store.AllocatePage();
    pages.push_back(id);
    std::vector<uint8_t> stamp = Stamp(512, static_cast<uint8_t>(id + 7));
    store.WritePage(id, stamp.data());
  }
  store.Sync();
  BufferPool pool(&store, 4);
  pool.Prefetch(pages);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.hits(), 0u);
  // The tile's follow-up pins resolve in DRAM without double-counting:
  // no new miss, and no hit either (same logical access).
  const uint64_t reads_before = store.pages_read();
  for (uint32_t p : pages) {
    uint8_t* f = pool.Pin(p);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f[0], Stamp(512, static_cast<uint8_t>(p + 7))[0]);
    pool.Unpin(p, false);
  }
  EXPECT_EQ(store.pages_read(), reads_before);
  EXPECT_EQ(pool.misses(), 3u);
  EXPECT_EQ(pool.hits(), 0u);
  // A second round of pins is ordinary hits.
  for (uint32_t p : pages) {
    ASSERT_NE(pool.Pin(p), nullptr);
    pool.Unpin(p, false);
  }
  EXPECT_EQ(pool.hits(), 3u);
}

// Concurrent misses on one page must deduplicate onto a single in-flight
// fetch. A gate engine parks the first ReadBatch until both pinners are
// committed, guaranteeing the second pinner finds the loading frame.
class GateEngine : public IoEngine {
 public:
  explicit GateEngine(PageStore* store) : store_(store) {}
  std::string_view name() const override { return "gate"; }
  bool ReadBatch(std::span<const IoFetch> fetches) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    for (const IoFetch& f : fetches) store_->ReadPage(f.page, f.out);
    NoteBatch(fetches.size(), 1, fetches.size());
    return true;
  }
  void WaitStarted() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  PageStore* store_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool started_ = false;
  bool open_ = false;
};

TEST(BufferPoolTest, ConcurrentSamePageMissesDeduplicate) {
  PageStore store(TempPath("bpdedup"), SmallOpts());
  ASSERT_TRUE(store.ok());
  uint32_t p = store.AllocatePage();
  std::vector<uint8_t> stamp = Stamp(512, 0x5a);
  store.WritePage(p, stamp.data());
  store.Sync();
  auto gate = std::make_unique<GateEngine>(&store);
  GateEngine* gate_ptr = gate.get();
  BufferPool pool(&store, 4, std::move(gate));
  std::thread first([&] {
    uint8_t* f = pool.Pin(p);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f[0], stamp[0]);
    pool.Unpin(p, false);
  });
  gate_ptr->WaitStarted();  // first fetch is in flight and parked
  std::thread second([&] {
    uint8_t* f = pool.Pin(p);  // must dedup, not issue a second fetch
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f[0], stamp[0]);
    pool.Unpin(p, false);
  });
  // Give the second pinner time to reach the dedup wait, then release.
  while (pool.dedup_waits() == 0) std::this_thread::yield();
  gate_ptr->Open();
  first.join();
  second.join();
  EXPECT_EQ(pool.misses(), 1u);  // one physical fetch
  EXPECT_EQ(pool.hits(), 1u);    // the dedup'd pin resolves as a hit
  EXPECT_GE(pool.dedup_waits(), 1u);
  EXPECT_EQ(pool.engine().stats().pages, 1u);
}

}  // namespace
}  // namespace pieces
