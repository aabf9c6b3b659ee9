// IoEngine conformance and parity tests: both engines ("serial" and
// "threads") must return identical bytes for identical batches —
// in-order, shuffled, duplicated, and sparse (never-written pages read
// as zeros) — and charge waits per their documented shape (serial: one
// per page; threads: one per batch). The differential half runs the same
// mixed DiskStore op stream under each engine and demands byte-identical
// outputs, so the overlapped path can never drift from the serial one.
#include "store/io_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "learned/pgm.h"
#include "store/disk_store.h"
#include "store/page_store.h"

namespace pieces {
namespace {

constexpr size_t kPageSize = 4096;
constexpr uint32_t kFilePages = 64;

std::string TempPath(const char* tag) {
  return testing::TempDir() + "/pieces_" + tag + "_" +
         std::to_string(::getpid()) + ".pages";
}

// Deterministic per-page stamp so any byte mix-up is visible.
void StampPage(uint32_t page, uint8_t* out) {
  for (size_t i = 0; i < kPageSize; ++i) {
    out[i] = static_cast<uint8_t>((page * 131 + i * 7 + 3) & 0xff);
  }
}

// A stamped backing file with a hole: pages [kFilePages/2, kFilePages)
// are never written, so reads there must come back zero-filled.
class StampedFile {
 public:
  explicit StampedFile(const char* tag) : path_(TempPath(tag)) {
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    EXPECT_GE(fd_, 0);
    std::vector<uint8_t> buf(kPageSize);
    for (uint32_t p = 0; p < kFilePages / 2; ++p) {
      StampPage(p, buf.data());
      EXPECT_EQ(::pwrite(fd_, buf.data(), kPageSize,
                         static_cast<off_t>(p) * kPageSize),
                static_cast<ssize_t>(kPageSize));
    }
  }
  ~StampedFile() {
    if (fd_ >= 0) ::close(fd_);
    ::unlink(path_.c_str());
  }
  int fd() const { return fd_; }

  static void Expected(uint32_t page, uint8_t* out) {
    if (page < kFilePages / 2) {
      StampPage(page, out);
    } else {
      std::memset(out, 0, kPageSize);
    }
  }

 private:
  std::string path_;
  int fd_ = -1;
};

using IoEngineConformanceTest = testing::TestWithParam<const char*>;

TEST_P(IoEngineConformanceTest, BatchesOfEveryShapeReadExactBytes) {
  StampedFile file("ioconf");
  auto engine = MakeIoEngine(GetParam(), file.fd(), kPageSize);
  ASSERT_NE(engine, nullptr);
  // A known kind must resolve to itself.
  EXPECT_EQ(engine->name(), std::string_view(GetParam()));

  std::mt19937_64 rng(42);
  std::vector<uint32_t> shapes_done;
  uint64_t total_pages = 0;
  uint64_t total_batches = 0;
  for (size_t n : {size_t{1}, size_t{2}, size_t{32}, size_t{200}}) {
    // Random pages including duplicates within one batch and pages in
    // the sparse half of the file.
    std::vector<uint32_t> pages(n);
    for (auto& p : pages) p = static_cast<uint32_t>(rng() % kFilePages);
    std::vector<std::vector<uint8_t>> bufs(n,
                                           std::vector<uint8_t>(kPageSize, 0xee));
    std::vector<IoFetch> fetches(n);
    for (size_t i = 0; i < n; ++i) fetches[i] = {pages[i], bufs[i].data()};
    ASSERT_TRUE(engine->ReadBatch(fetches));
    std::vector<uint8_t> want(kPageSize);
    for (size_t i = 0; i < n; ++i) {
      StampedFile::Expected(pages[i], want.data());
      ASSERT_EQ(std::memcmp(bufs[i].data(), want.data(), kPageSize), 0)
          << GetParam() << " batch n=" << n << " fetch " << i << " page "
          << pages[i];
    }
    total_pages += n;
    total_batches += 1;
  }
  const IoEngine::Stats stats = engine->stats();
  EXPECT_EQ(stats.batches, total_batches);
  EXPECT_EQ(stats.pages, total_pages);
  if (std::string(GetParam()) == "serial") {
    // Serial charges one blocking wait per page...
    EXPECT_EQ(stats.waits, total_pages);
    EXPECT_EQ(stats.max_inflight, 1u);
  } else {
    // ...threads one per batch, with real depth.
    EXPECT_EQ(stats.waits, total_batches);
    EXPECT_GT(stats.max_inflight, 1u);
  }
}

TEST_P(IoEngineConformanceTest, EmptyBatchIsANoOp) {
  StampedFile file("ioempty");
  auto engine = MakeIoEngine(GetParam(), file.fd(), kPageSize);
  EXPECT_TRUE(engine->ReadBatch({}));
}

TEST_P(IoEngineConformanceTest, ConcurrentBatchesFromManyThreads) {
  StampedFile file("ioconc");
  auto engine = MakeIoEngine(GetParam(), file.fd(), kPageSize);
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::vector<uint8_t> want(kPageSize);
      for (int r = 0; r < kRounds; ++r) {
        const size_t n = 1 + rng() % 16;
        std::vector<uint32_t> pages(n);
        for (auto& p : pages) p = static_cast<uint32_t>(rng() % kFilePages);
        std::vector<std::vector<uint8_t>> bufs(
            n, std::vector<uint8_t>(kPageSize));
        std::vector<IoFetch> fetches(n);
        for (size_t i = 0; i < n; ++i) fetches[i] = {pages[i], bufs[i].data()};
        if (!engine->ReadBatch(fetches)) {
          failures.fetch_add(1);
          return;
        }
        for (size_t i = 0; i < n; ++i) {
          StampedFile::Expected(pages[i], want.data());
          if (std::memcmp(bufs[i].data(), want.data(), kPageSize) != 0) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(engine->stats().batches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Engines, IoEngineConformanceTest,
                         testing::Values("serial", "threads"));

TEST(IoEngineTest, MakeIoEngineResolvesKinds) {
  StampedFile file("iomake");
  // The two known names build their engine; every other name, the empty
  // one included, builds "serial".
  const struct {
    const char* kind;
    const char* built;
  } kTable[] = {
      {"serial", "serial"},
      {"threads", "threads"},
      {"", "serial"},
      {"auto", "serial"},
      {"uring", "serial"},
      {"zmq-over-carrier-pigeon", "serial"},
  };
  for (const auto& row : kTable) {
    auto engine = MakeIoEngine(row.kind, file.fd(), kPageSize);
    ASSERT_NE(engine, nullptr) << row.kind;
    EXPECT_EQ(engine->name(), row.built) << "kind '" << row.kind << "'";
  }
}

TEST(IoEngineTest, DefaultDiskStoreUsesSerial) {
  DiskStore::Config config;
  config.path = TempPath("iodefault");
  DiskStore store(std::make_unique<DynamicPgm>(), config);
  ASSERT_TRUE(store.ok()) << store.error();
  EXPECT_EQ(store.io_engine_name(), "serial");
}

TEST(IoEngineTest, HardReadErrorFailsTheBatch) {
  // A closed fd makes every pread fail: the engine must report false,
  // not fabricate bytes.
  for (const char* kind : {"serial", "threads"}) {
    auto engine = MakeIoEngine(kind, /*fd=*/-1, kPageSize);
    std::vector<uint8_t> buf(kPageSize, 0xaa);
    IoFetch fetch{0, buf.data()};
    EXPECT_FALSE(engine->ReadBatch({&fetch, 1})) << kind;
  }
}

// ---- Differential parity: same DiskStore op stream, every engine ------

DiskStore::Config EngineConfig(const char* tag, const char* engine) {
  DiskStore::Config config;
  config.value_size = 64;
  config.page_size = 4096;
  config.pool_pages = 16;  // far smaller than the dataset: real fetches
  config.path = TempPath(tag);
  config.io_engine = engine;
  config.readahead_max_pages = 8;
  return config;
}

TEST(IoEngineTest, EnginesAreDifferentiallyIdenticalOnDiskStore) {
  const std::vector<const char*> engines = {"serial", "threads"};

  constexpr size_t kLoad = 4000;
  constexpr size_t kOps = 2000;
  std::vector<Key> load(kLoad);
  for (size_t i = 0; i < kLoad; ++i) load[i] = 10 + i * 7;

  // One deterministic mixed stream: gets (present + absent), puts
  // (inserts + updates), scans, batch gets, and a crash/recover.
  std::mt19937_64 rng(7);
  struct Op {
    int kind;  // 0=get 1=put 2=scan 3=getbatch 4=crash+recover
    Key key;
    size_t count;
  };
  std::vector<Op> ops(kOps);
  for (size_t i = 0; i < kOps; ++i) {
    const int kind = static_cast<int>(rng() % 10);
    Op& op = ops[i];
    op.key = 10 + (rng() % (kLoad * 2)) * 7 / 2;  // ~half absent
    op.count = 1 + rng() % 32;
    if (kind < 5) {
      op.kind = 0;
    } else if (kind < 7) {
      op.kind = 1;
    } else if (kind == 7) {
      op.kind = 2;
    } else if (kind == 8) {
      op.kind = 3;
    } else {
      op.kind = (i % 500 == 499) ? 4 : 0;
    }
  }

  // Run the stream under each engine, folding every observable output
  // into a transcript; all transcripts must match byte for byte.
  std::vector<std::string> transcripts;
  for (const char* engine : engines) {
    const std::string tag = std::string("iodiff_") + engine;
    DiskStore store(std::make_unique<DynamicPgm>(),
                    EngineConfig(tag.c_str(), engine));
    ASSERT_TRUE(store.ok()) << store.error();
    ASSERT_TRUE(store.BulkLoad(load));
    std::string transcript;
    std::vector<uint8_t> value(store.value_size());
    for (const Op& op : ops) {
      switch (op.kind) {
        case 0: {
          const bool found = store.Get(op.key, value.data());
          transcript += found ? 'F' : '.';
          if (found) {
            transcript.append(reinterpret_cast<const char*>(value.data()),
                              value.size());
          }
          break;
        }
        case 1:
          transcript += store.PutSynthetic(op.key) ? 'P' : 'p';
          break;
        case 2: {
          std::vector<Key> keys;
          store.Scan(op.key, op.count, &keys);
          for (Key k : keys) {
            transcript.append(reinterpret_cast<const char*>(&k), sizeof(k));
          }
          break;
        }
        case 3: {
          // Stride 707 (= 7 * 101): keeps keys on the load grid so some
          // are present, but spreads the tile over many distinct pages —
          // the batch exercises real multi-page Prefetch bursts.
          std::vector<Key> keys(op.count);
          for (size_t i = 0; i < op.count; ++i) keys[i] = op.key + i * 707;
          std::vector<std::vector<uint8_t>> outs(
              op.count, std::vector<uint8_t>(store.value_size()));
          std::vector<uint8_t*> out_ptrs(op.count);
          for (size_t i = 0; i < op.count; ++i) out_ptrs[i] = outs[i].data();
          auto found = std::make_unique<bool[]>(op.count);
          store.GetBatch(keys, out_ptrs.data(), found.get());
          for (size_t i = 0; i < op.count; ++i) {
            transcript += found[i] ? 'B' : '-';
            if (found[i]) {
              transcript.append(reinterpret_cast<const char*>(outs[i].data()),
                                outs[i].size());
            }
          }
          break;
        }
        case 4:
          store.Crash();
          store.Recover();
          transcript += '!';
          break;
      }
    }
    transcript += "size=" + std::to_string(store.size());
    transcripts.push_back(std::move(transcript));
    // Sanity: the configured engine is actually what served the stream.
    if (std::string(engine) != "serial") {
      EXPECT_GT(store.IoStats().io_max_inflight, 1u) << engine;
    }
  }
  for (size_t i = 1; i < transcripts.size(); ++i) {
    EXPECT_EQ(transcripts[i], transcripts[0])
        << "engine " << engines[i] << " diverged from " << engines[0];
  }
}

}  // namespace
}  // namespace pieces
