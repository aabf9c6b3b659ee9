// PageStore: fixed-size pages in a regular file (pread/pwrite), the
// block-device tier under DiskStore. Durability follows the contract of
// fault_device.h, translated to files: a WritePage lands in the OS page
// cache and is *not* durable until a Sync() barrier (fdatasync) covers
// it. Every page dirtied since the last barrier keeps a shadow of its
// durable (pre-write) image; a power cut — Crash(), or the armed barrier
// of fault() firing — rolls those pages back, dropping written-but-
// unsynced bytes the way a power failure drops the OS page cache.
//
// A barrier declares the bytes it makes durable: Sync(extents) names
// byte ranges (DiskStore passes the whole records the record core
// barriers), a bare Sync() declares every pending page whole, in
// first-write order. A torn barrier commits the surviving prefix or
// suffix of the declared bytes onto the durable images; everything else
// pending rolls back. What is not modelled is listed in fault_device.h
// (the file's length survives a crash, like a PMem arena's extent).
#ifndef PIECES_STORE_PAGE_STORE_H_
#define PIECES_STORE_PAGE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/fault_device.h"

namespace pieces {

class PageStore {
 public:
  static constexpr uint32_t kInvalidPage = 0xffffffffu;

  // Bytes [offset, offset + length) of `page`, declared by a barrier.
  struct Extent {
    uint32_t page = 0;
    size_t offset = 0;
    size_t length = 0;
  };

  struct Options {
    size_t page_size = 4096;
    // Capacity guard: AllocatePage fails past this many pages.
    size_t max_pages = size_t{1} << 20;
  };

  // Opens (creating + truncating) `path`; the destructor removes the
  // file. On failure ok() is false and error() holds a human-readable
  // reason; every other call is then invalid.
  PageStore(std::string path, const Options& opts);
  ~PageStore();

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

  // Extends the file by one (logical) page; returns its id, or
  // kInvalidPage when max_pages is reached. The page reads as zeros until
  // written. Like a file's length, the allocated extent survives a crash.
  uint32_t AllocatePage();

  // Reads the page into `out` (page_size bytes); never-written extents
  // read as zeros. Throws SimulatedCrash while the device is crashed.
  void ReadPage(uint32_t page, uint8_t* out) const;

  // Writes the whole page (page_size bytes). Not durable until the next
  // Sync() barrier covers it.
  void WritePage(uint32_t page, const uint8_t* data);

  // Durability barrier (fdatasync): every write since the previous
  // barrier becomes durable. Counted; the armed barrier of fault() fails
  // with a prefix or suffix of `declared` committed, and every barrier
  // or write that queued behind it throws SimulatedCrash too.
  void Sync(std::span<const Extent> declared);
  // A barrier declaring every pending page whole, in first-write order.
  void Sync();

  // Quiescent-point power failure: every written-but-unsynced page rolls
  // back to its durable image and the device refuses access until
  // fault().ClearCrash().
  void Crash();

  FaultDevice& fault() { return fault_; }
  const FaultDevice& fault() const { return fault_; }

  size_t page_size() const { return opts_.page_size; }
  size_t num_pages() const {
    return num_pages_.load(std::memory_order_relaxed);
  }
  // The raw descriptor, for the IoEngine read path (store/io_engine.h):
  // engine fetches pread the file directly, without mu_ — safe because
  // the buffer pool only fetches non-resident pages, and every page with
  // writes in flight is resident and pinned. Engines report fetched
  // pages back through NotePagesRead so pages_read() stays the single
  // physical-read counter.
  int fd() const { return fd_; }
  void NotePagesRead(uint64_t n) const {
    pages_read_.fetch_add(n, std::memory_order_relaxed);
  }
  // Test hook: stretches every Sync by `micros` inside the device (the
  // slow-fsync injection the reader-vs-barrier regression test races
  // against).
  void SetSyncDelayForTest(uint64_t micros) {
    sync_delay_us_.store(micros, std::memory_order_relaxed);
  }
  uint64_t pages_read() const { return pages_read_.load(); }
  uint64_t pages_written() const { return pages_written_.load(); }
  uint64_t syncs() const { return syncs_.load(); }

 private:
  void SyncLocked(std::span<const Extent> declared);
  // Rolls every pending page back to its shadow. Caller holds mu_.
  void RestorePendingLocked();
  void PwriteOrDie(uint32_t page, const uint8_t* data);

  Options opts_;
  std::string path_;
  std::string error_;
  int fd_ = -1;
  std::atomic<size_t> num_pages_{0};

  // Guards the file and the unsynced-write tracking below.
  mutable std::mutex mu_;
  // Pages dirtied since the last barrier, in first-write order, each with
  // the durable image it would roll back to.
  std::vector<uint32_t> pending_order_;
  std::unordered_map<uint32_t, std::vector<uint8_t>> shadow_;

  FaultDevice fault_;
  std::atomic<uint64_t> sync_delay_us_{0};

  mutable std::atomic<uint64_t> pages_read_{0};
  std::atomic<uint64_t> pages_written_{0};
  std::atomic<uint64_t> syncs_{0};
};

}  // namespace pieces

#endif  // PIECES_STORE_PAGE_STORE_H_
