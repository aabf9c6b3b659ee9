// IoEngine: the block-read layer under the disk tier. The buffer pool
// hands an engine a *batch* of page fetches (all the misses of a tile,
// or a readahead span). Two implementations, selected by name
// (`disk.io_engine`):
//
//  * "serial"  — one blocking pread per page, in order; every page is
//    its own blocking wait. The default: with reads served from the OS
//    page cache it is as fast as overlapping them, and it runs the same
//    code on every kernel.
//  * "threads" — a pool of four pread workers; the submitting thread
//    also steals work, so a batch costs the caller one wait and
//    completes in ~ceil(n/5) device round trips. Overlap pays only when
//    a fetch waits on a real device.
//
// Contract (identical across engines, enforced by the conformance and
// differential-parity tests): ReadBatch returns only when every fetch in
// the batch has completed; short/sparse extents read as zeros (the
// PageStore never-written-page semantics); a hard read error fails the
// whole batch (false) and the caller must not trust any byte of it. The
// engine reads the file only — durability, crash simulation and write
// shadowing stay in PageStore.
#ifndef PIECES_STORE_IO_ENGINE_H_
#define PIECES_STORE_IO_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace pieces {

// One page read: `page * page_size` -> `out[0, page_size)`.
struct IoFetch {
  uint32_t page = 0;
  uint8_t* out = nullptr;
};

class IoEngine {
 public:
  virtual ~IoEngine() = default;

  // Completes every fetch in the batch (overlapped where the backend
  // can); false when any read hard-failed. Thread-safe: concurrent
  // batches from different callers are allowed.
  virtual bool ReadBatch(std::span<const IoFetch> fetches) = 0;

  virtual std::string_view name() const = 0;

  struct Stats {
    uint64_t batches = 0;       // ReadBatch calls issued
    uint64_t pages = 0;         // pages fetched through the engine
    // Blocking waits the *caller* experiences: the serial engine charges
    // one per page (each pread blocks); overlapped engines charge one
    // per batch (the caller parks once for the whole burst).
    uint64_t waits = 0;
    uint64_t max_inflight = 0;  // deepest single batch in flight
  };
  Stats stats() const {
    return {batches_.load(std::memory_order_relaxed),
            pages_.load(std::memory_order_relaxed),
            waits_.load(std::memory_order_relaxed),
            max_inflight_.load(std::memory_order_relaxed)};
  }

 protected:
  void NoteBatch(size_t pages, size_t waits, size_t inflight) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    pages_.fetch_add(pages, std::memory_order_relaxed);
    waits_.fetch_add(waits, std::memory_order_relaxed);
    uint64_t seen = max_inflight_.load(std::memory_order_relaxed);
    while (inflight > seen &&
           !max_inflight_.compare_exchange_weak(seen, inflight,
                                                std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> pages_{0};
  std::atomic<uint64_t> waits_{0};
  std::atomic<uint64_t> max_inflight_{0};
};

// Builds the engine named `kind` ("serial" | "threads") over `fd`. Any
// other name builds "serial", with a one-line stderr note the first time.
std::unique_ptr<IoEngine> MakeIoEngine(const std::string& kind, int fd,
                                       size_t page_size);

}  // namespace pieces

#endif  // PIECES_STORE_IO_ENGINE_H_
