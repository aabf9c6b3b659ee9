// BufferPool: a CLOCK (second-chance) page cache between DiskStore and
// its PageStore file. The pool is the disk tier's whole cost model — a
// lookup whose last-mile search lands in a pooled frame costs DRAM; a
// miss costs a physical page fetch — so it counts hits, misses,
// evictions and dirty write-backs for the disk_tier experiment to report
// against buffer-pool fraction.
//
// Pin/unpin contract: Pin returns a stable pointer to the frame's bytes
// and holds the frame against eviction until the matching Unpin; pins
// nest (a page may be pinned by several readers at once). CLOCK eviction
// sweeps unpinned frames, clearing reference bits, and writes a dirty
// victim back (WritePage, *not* durable — durability is only ever a
// WriteBack + PageStore::Sync barrier). All pool state is behind one
// mutex; frame *bytes* are accessed outside it under pin protection,
// which is safe because a pinned frame is never evicted or re-mapped.
//
// Fetches run outside the pool lock (store/io_engine.h): a miss claims a
// frame under the mutex, marks it `loading`, and reads it through the
// IoEngine *outside* the mutex, so concurrent misses on different pages
// overlap on the device instead of serializing behind the pool lock. Concurrent
// misses on the same page deduplicate: the second caller parks on a
// condvar until the in-flight fetch lands (counted in dedup_waits).
// PinSpan extends a demand pin with a model-error-bound readahead span —
// one engine batch brings the whole predicted page range resident — and
// Prefetch batches the distinct missing pages of a GetBatch tile the
// same way.
#ifndef PIECES_STORE_BUFFER_POOL_H_
#define PIECES_STORE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/io_engine.h"
#include "store/page_store.h"

namespace pieces {

// Why a Pin returned no frame. kAllPinned is back-pressure (every frame
// transiently pinned by other callers — back off and retry); kIoError is
// a hard device read failure (the bytes never arrived). PR 8 collapsed
// both into nullptr; callers could not tell pool pressure from data
// loss.
enum class PinStatus { kOk, kAllPinned, kIoError };

class BufferPool {
 public:
  // `frames` capacity in pages (>= 1). `engine_kind` selects the fetch
  // backend ("serial" | "threads"; see store/io_engine.h). DiskStore
  // passes its configured engine, which also defaults to "serial".
  BufferPool(PageStore* store, size_t frames,
             const std::string& engine_kind = "serial");
  // Test seam: inject an engine double (e.g. one that fails reads).
  BufferPool(PageStore* store, size_t frames,
             std::unique_ptr<IoEngine> engine);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // Pins `page` into a frame, fetching it from the file on a miss (the
  // CLOCK victim is written back first when dirty). Returns the frame's
  // bytes, or nullptr with `*status` saying why (kAllPinned: every frame
  // is pinned by someone else — the caller backs off and retries; each
  // caller pins at most a page or two, so any pool with >= a few frames
  // per concurrent caller makes progress. kIoError: the fetch failed).
  uint8_t* Pin(uint32_t page, PinStatus* status = nullptr);

  // Pin plus error-bound readahead: pins `page` and, on a miss, brings
  // the whole span [ra_lo, ra_hi) resident in the *same* engine batch.
  // The extra pages land unpinned and tagged; a later Pin that lands in
  // one counts a readahead hit, an eviction before any use counts a
  // wasted page. Readahead is best-effort — extras are skipped when the
  // pool is too pinned to give them frames.
  uint8_t* PinSpan(uint32_t page, uint32_t ra_lo, uint32_t ra_hi,
                   PinStatus* status = nullptr);

  // Brings every (distinct) page in `pages` resident in one engine
  // batch, best-effort, without holding pins afterwards — the GetBatch
  // tile path: prefetch the tile's missing pages in one burst, then pin
  // them one at a time as the tile is served. Fetched pages are charged
  // as misses here; the tile's follow-up Pin of a prefetched frame is
  // deliberately *not* a hit (it is the same logical access).
  void Prefetch(std::span<const uint32_t> pages);

  // Pins a freshly allocated (all-zero) page without a disk fetch — the
  // bulk-load/append path. The frame is zeroed and marked dirty.
  uint8_t* PinNew(uint32_t page);

  // Releases one pin. `dirty` marks the frame's bytes as modified since
  // the last write-back.
  void Unpin(uint32_t page, bool dirty);

  // Writes the (pinned) frame through to the file — not durable until a
  // PageStore::Sync barrier. The frame stays pinned and becomes clean.
  void WriteBack(uint32_t page);

  // Durability barrier for one (pinned) page: WriteBack + Sync. The
  // fsync runs *outside* the pool mutex — a slow barrier must never
  // block other callers' pin/unpin (only the caller's pin keeps the
  // frame stable, which is exactly the WriteBack contract).
  void FlushPage(uint32_t page);

  // Writes every dirty frame back (no fsync — pair with
  // PageStore::Sync() for a durability point over the whole pool).
  void FlushAll();

  // Drops every frame unconditionally, including pinned and loading
  // ones — the post-crash path: rolled-back file content invalidates all
  // cached frames, and a crash may have unwound a caller mid-pin.
  void Reset();

  const IoEngine& engine() const { return *engine_; }
  size_t frames() const { return frames_.size(); }
  uint64_t hits() const { return hits_.load(); }
  uint64_t misses() const { return misses_.load(); }
  uint64_t evictions() const { return evictions_.load(); }
  uint64_t writebacks() const { return writebacks_.load(); }
  uint64_t all_pinned() const { return all_pinned_.load(); }
  uint64_t io_errors() const { return io_errors_.load(); }
  uint64_t dedup_waits() const { return dedup_waits_.load(); }
  uint64_t readahead_pages() const { return readahead_pages_.load(); }
  uint64_t readahead_hits() const { return readahead_hits_.load(); }
  uint64_t readahead_wasted() const { return readahead_wasted_.load(); }

 private:
  struct Frame {
    uint32_t page = PageStore::kInvalidPage;
    uint32_t pins = 0;
    bool ref = false;
    bool dirty = false;
    // Fetch in flight: the mapping exists (dedup target) but the bytes
    // are not valid yet. Held pinned by the fetcher, so never evicted.
    bool loading = false;
    // Resident via readahead and not yet used by any Pin.
    bool readahead = false;
    // Resident via Prefetch and not yet re-pinned by its tile (the
    // follow-up Pin clears the tag without counting a hit).
    bool prefetched = false;
    std::vector<uint8_t> data;
  };

  // Returns the index of an evictable frame (victim written back if
  // dirty, mapping erased), or frames_.size() when every frame is
  // pinned. Caller holds mu_.
  size_t EvictLocked();
  // Maps `page` into frame `idx` in the loading state, pinned by the
  // fetcher. Caller holds mu_.
  void StartLoadLocked(size_t idx, uint32_t page);
  // Unmaps frame `idx` (failed fetch / revoked extra). Caller holds mu_.
  void DropFrameLocked(size_t idx);

  PageStore* store_;
  std::unique_ptr<IoEngine> engine_;
  std::mutex mu_;
  // Signals fetch completions (and Reset) to dedup waiters.
  std::condition_variable io_cv_;
  std::vector<Frame> frames_;
  std::unordered_map<uint32_t, size_t> table_;  // page -> frame index
  size_t clock_hand_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> writebacks_{0};
  std::atomic<uint64_t> all_pinned_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> dedup_waits_{0};
  std::atomic<uint64_t> readahead_pages_{0};
  std::atomic<uint64_t> readahead_hits_{0};
  std::atomic<uint64_t> readahead_wasted_{0};
};

}  // namespace pieces

#endif  // PIECES_STORE_BUFFER_POOL_H_
