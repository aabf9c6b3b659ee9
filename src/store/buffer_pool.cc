#include "store/buffer_pool.h"

#include <cstring>
#include <utility>

namespace pieces {

BufferPool::BufferPool(PageStore* store, size_t frames,
                       const std::string& engine_kind)
    : BufferPool(store, frames,
                 MakeIoEngine(engine_kind, store->fd(), store->page_size())) {}

BufferPool::BufferPool(PageStore* store, size_t frames,
                       std::unique_ptr<IoEngine> engine)
    : store_(store), engine_(std::move(engine)) {
  frames_.resize(frames == 0 ? 1 : frames);
  for (Frame& f : frames_) f.data.resize(store_->page_size());
  table_.reserve(frames_.size());
}

size_t BufferPool::EvictLocked() {
  // CLOCK: up to two full sweeps — the first clears reference bits, the
  // second takes the first unpinned frame. Only pinned frames (including
  // loading frames, which their fetcher pins) survive both sweeps.
  for (size_t step = 0; step < 2 * frames_.size(); ++step) {
    Frame& f = frames_[clock_hand_];
    const size_t idx = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frames_.size();
    if (f.pins > 0) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    if (f.page != PageStore::kInvalidPage) {
      if (f.readahead) {
        // Evicted before any lookup landed in it: the readahead fetched
        // a page nobody wanted.
        readahead_wasted_.fetch_add(1, std::memory_order_relaxed);
        f.readahead = false;
      }
      f.prefetched = false;
      if (f.dirty) {
        // Write-back is not a durability barrier: the bytes reach the OS
        // page cache and become durable at the next Sync, exactly like
        // any other unsynced write.
        store_->WritePage(f.page, f.data.data());
        writebacks_.fetch_add(1, std::memory_order_relaxed);
        f.dirty = false;
      }
      table_.erase(f.page);
      f.page = PageStore::kInvalidPage;
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    return idx;
  }
  return frames_.size();
}

void BufferPool::StartLoadLocked(size_t idx, uint32_t page) {
  Frame& f = frames_[idx];
  f.page = page;
  f.pins = 1;  // the fetcher's pin: holds the frame while mu_ is dropped
  f.ref = true;
  f.dirty = false;
  f.loading = true;
  f.readahead = false;
  f.prefetched = false;
  table_.emplace(page, idx);
}

void BufferPool::DropFrameLocked(size_t idx) {
  Frame& f = frames_[idx];
  if (f.page != PageStore::kInvalidPage) table_.erase(f.page);
  f.page = PageStore::kInvalidPage;
  f.pins = 0;
  f.ref = false;
  f.dirty = false;
  f.loading = false;
  f.readahead = false;
  f.prefetched = false;
}

uint8_t* BufferPool::Pin(uint32_t page, PinStatus* status) {
  return PinSpan(page, /*ra_lo=*/0, /*ra_hi=*/0, status);
}

uint8_t* BufferPool::PinSpan(uint32_t page, uint32_t ra_lo, uint32_t ra_hi,
                             PinStatus* status) {
  PinStatus local;
  if (status == nullptr) status = &local;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = table_.find(page);
    if (it != table_.end()) {
      const size_t idx = it->second;
      Frame& f = frames_[idx];
      if (f.loading) {
        // Someone else's fetch is in flight: dedup onto it instead of
        // issuing a second read for the same page.
        dedup_waits_.fetch_add(1, std::memory_order_relaxed);
        io_cv_.wait(lock, [&] {
          return !frames_[idx].loading || frames_[idx].page != page;
        });
        continue;  // re-resolve: the fetch landed, failed, or Reset hit
      }
      if (f.readahead) {
        f.readahead = false;
        readahead_hits_.fetch_add(1, std::memory_order_relaxed);
      }
      const bool same_access = f.prefetched;
      f.prefetched = false;
      f.pins++;
      f.ref = true;
      // A Prefetch already charged this page's miss for the same logical
      // access; counting the follow-up pin as a hit would double-book.
      if (!same_access) hits_.fetch_add(1, std::memory_order_relaxed);
      *status = PinStatus::kOk;
      return f.data.data();
    }
    // Miss: claim a frame for the demand page...
    misses_.fetch_add(1, std::memory_order_relaxed);
    const size_t idx = EvictLocked();
    if (idx == frames_.size()) {
      all_pinned_.fetch_add(1, std::memory_order_relaxed);
      *status = PinStatus::kAllPinned;
      return nullptr;
    }
    StartLoadLocked(idx, page);
    // ...and, best-effort, for every non-resident page of the readahead
    // span, so the whole predicted range rides the same engine batch.
    std::vector<std::pair<uint32_t, size_t>> extras;
    for (uint32_t p = ra_lo; p < ra_hi; ++p) {
      if (p == page || table_.find(p) != table_.end()) continue;
      const size_t eidx = EvictLocked();
      if (eidx == frames_.size()) break;  // pool too pinned; span yields
      StartLoadLocked(eidx, p);
      frames_[eidx].readahead = true;
      extras.emplace_back(p, eidx);
    }
    readahead_pages_.fetch_add(extras.size(), std::memory_order_relaxed);
    IoFetch one{page, frames_[idx].data.data()};
    std::vector<IoFetch> many;
    if (!extras.empty()) {
      many.reserve(1 + extras.size());
      many.push_back(one);
      for (const auto& [p, eidx] : extras) {
        many.push_back({p, frames_[eidx].data.data()});
      }
    }
    lock.unlock();
    const bool ok = engine_->ReadBatch(
        extras.empty() ? std::span<const IoFetch>(&one, 1)
                       : std::span<const IoFetch>(many));
    store_->NotePagesRead(1 + extras.size());
    lock.lock();
    // Finalize under the lock. Reset() may have raced the fetch (the
    // post-crash path) and remapped everything — detect it per frame.
    for (const auto& [p, eidx] : extras) {
      Frame& ef = frames_[eidx];
      if (ef.page != p) continue;  // Reset took it
      ef.loading = false;
      if (ef.pins > 0) ef.pins--;  // release the fetcher's pin
      if (!ok) DropFrameLocked(eidx);
    }
    Frame& f = frames_[idx];
    const bool reset_raced = f.page != page;
    if (!reset_raced) {
      f.loading = false;
      if (!ok) DropFrameLocked(idx);
    }
    io_cv_.notify_all();
    if (reset_raced) {
      // The pool was dropped under us (crash + recovery). Mirror the
      // synchronous path's contract: serving is refused while crashed.
      if (store_->fault().crashed()) throw SimulatedCrash{};
      continue;
    }
    if (!ok) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      *status = PinStatus::kIoError;
      return nullptr;
    }
    if (store_->fault().crashed()) {
      // The fetch raced a power failure; the bytes may be mid-rollback.
      if (f.pins > 0) f.pins--;
      throw SimulatedCrash{};
    }
    *status = PinStatus::kOk;
    return f.data.data();
  }
}

void BufferPool::Prefetch(std::span<const uint32_t> pages) {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<std::pair<uint32_t, size_t>> claimed;
  for (uint32_t p : pages) {
    if (table_.find(p) != table_.end()) continue;
    const size_t idx = EvictLocked();
    if (idx == frames_.size()) break;  // the rest fall to demand pins
    StartLoadLocked(idx, p);
    frames_[idx].prefetched = true;
    claimed.emplace_back(p, idx);
  }
  if (claimed.empty()) return;
  // These are demand fetches for the tile, just batched: charge them as
  // misses here (the follow-up Pin sees the prefetched tag and does not
  // also count a hit).
  misses_.fetch_add(claimed.size(), std::memory_order_relaxed);
  std::vector<IoFetch> fetches;
  fetches.reserve(claimed.size());
  for (const auto& [p, idx] : claimed) {
    fetches.push_back({p, frames_[idx].data.data()});
  }
  lock.unlock();
  const bool ok = engine_->ReadBatch(fetches);
  store_->NotePagesRead(fetches.size());
  lock.lock();
  for (const auto& [p, idx] : claimed) {
    Frame& f = frames_[idx];
    if (f.page != p) continue;  // Reset took it
    f.loading = false;
    if (f.pins > 0) f.pins--;
    if (!ok) DropFrameLocked(idx);
  }
  if (!ok) io_errors_.fetch_add(1, std::memory_order_relaxed);
  io_cv_.notify_all();
}

uint8_t* BufferPool::PinNew(uint32_t page) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = table_.find(page);
    if (it != table_.end()) {
      Frame& f = frames_[it->second];
      if (f.loading) {
        const size_t idx = it->second;
        dedup_waits_.fetch_add(1, std::memory_order_relaxed);
        io_cv_.wait(lock, [&] {
          return !frames_[idx].loading || frames_[idx].page != page;
        });
        continue;
      }
      f.readahead = false;
      f.prefetched = false;
      f.pins++;
      f.ref = true;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return f.data.data();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    const size_t idx = EvictLocked();
    if (idx == frames_.size()) return nullptr;
    Frame& f = frames_[idx];
    StartLoadLocked(idx, page);
    f.loading = false;  // no fetch: a fresh page's bytes are defined here
    std::memset(f.data.data(), 0, f.data.size());
    f.dirty = true;  // the zeros exist only in the frame
    return f.data.data();
  }
}

void BufferPool::Unpin(uint32_t page, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(page);
  if (it == table_.end()) return;  // Reset() dropped it mid-pin (crash)
  Frame& f = frames_[it->second];
  if (f.pins > 0) f.pins--;
  if (dirty) f.dirty = true;
}

void BufferPool::WriteBack(uint32_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = table_.find(page);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  store_->WritePage(page, f.data.data());
  f.dirty = false;
}

void BufferPool::FlushPage(uint32_t page) {
  WriteBack(page);
  // The barrier runs outside mu_: a slow fsync must never block other
  // callers' pin/unpin. The caller's pin keeps the frame mapped and its
  // bytes stable, so the Sync covers exactly the WriteBack above.
  store_->Sync();
}

void BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& f : frames_) {
    if (f.page == PageStore::kInvalidPage || !f.dirty || f.loading) continue;
    store_->WritePage(f.page, f.data.data());
    writebacks_.fetch_add(1, std::memory_order_relaxed);
    f.dirty = false;
  }
}

void BufferPool::Reset() {
  std::unique_lock<std::mutex> lock(mu_);
  // Let in-flight fetches land first: dropping a loading frame's mapping
  // would let a new fetch claim the same buffer while the old engine
  // read is still writing it.
  io_cv_.wait(lock, [&] {
    for (const Frame& f : frames_) {
      if (f.loading) return false;
    }
    return true;
  });
  for (Frame& f : frames_) {
    f.page = PageStore::kInvalidPage;
    f.pins = 0;
    f.ref = false;
    f.dirty = false;
    f.loading = false;
    f.readahead = false;
    f.prefetched = false;
  }
  table_.clear();
  clock_hand_ = 0;
  // Wake dedup waiters: their page is gone, they re-resolve (and throw
  // SimulatedCrash if the store is crashed).
  io_cv_.notify_all();
}

}  // namespace pieces
