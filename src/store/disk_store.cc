#include "store/disk_store.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace pieces {

namespace {

size_t SlotsPerPage(size_t page_size, size_t record_bytes) {
  if (record_bytes == 0) return 0;
  // The handle packs the slot into 16 bits.
  return std::min<size_t>(page_size / record_bytes, 0xffff);
}

}  // namespace

DiskStore::DiskStore(std::unique_ptr<OrderedIndex> index,
                     const Config& config)
    : RecordCore(std::move(index), config.value_size,
                 SlotsPerPage(config.page_size,
                              sizeof(Key) + config.value_size +
                                  sizeof(RecordHeader)),
                 config.page_size),
      config_(config),
      pages_(config.path,
             PageStore::Options{
                 .page_size = config.page_size,
                 .max_pages = std::max<size_t>(
                     1, config.file_capacity / std::max<size_t>(
                                                   1, config.page_size))}),
      pool_(&pages_, std::max<size_t>(1, config.pool_pages),
            config.io_engine) {
  if (!pages_.ok()) {
    error_ = pages_.error();
  } else if (slots_per_page() == 0) {
    error_ = "DiskStore: page_size too small for one record";
  }
}

bool DiskStore::ClaimRun(size_t max, SlotRun* run) {
  bool fresh = false;
  if (tail_page_ == PageStore::kInvalidPage ||
      next_slot_ >= slots_per_page()) {
    uint32_t p = pages_.AllocatePage();
    if (p == PageStore::kInvalidPage) return false;
    tail_page_ = p;
    next_slot_ = 0;
    fresh = true;
  }
  run->page = tail_page_;
  run->first = next_slot_;
  run->count = static_cast<uint32_t>(
      std::min<size_t>(max, slots_per_page() - next_slot_));
  next_slot_ += run->count;
  // Never spin on the pool while holding write_mu_: a writer in its
  // barrier needs the mutex back to unpin its frame.
  uint8_t* frame = fresh ? pool_.PinNew(run->page) : pool_.Pin(run->page);
  while (frame == nullptr) {
    write_mu_.unlock();
    std::this_thread::yield();
    write_mu_.lock();
    CheckPowered();  // the claimed slots died with the crash (zero headers)
    frame = pool_.Pin(run->page);
  }
  run->bytes = frame + SlotOffset(run->first);
  return true;
}

void DiskStore::WriteBytes(uint8_t* dst, const void* src, size_t n) {
  // Slots are invisible to readers until the index swing, so mutating a
  // pinned frame under concurrent reads of *other* slots is safe.
  std::memcpy(dst, src, n);
}

void DiskStore::Barrier(std::span<const SlotRun> runs) {
  std::vector<PageStore::Extent> declared;
  uint32_t last = PageStore::kInvalidPage;
  for (const SlotRun& run : runs) {
    if (run.page != last) {  // runs cluster in the tail page
      pool_.WriteBack(run.page);
      last = run.page;
    }
    declared.push_back(
        {run.page, SlotOffset(run.first), run.count * record_bytes()});
  }
  // The caller's lock stays logically held: re-take write_mu_ on the way
  // out, also when the fsync throws SimulatedCrash.
  write_mu_.unlock();
  struct Relock {
    std::mutex& mu;
    ~Relock() { mu.lock(); }
  } relock{write_mu_};
  pages_.Sync(declared);
}

uint8_t* DiskStore::PinWait(uint32_t page) const {
  return PinSpanWait(page, /*ra_lo=*/0, /*ra_hi=*/0);
}

uint8_t* DiskStore::PinSpanWait(uint32_t page, uint32_t ra_lo,
                                uint32_t ra_hi) const {
  // nullptr means every frame is transiently pinned by other callers
  // (each caller holds at most one pin at a time, so backing off
  // resolves it) or — outside the simulated fault model — a device read
  // error; both are retried.
  uint8_t* frame;
  PinStatus status;
  while ((frame = pool_.PinSpan(page, ra_lo, ra_hi, &status)) == nullptr) {
    std::this_thread::yield();
  }
  return frame;
}

void DiskStore::ReadaheadSpan(Key key, uint32_t target, uint32_t* ra_lo,
                              uint32_t* ra_hi) const {
  *ra_lo = target;
  *ra_hi = target + 1;
  size_t rank_lo;
  size_t rank_hi;
  if (!index_->PredictRank(key, &rank_lo, &rank_hi)) return;
  // Rank -> page holds for bulk-load order (slots are claimed in key
  // order); post-load appends land elsewhere and simply miss the span —
  // the waste shows up in readahead_wasted, not in correctness.
  uint32_t lo = static_cast<uint32_t>(rank_lo / slots_per_page());
  uint32_t hi = static_cast<uint32_t>(
      (rank_hi + slots_per_page() - 1) / slots_per_page());
  lo = std::min(lo, target);
  hi = std::max(hi, target + 1);
  hi = std::min<uint32_t>(hi, static_cast<uint32_t>(pages_.num_pages()));
  if (hi <= target) hi = target + 1;
  const uint32_t cap =
      static_cast<uint32_t>(std::max<size_t>(1, config_.readahead_max_pages));
  if (hi - lo > cap) {
    // Too wide for the knob: keep a cap-sized window around the target.
    const uint32_t before = std::min(target - lo, (cap - 1) / 2);
    lo = target - before;
    hi = std::min(hi, lo + cap);
  }
  *ra_lo = lo;
  *ra_hi = hi;
}

bool DiskStore::BulkLoad(const std::vector<Key>& keys,
                         const std::function<void(Key, uint8_t*)>& fill) {
  CheckPowered();
  std::lock_guard<std::mutex> lock(write_mu_);
  return RecordCore::BulkLoad(keys, fill);
}

bool DiskStore::Put(Key key, const uint8_t* value) {
  CheckPowered();
  std::lock_guard<std::mutex> lock(write_mu_);
  return RecordCore::Put(key, value);
}

bool DiskStore::Get(Key key, uint8_t* out) const {
  CheckPowered();
  Value handle;
  if (!index_->Get(key, &handle)) return false;
  const uint32_t page = HandlePage(handle);
  const uint8_t* frame;
  if (config_.readahead_max_pages > 0) {
    // Error-bound readahead: the model's predicted span is every page
    // this lookup (and its neighborhood) can touch — pin the target and
    // bring the span resident in one overlapped engine batch.
    uint32_t ra_lo;
    uint32_t ra_hi;
    ReadaheadSpan(key, page, &ra_lo, &ra_hi);
    frame = PinSpanWait(page, ra_lo, ra_hi);
  } else {
    frame = PinWait(page);
  }
  std::memcpy(out, frame + SlotOffset(HandleSlot(handle)) + sizeof(Key),
              config_.value_size);
  pool_.Unpin(page, /*dirty=*/false);
  return true;
}

void DiskStore::CopyValues(std::span<const ValueRead> reads) const {
  // Each block of reads prefetches its distinct pages in one engine
  // batch (overlapped bursts, not page-by-page faults), and the current
  // page stays pinned across a run of reads: one pool access per page.
  constexpr size_t kBlock = 64;
  uint32_t block_pages[kBlock];
  const uint8_t* frame = nullptr;
  uint32_t pinned = PageStore::kInvalidPage;
  for (size_t base = 0; base < reads.size(); base += kBlock) {
    const size_t m = std::min(kBlock, reads.size() - base);
    size_t np = 0;
    for (size_t i = 0; i < m; ++i) {
      if (np == 0 || block_pages[np - 1] != reads[base + i].page) {
        block_pages[np++] = reads[base + i].page;
      }
    }
    if (np > 1) pool_.Prefetch(std::span<const uint32_t>(block_pages, np));
    for (size_t i = 0; i < m; ++i) {
      const ValueRead& r = reads[base + i];
      if (r.page != pinned) {
        if (pinned != PageStore::kInvalidPage) {
          pool_.Unpin(pinned, /*dirty=*/false);
        }
        frame = PinWait(r.page);
        pinned = r.page;
      }
      std::memcpy(r.out, frame + SlotOffset(r.slot) + sizeof(Key),
                  config_.value_size);
    }
  }
  if (pinned != PageStore::kInvalidPage) {
    pool_.Unpin(pinned, /*dirty=*/false);
  }
}

size_t DiskStore::GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                           bool* found) const {
  CheckPowered();
  constexpr size_t kTile = 64;
  Value handles[kTile];
  // A tile's hits, sorted by page: consecutive keys cluster in pages
  // after bulk load, so a range-shaped batch pins each page once.
  ValueRead reads[kTile];
  size_t hits = 0;
  for (size_t base = 0; base < keys.size(); base += kTile) {
    size_t m = std::min(kTile, keys.size() - base);
    index_->GetBatch(keys.subspan(base, m), handles, found + base);
    size_t k = 0;
    for (size_t j = 0; j < m; ++j) {
      if (!found[base + j]) continue;
      reads[k++] = {HandlePage(handles[j]), HandleSlot(handles[j]),
                    outs[base + j]};
    }
    std::sort(reads, reads + k, [](const ValueRead& a, const ValueRead& b) {
      return a.page < b.page;
    });
    CopyValues({reads, k});
    hits += k;
  }
  return hits;
}

size_t DiskStore::Scan(Key from, size_t count,
                       std::vector<Key>* out_keys) const {
  CheckPowered();
  std::vector<KeyValue> handles;
  handles.reserve(count);
  size_t got = index_->Scan(from, count, &handles);
  // Handles arrive in key order, which is page order for bulk-loaded
  // runs. Values are read (charged) but only keys are returned.
  std::vector<uint8_t> value(config_.value_size);
  std::vector<ValueRead> reads;
  reads.reserve(handles.size());
  for (const KeyValue& kv : handles) {
    reads.push_back({HandlePage(kv.value), HandleSlot(kv.value), value.data()});
  }
  CopyValues(reads);
  for (const KeyValue& kv : handles) out_keys->push_back(kv.key);
  return got;
}

size_t DiskStore::ReopenForRecovery() {
  // Power back on (no-op after a clean shutdown), and drop every cached
  // frame: the crash rolled the file back under the pool, and a crash may
  // have unwound a writer mid-pin.
  pages_.fault().ClearCrash();
  pool_.Reset();
  std::lock_guard<std::mutex> lock(write_mu_);
  // Never resume filling a possibly-torn tail page.
  tail_page_ = PageStore::kInvalidPage;
  next_slot_ = 0;
  // The page count survives a crash the way a file's length does.
  return pages_.num_pages();
}

StoreIoStats DiskStore::IoStats() const {
  StoreIoStats stats;
  stats.bytes_read = pages_.pages_read() * config_.page_size;
  stats.bytes_written = pages_.pages_written() * config_.page_size;
  stats.barriers = pages_.syncs();
  // Serving-path physical fetches = pool misses (recovery's direct page
  // scan bypasses the pool and is excluded on purpose).
  stats.page_fetches = pool_.misses();
  stats.pool_hits = pool_.hits();
  stats.pool_misses = pool_.misses();
  stats.pool_evictions = pool_.evictions();
  stats.pool_writebacks = pool_.writebacks();
  stats.pool_all_pinned = pool_.all_pinned();
  stats.pool_dedup_waits = pool_.dedup_waits();
  stats.io_errors = pool_.io_errors();
  const IoEngine::Stats engine = pool_.engine().stats();
  stats.io_batches = engine.batches;
  stats.io_waits = engine.waits;
  stats.io_max_inflight = engine.max_inflight;
  stats.readahead_pages = pool_.readahead_pages();
  stats.readahead_hits = pool_.readahead_hits();
  stats.readahead_wasted = pool_.readahead_wasted();
  return stats;
}

}  // namespace pieces
