#include "store/viper.h"

#include <algorithm>

namespace pieces {

ViperStore::ViperStore(std::unique_ptr<OrderedIndex> index,
                       const Config& config)
    : RecordCore(std::move(index), config.value_size, kSlotsPerPage,
                 kSlotsPerPage *
                     (sizeof(Key) + config.value_size + sizeof(RecordHeader))),
      config_(config),
      pmem_(config.pmem_capacity, config.read_latency_ns,
            config.write_latency_ns) {
  // Pre-reserve the page directory so concurrent readers never observe a
  // reallocation of pages_ while writers append. Every allocation is one
  // page, so this bound holds across any number of crash/recover cycles.
  pages_.reserve(config_.pmem_capacity / std::max<size_t>(1, PageBytes()) + 1);
}

bool ViperStore::ClaimRun(size_t max, SlotRun* run) {
  std::lock_guard<std::mutex> lock(pages_mutex_);
  if (pages_.empty() || next_slot_ >= kSlotsPerPage) {
    uint8_t* base = pmem_.Allocate(record_bytes() * kSlotsPerPage);
    if (base == nullptr) return false;
    pages_.push_back(base);
    next_slot_ = 0;
  }
  run->page = static_cast<uint32_t>(pages_.size() - 1);
  run->first = next_slot_;
  run->count = static_cast<uint32_t>(
      std::min<size_t>(max, kSlotsPerPage - next_slot_));
  run->bytes = SlotAddr(run->page, run->first);
  next_slot_ += run->count;
  return true;
}

void ViperStore::Barrier(std::span<const SlotRun> runs) {
  const SlotRun& last = runs.back();
  const uint8_t* end = last.bytes + last.count * record_bytes();
  pmem_.Persist(runs.front().bytes,
                static_cast<size_t>(end - runs.front().bytes));
}

size_t ViperStore::ReopenForRecovery() {
  // Power back on (no-op after a clean shutdown).
  pmem_.fault().ClearCrash();
  std::lock_guard<std::mutex> lock(pages_mutex_);
  // Re-derive the page directory from the durable arena extent: every
  // allocation is exactly one page, so the directory is implied by the
  // allocator offset (which survives a crash the way a file size does —
  // see fault_device.h).
  const size_t num_pages = pmem_.used() / PageBytes();
  pages_.clear();
  for (size_t p = 0; p < num_pages; ++p) {
    pages_.push_back(pmem_.AddressAt(p * PageBytes()));
  }
  // Never resume filling a possibly-torn tail page: the next claim after
  // recovery opens a fresh page (out-of-place stores never reclaim slots
  // anyway).
  next_slot_ = static_cast<uint32_t>(kSlotsPerPage);
  return num_pages;
}

void ViperStore::ReadPage(uint32_t page, uint8_t* out) const {
  // Slot by slot, so recovery is charged one PMem access per slot.
  for (uint32_t s = 0; s < kSlotsPerPage; ++s) {
    pmem_.Read(SlotAddr(page, s), out + s * record_bytes(), record_bytes());
  }
}

bool ViperStore::Get(Key key, uint8_t* out) const {
  Value handle;
  if (!index_->Get(key, &handle)) return false;
  const uint8_t* addr = SlotAddr(HandlePage(handle), HandleSlot(handle));
  pmem_.Read(addr + sizeof(Key), out, config_.value_size);
  return true;
}

size_t ViperStore::GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                            bool* found) const {
  constexpr size_t kTile = 64;
  Value handles[kTile];
  const uint8_t* srcs[kTile];
  uint8_t* dsts[kTile];
  size_t hits = 0;
  for (size_t base = 0; base < keys.size(); base += kTile) {
    size_t m = std::min(kTile, keys.size() - base);
    index_->GetBatch(keys.subspan(base, m), handles, found + base);
    // Gather the hit slots, touching every value's cache lines before the
    // copies so the PMem reads overlap instead of serializing.
    size_t k = 0;
    for (size_t j = 0; j < m; ++j) {
      if (!found[base + j]) continue;
      const uint8_t* addr =
          SlotAddr(HandlePage(handles[j]), HandleSlot(handles[j])) +
          sizeof(Key);
      for (size_t off = 0; off < config_.value_size; off += 64) {
        __builtin_prefetch(addr + off);
      }
      srcs[k] = addr;
      dsts[k] = outs[base + j];
      ++k;
    }
    pmem_.ReadBatch(srcs, dsts, config_.value_size, k);
    hits += k;
  }
  return hits;
}

size_t ViperStore::Scan(Key from, size_t count,
                        std::vector<Key>* out_keys) const {
  std::vector<KeyValue> handles;
  handles.reserve(count);
  size_t got = index_->Scan(from, count, &handles);
  std::vector<uint8_t> value(config_.value_size);
  for (const KeyValue& kv : handles) {
    const uint8_t* addr = SlotAddr(HandlePage(kv.value), HandleSlot(kv.value));
    pmem_.Read(addr + sizeof(Key), value.data(), config_.value_size);
    out_keys->push_back(kv.key);
  }
  return got;
}

}  // namespace pieces
