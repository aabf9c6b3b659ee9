// RecordCore: the medium-independent half of a record store, written
// once under both ViperStore (simulated PMem) and DiskStore (paged file
// behind a buffer pool). It owns the record protocol; a store supplies
// only the medium through the small interface at the bottom of the
// class — claim slots, write bytes, a durability barrier, read a page.
//
// Layout: a record is [key | value | RecordHeader] (record_format.h) in
// a fixed-width slot, slots_per_page slots to a page; the index maps a
// key to a packed (page << 16 | slot) handle. One record writer lays out
// key, value and header (next seqno, CRC32C over key+value, magic last)
// for Put and BulkLoad alike, and every barrier covers whole records.
//
// Commit (Put): one barrier makes the whole record durable; only then is
// the index swung, the commit tap told and the caller acked — all on the
// writer's own thread, so a tap that tracks per-thread positions (the
// replication log's watermark) sees exactly the writes that thread is
// about to ack. A crash that tears the record leaves it failing the
// magic (a prefix) or the CRC (a suffix: header without payload head),
// so recovery returns exactly the acked puts (plus, at most, an
// in-flight put whose whole record became durable). A failed swing
// zeroes the header under one more barrier before the put reports
// failure, so recovery never resurrects it.
//
// Bulk load: one barrier per page span of complete records.
//
// Recover: scan every slot of every durable page, keep records whose
// header validates (magic, seqno != 0, CRC), keep the highest seqno per
// key, bulk-load the index and restore the next seqno.
#ifndef PIECES_STORE_RECORD_CORE_H_
#define PIECES_STORE_RECORD_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "index/ordered_index.h"
#include "store/fault_device.h"
#include "store/record_format.h"
#include "store/store_backend.h"

namespace pieces {

class RecordCore : public StoreBackend {
 public:
  bool BulkLoad(const std::vector<Key>& keys) override;
  // One barrier per page span; false when the medium fills up.
  bool BulkLoad(const std::vector<Key>& keys,
                const std::function<void(Key, uint8_t*)>& fill) override;
  // One barrier over the whole record, two if the swing fails; false
  // when the medium is full or the index refuses the key.
  bool Put(Key key, const uint8_t* value) override;
  bool PutSynthetic(Key key) override;
  uint64_t Recover() override;

  const OrderedIndex& index() const override { return *index_; }
  OrderedIndex* mutable_index() override { return index_.get(); }
  size_t size() const override {
    return size_.load(std::memory_order_relaxed);
  }
  size_t value_size() const override { return value_size_; }
  // The medium's power switch: tests arm crash points and tears here
  // the same way on either medium (store/fault_device.h).
  virtual FaultDevice& fault() = 0;
  size_t slots_per_page() const { return slots_per_page_; }
  // Bytes of one record slot: key + value + commit header.
  size_t record_bytes() const { return PayloadBytes() + sizeof(RecordHeader); }

  static Value PackHandle(uint32_t page, uint32_t slot) {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static uint32_t HandlePage(Value v) {
    return static_cast<uint32_t>(v >> 16);
  }
  static uint32_t HandleSlot(Value v) {
    return static_cast<uint32_t>(v & 0xffff);
  }

 protected:
  // `page_bytes` is the medium's page size (>= slots_per_page records).
  RecordCore(std::unique_ptr<OrderedIndex> index, size_t value_size,
             size_t slots_per_page, size_t page_bytes);

  // Consecutive slots of one page, claimed together. `bytes` addresses
  // slot `first` in the medium's address space (a PMem address, or the
  // pinned buffer-pool frame).
  struct SlotRun {
    uint32_t page = 0;
    uint32_t first = 0;
    uint32_t count = 0;
    uint8_t* bytes = nullptr;
  };

  size_t PayloadBytes() const { return sizeof(Key) + value_size_; }

  // ---- The medium ------------------------------------------------------
  // Claims up to `max` (>= 1) consecutive fresh slots in the tail page,
  // opening a new page when it is full. A fresh slot is all zero and
  // stays addressable until ReleaseRun. False when the medium is full.
  virtual bool ClaimRun(size_t max, SlotRun* run) = 0;
  virtual void ReleaseRun(const SlotRun& /*run*/) {}
  // Writes `n` bytes at `dst`, an address inside a claimed slot.
  virtual void WriteBytes(uint8_t* dst, const void* src, size_t n) = 0;
  // Makes every record of `runs` durable; these whole records, in run
  // order, are the declared bytes a torn barrier's tear_bytes count
  // (store/fault_device.h).
  virtual void Barrier(std::span<const SlotRun> runs) = 0;
  // Powers the medium back on for recovery and forgets volatile state
  // (the next claim opens a fresh page); returns the durable page count.
  virtual size_t ReopenForRecovery() = 0;
  // Reads durable page `page` (page_bytes) into `out`.
  virtual void ReadPage(uint32_t page, uint8_t* out) const = 0;

  std::unique_ptr<OrderedIndex> index_;

 private:
  // The one record writer: `fill(value)` writes the value, and the whole
  // record lands at `dst` in one WriteBytes.
  template <typename Fill>
  void WriteRecord(uint8_t* dst, Key key, Fill fill);

  const size_t value_size_;
  const size_t slots_per_page_;
  const size_t page_bytes_;
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> next_seqno_{1};
};

}  // namespace pieces

#endif  // PIECES_STORE_RECORD_CORE_H_
