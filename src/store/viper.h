// ViperStore: a Viper-style hybrid KV store (Benson et al., VLDB'21) — the
// paper's "fair comparison environment" (Fig. 9). Key/value records live in
// fixed-slot value pages on (simulated) persistent memory; a *volatile*
// index in DRAM maps each key to its (page, slot) handle. Every index in
// this repo plugs in through the OrderedIndex interface, so end-to-end
// benches exercise identical code paths around the index under test.
//
// The record layout, commit protocol, bulk load and recovery are the
// record core's (store/record_core.h). This store supplies the medium:
// slots in PMem pages, and a persist fence over whole records as the
// barrier — one persist per put (the record's key, value and header) and
// one per page span in bulk load. A torn persist keeps a prefix or a
// suffix of that range (store/fault_device.h); the header's trailing
// magic and CRC reject either. Recovery (Fig. 16) re-derives the page
// directory from the allocator extent, then validates and rebuilds.
#ifndef PIECES_STORE_VIPER_H_
#define PIECES_STORE_VIPER_H_

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "index/ordered_index.h"
#include "store/record_core.h"
#include "store/sim_pmem.h"

namespace pieces {

class ViperStore : public RecordCore {
 public:
  static constexpr size_t kSlotsPerPage = 64;  // Viper's VPage granularity.

  struct Config {
    size_t value_size = 200;  // The paper's 200-byte values.
    size_t pmem_capacity = size_t{1} << 30;
    uint64_t read_latency_ns = 0;
    uint64_t write_latency_ns = 0;
  };

  ViperStore(std::unique_ptr<OrderedIndex> index, const Config& config);

  ViperStore(const ViperStore&) = delete;
  ViperStore& operator=(const ViperStore&) = delete;

  // Reads the value into `out` (value_size bytes). False when absent.
  bool Get(Key key, uint8_t* out) const override;

  // Batched point reads: outs[i] receives value_size bytes when found[i]
  // is true. Handles resolve through the index's batch path, the value
  // slots are prefetched before copying, and the injected PMem read
  // latency is charged once per batch (overlapped misses). Returns the
  // number found; results are identical to keys.size() Get calls.
  size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                  bool* found) const override;

  // Ordered scan of up to `count` records starting at `from`; values are
  // read (charged) but only keys are returned.
  size_t Scan(Key from, size_t count,
              std::vector<Key>* out_keys) const override;

  // Simulated power failure at a quiescent point: every written-but-
  // unpersisted byte is dropped. The store must Recover() before serving
  // again (any access in between throws SimulatedCrash).
  void Crash() override { pmem_.Crash(); }

  FaultDevice& fault() override { return pmem_.fault(); }
  const SimulatedPmem& pmem() const { return pmem_; }
  SimulatedPmem& mutable_pmem() { return pmem_; }
  std::string_view BackendName() const override { return "viper"; }
  StoreIoStats IoStats() const override {
    StoreIoStats stats;
    stats.bytes_read = pmem_.bytes_read();
    stats.bytes_written = pmem_.bytes_written();
    stats.barriers = pmem_.persist_count();
    return stats;  // Byte-addressable: no pages, no pool.
  }

  // Table III columns.
  size_t IndexStructureBytes() const { return index_->IndexSizeBytes(); }
  size_t IndexPlusKeyBytes() const { return index_->TotalSizeBytes(); }
  size_t IndexPlusKvBytes() const {
    return index_->TotalSizeBytes() + pmem_.used();
  }

 private:
  // One page's allocation size (Allocate rounds to 8 bytes).
  size_t PageBytes() const {
    return (record_bytes() * kSlotsPerPage + 7) & ~size_t{7};
  }
  uint8_t* SlotAddr(uint32_t page, uint32_t slot) const {
    return pages_[page] + slot * record_bytes();
  }

  // ---- RecordCore medium ----
  bool ClaimRun(size_t max, SlotRun* run) override;
  void WriteBytes(uint8_t* dst, const void* src, size_t n) override {
    pmem_.Write(dst, src, n);
  }
  // Byte-addressable: one persist from the first run's first record to
  // the last run's last. Runs here are one record, or one bulk-load span
  // of a page.
  void Barrier(std::span<const SlotRun> runs) override;
  size_t ReopenForRecovery() override;
  void ReadPage(uint32_t page, uint8_t* out) const override;

  Config config_;
  SimulatedPmem pmem_;
  std::vector<uint8_t*> pages_;  // page base addresses
  std::mutex pages_mutex_;       // guards pages_ growth and next_slot_
  uint32_t next_slot_ = 0;       // slot within the last page
};

}  // namespace pieces

#endif  // PIECES_STORE_VIPER_H_
