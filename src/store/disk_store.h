// DiskStore: the disk-resident StoreBackend — records in fixed-size
// pages in a regular file (store/page_store.h) behind a CLOCK buffer
// pool (store/buffer_pool.h), with the index (models + fence keys) fully
// in DRAM mapping each key to a (page, slot) handle. This opens the
// larger-than-memory regime the paper's 200M–800M-key configurations
// imply: the dataset lives on the block device, the pool caches a
// configurable fraction of it, and the interesting cost model becomes
// *page fetches per lookup vs model precision* (disk_tier experiment).
//
// The record layout, commit protocol, bulk load and recovery are the
// record core's (store/record_core.h). This store supplies the medium:
// slots in pinned buffer-pool frames, and as the barrier a write-back of
// the run's distinct pages plus one fsync (PageStore::Sync) declaring
// the runs' whole records — one per put, one per page in bulk load. A
// torn fsync keeps a prefix or a suffix of those records; the header's
// trailing magic and CRC reject either. Recovery reads pages straight
// off the file, bypassing the pool.
//
// Batched reads group by page: GetBatch resolves handles through the
// index's batch path and sorts the hits by page, so a batch charges one
// pool fetch per *distinct page*, not per key; Scan shares the copy loop.
//
// Concurrency: any number of concurrent readers (each holds at most one
// pin at a time); writers serialize on an internal mutex for slot claim
// and frame mutation, but the fsync barriers themselves run outside it.
// Put is the record core's Put under that mutex, so each writer commits
// (and taps) its own record on its own thread, with one barrier per put
// whatever the writer count.
//
// Reads route through the buffer pool's IoEngine (store/io_engine.h;
// "serial" unless `io_engine` says "threads"): GetBatch prefetches a
// tile's distinct missing pages in one engine batch, and — when
// `readahead_max_pages` > 0 and the index has a bounded model — Get pins
// the predicted-rank page span (slot ± err) in one burst instead of
// faulting pages one by one.
#ifndef PIECES_STORE_DISK_STORE_H_
#define PIECES_STORE_DISK_STORE_H_

#include <memory>
#include <mutex>
#include <string>

#include "store/buffer_pool.h"
#include "store/page_store.h"
#include "store/record_core.h"

namespace pieces {

class DiskStore : public RecordCore {
 public:
  struct Config {
    size_t value_size = 200;   // The paper's 200-byte values.
    size_t page_size = 4096;   // Block-device page granularity.
    // Buffer-pool capacity in frames. The disk_tier experiment sweeps
    // this as a fraction of the dataset's page count.
    size_t pool_pages = 256;
    size_t file_capacity = size_t{1} << 30;
    // Backing file path (required). The file is created/truncated, and
    // removed when the store is destroyed.
    std::string path;
    // Fetch backend: "serial" | "threads". See store/io_engine.h.
    std::string io_engine = "serial";
    // Error-bound readahead: cap (in pages) on the predicted span a
    // lookup pins in one burst. 0 disables — every Get faults exactly
    // its target page, the PR 8 behavior.
    size_t readahead_max_pages = 0;
  };

  DiskStore(std::unique_ptr<OrderedIndex> index, const Config& config);

  // False when the backing file could not be opened (e.g. the data
  // directory is unwritable); error() says why. All other calls are
  // invalid until ok().
  bool ok() const { return pages_.ok() && slots_per_page() > 0; }
  const std::string& error() const { return error_; }

  // ---- StoreBackend ---------------------------------------------------
  bool BulkLoad(const std::vector<Key>& keys,
                const std::function<void(Key, uint8_t*)>& fill) override;
  using RecordCore::BulkLoad;
  bool Put(Key key, const uint8_t* value) override;
  bool Get(Key key, uint8_t* out) const override;
  size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                  bool* found) const override;
  size_t Scan(Key from, size_t count,
              std::vector<Key>* out_keys) const override;
  void Crash() override { pages_.Crash(); }
  std::string_view BackendName() const override { return "disk"; }
  StoreIoStats IoStats() const override;

  FaultDevice& fault() override { return pages_.fault(); }
  PageStore& mutable_pages() { return pages_; }
  const PageStore& pages() const { return pages_; }
  const BufferPool& pool() const { return pool_; }
  // The fetch backend actually in use ("serial" / "threads").
  std::string_view io_engine_name() const { return pool_.engine().name(); }

 private:
  size_t SlotOffset(uint32_t slot) const { return slot * record_bytes(); }
  // Pin that spins out transient all-frames-pinned states (and rare
  // device read errors, which are outside the simulated fault model).
  uint8_t* PinWait(uint32_t page) const;
  // PinWait with an error-bound readahead span: on a miss the pool
  // brings [ra_lo, ra_hi) resident in the same engine batch.
  uint8_t* PinSpanWait(uint32_t page, uint32_t ra_lo, uint32_t ra_hi) const;
  // The model's predicted page span for `key` around its target page,
  // clamped to the file and capped at readahead_max_pages.
  void ReadaheadSpan(Key key, uint32_t target, uint32_t* ra_lo,
                     uint32_t* ra_hi) const;
  void CheckPowered() const { pages_.fault().CheckPowered(); }
  // Copies each read's value (slot `slot` of page `page`) into `out`, in
  // order: the one page-grouped copy loop under GetBatch and Scan.
  struct ValueRead { uint32_t page, slot; uint8_t* out; };
  void CopyValues(std::span<const ValueRead> reads) const;

  // ---- RecordCore medium (every call with write_mu_ held) ----
  // Claims in the tail page and pins its frame; spins on a full pool
  // with write_mu_ released, so a writer in its barrier can still unpin
  // its frame.
  bool ClaimRun(size_t max, SlotRun* run) override;
  void ReleaseRun(const SlotRun& run) override {
    pool_.Unpin(run.page, /*dirty=*/false);
  }
  void WriteBytes(uint8_t* dst, const void* src, size_t n) override;
  // Writes the runs' distinct pages back, then one fsync declaring the
  // runs' records (one extent per run), with write_mu_ released — other
  // writers mutate the same frames under write_mu_, so the write-back
  // never races their memcpy.
  void Barrier(std::span<const SlotRun> runs) override;
  size_t ReopenForRecovery() override;
  void ReadPage(uint32_t page, uint8_t* out) const override {
    pages_.ReadPage(page, out);
  }

  Config config_;
  std::string error_;
  PageStore pages_;
  mutable BufferPool pool_;

  // Serializes slot claim + frame mutation + index swing. Barriers
  // (fdatasync) always run with this mutex *released* so readers and
  // fellow writers never stall behind the device.
  std::mutex write_mu_;
  uint32_t tail_page_ = PageStore::kInvalidPage;
  uint32_t next_slot_ = 0;  // slot within tail_page_; under write_mu_
};

}  // namespace pieces

#endif  // PIECES_STORE_DISK_STORE_H_
