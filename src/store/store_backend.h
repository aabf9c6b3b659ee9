// StoreBackend: the storage-tier abstraction behind the learned indexes.
// The paper's "fair comparison environment" puts every index behind one
// KV store; this interface generalizes that store over *media*. Models
// and fence keys always stay in DRAM (inside the OrderedIndex); what
// varies is where the records live and what a last-mile access costs:
//
//   * ViperStore  — records in (simulated) persistent memory, byte-
//     addressable, persist-fence durability (store/viper.h).
//   * DiskStore   — records in fixed-size pages in a regular file behind
//     a CLOCK buffer pool, fsync-barrier durability (store/disk_store.h).
//
// Both are thin media under one record protocol (store/record_core.h):
// layout, commit, bulk load and recovery are written once there.
//
// Shard/KvService and the bench executor are written against this
// interface, so the whole serving stack — batching, admission control,
// live split/merge, crash-and-recover — runs unchanged on either medium,
// and the disk_tier experiment can price "page fetches per lookup vs
// model precision" with the exact code paths of the DRAM baseline.
#ifndef PIECES_STORE_STORE_BACKEND_H_
#define PIECES_STORE_STORE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "index/ordered_index.h"

namespace pieces {

// One committed write, announced on the commit path at the instant the
// record became acknowledgeable: payload and header durable, index swung,
// caller not yet acked. `value` points into the store's write buffer and
// is valid only for the duration of the OnCommit call.
struct CommitRecord {
  Key key = 0;
  const uint8_t* value = nullptr;
  size_t value_size = 0;
};

// Replication seam (src/replication/): a tap installed on a store sees
// every committed put *before* the caller's acknowledgement, which is what
// makes replication-synchronous acks possible downstream. Bulk loads
// are intentionally not tapped — a replica is seeded from the quiesced
// bulk image instead of replaying O(n) one-barrier puts.
class CommitTap {
 public:
  virtual ~CommitTap() = default;
  // Called on the thread that issued the put, before that put returns,
  // so a tap may track per-thread positions; per-key call order matches
  // per-key commit order (cross-key order follows tap arrival, not seqno
  // — concurrent writers may interleave). Must be thread-safe when the
  // store has concurrent writers, and must not call back into the store.
  virtual void OnCommit(const CommitRecord& record) = 0;
};

// Media-level counters, unified across backends so experiments can report
// the cost model of each tier side by side. DRAM/PMem backends leave the
// pool_* and page_fetches fields at zero.
struct StoreIoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  // Durability barriers issued (PMem persist fences or file fsyncs).
  uint64_t barriers = 0;
  // Physical page reads off the device into the buffer pool.
  uint64_t page_fetches = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_writebacks = 0;
  // Pin attempts rejected because every frame was transiently pinned
  // (pool pressure — distinct from I/O failure, which io_errors counts).
  uint64_t pool_all_pinned = 0;
  // Misses that deduplicated onto another caller's in-flight fetch.
  uint64_t pool_dedup_waits = 0;
  uint64_t io_errors = 0;
  // Async-fetch shape (store/io_engine.h): batches submitted, blocking
  // waits the callers experienced (serial = one per page, overlapped =
  // one per batch), and the deepest single batch in flight.
  uint64_t io_batches = 0;
  uint64_t io_waits = 0;
  uint64_t io_max_inflight = 0;
  // Error-bound readahead: extra pages fetched off the model's predicted
  // span, how many a later lookup landed in, how many were evicted
  // untouched.
  uint64_t readahead_pages = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_wasted = 0;
};

class StoreBackend {
 public:
  virtual ~StoreBackend() = default;

  // Bulk-loads `keys` (sorted, unique) with synthetic values derived from
  // each key. False when the medium's capacity is exceeded.
  virtual bool BulkLoad(const std::vector<Key>& keys) = 0;
  // Bulk-load with caller-provided values: `fill` writes value_size()
  // bytes per key (the live-migration path — shard split/merge preserves
  // stored values).
  virtual bool BulkLoad(const std::vector<Key>& keys,
                        const std::function<void(Key, uint8_t*)>& fill) = 0;

  // Inserts or updates; `value` must be exactly value_size() bytes. A
  // true return means the record is durable (it survives any later
  // crash); false means recovery will never resurrect it.
  virtual bool Put(Key key, const uint8_t* value) = 0;
  // Convenience: writes the deterministic synthetic value for `key`.
  virtual bool PutSynthetic(Key key) = 0;

  // Reads the value into `out` (value_size() bytes). False when absent.
  virtual bool Get(Key key, uint8_t* out) const = 0;

  // Batched point reads: outs[i] receives value_size() bytes when
  // found[i] is true; returns the number found. Results must be identical
  // to keys.size() Get calls; backends amortize media access across the
  // batch (overlapped PMem misses, one page fetch per distinct page).
  virtual size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                          bool* found) const = 0;

  // Ordered scan of up to `count` records starting at `from`; values are
  // read (charged) but only keys are returned.
  virtual size_t Scan(Key from, size_t count,
                      std::vector<Key>* out_keys) const = 0;

  // Simulated power failure at a quiescent point: every written-but-
  // unpersisted/unsynced byte is dropped. The store must Recover() before
  // serving again (any access in between throws SimulatedCrash).
  virtual void Crash() = 0;
  // Rebuilds the DRAM index from durable media, trusting only records
  // whose commit header validates. Idempotent. Returns rebuild wall time
  // in nanoseconds.
  virtual uint64_t Recover() = 0;

  virtual const OrderedIndex& index() const = 0;
  virtual OrderedIndex* mutable_index() = 0;
  virtual size_t size() const = 0;
  virtual size_t value_size() const = 0;

  // "viper" or "disk" — experiment labels and backend-selection docs.
  virtual std::string_view BackendName() const = 0;
  virtual StoreIoStats IoStats() const = 0;

  // Installs (or clears, with nullptr) the commit tap. Install before
  // writer traffic starts — the pointer itself is read unsynchronized on
  // the commit path. Shared ownership lets the tap (a ReplicationLog)
  // outlive either side regardless of teardown order.
  void SetCommitTap(std::shared_ptr<CommitTap> tap) {
    commit_tap_ = std::move(tap);
  }

 protected:
  // Commit-path helper for backends: announce a committed record.
  void EmitCommit(Key key, const uint8_t* value, size_t value_size) const {
    if (commit_tap_ == nullptr) return;
    CommitRecord record;
    record.key = key;
    record.value = value;
    record.value_size = value_size;
    commit_tap_->OnCommit(record);
  }

 private:
  std::shared_ptr<CommitTap> commit_tap_;
};

}  // namespace pieces

#endif  // PIECES_STORE_STORE_BACKEND_H_
