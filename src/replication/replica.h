// Replica: a warm standby image of one shard's store. Shipped log records
// are applied through the ordinary StoreBackend::Put path — payload,
// barrier, commit header, barrier, index swing — so the replica's index is
// rebuilt incrementally under the stream and its media image is exactly as
// durable as a primary's. Promotion therefore *is* crash recovery: run the
// store's idempotent Recover() (rebuilding the index from the replica's
// own durable records) and hand the store over; the issue's failover path
// and the crash path share one mechanism.
//
// Thread model: the applier (whichever thread holds the session's ship
// token) takes the store exclusively per shipped batch; Get, through
// which tests inspect the replica, takes it shared. Most indexes in the
// registry are strictly single-writer, so a Get must never overlap an
// apply.
#ifndef PIECES_REPLICATION_REPLICA_H_
#define PIECES_REPLICATION_REPLICA_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "replication/replication_log.h"
#include "store/store_backend.h"

namespace pieces::replication {

class Replica {
 public:
  explicit Replica(std::unique_ptr<StoreBackend> store);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Bulk-loads the replica from a *quiesced* primary, preserving stored
  // value bytes, and aligns the applied watermark with `log_start` (the
  // log tail at the moment of the scan — everything before it is covered
  // by the seed image). False on store overflow.
  bool Seed(const StoreBackend& primary, uint64_t log_start);

  // Applies `records` in order through the store's Put path; returns how
  // many applied (fewer only when the replica store is full or promoted).
  // Single applier assumed: the session's ship token admits one thread.
  size_t Apply(std::span<const LogRecord> records);

  // Log index one past the last applied record.
  uint64_t applied() const { return applied_.load(std::memory_order_acquire); }

  // Reads the replica's image. Returns found; sets *gone when the store
  // has been released by promotion.
  bool Get(Key key, uint8_t* out, bool* gone) const;

  // Failover: recover the store off its own durable media (rebuilding the
  // index exactly as a restarted primary would) and release it to the
  // caller. Later applies find no store and apply nothing.
  std::unique_ptr<StoreBackend> Promote(uint64_t* rebuild_ns);

  // Test/stat access; null after promotion.
  const StoreBackend* store() const { return store_.get(); }

 private:
  std::unique_ptr<StoreBackend> store_;  // null once promoted
  // Applier/promotion exclusive, readers shared.
  mutable std::shared_mutex store_mu_;
  std::atomic<uint64_t> applied_{0};
};

}  // namespace pieces::replication

#endif  // PIECES_REPLICATION_REPLICA_H_
