// The service front door: a Router (KvService) over N range-partitioned
// shards (shard.h), each owning one store backend (ViperStore or
// DiskStore) + index instance and a small pool of worker threads.
//
//  * Partitioning is CDF-balanced: shard boundaries are equal-mass
//    quantiles of a bootstrap key sample, not equal-width slices of the
//    key domain — the same insight the paper applies to learned models
//    (approximate the CDF, not the domain) applied to shard load balance.
//    A FACE-like skewed key set splits evenly by *mass* even though 99.9%
//    of the domain is empty.
//  * Batching: SubmitBatch coalesces a client's requests into per-shard
//    batches (one queue handoff per shard per max_batch requests), so the
//    per-request cost of the queue mutex amortizes away.
//  * Cross-shard scans fan out to every shard whose range intersects
//    [from, ...) and merge in key order — range partitioning makes the
//    merge a concatenation in shard order.
//  * Admission control (ServiceConfig::admission) bounds every shard
//    queue: kBlock applies backpressure to the client, kReject completes
//    the request with RequestStatus::kRejected.
//
// Structural transitions: the partition is a *versioned snapshot*
// ({version, boundaries, slots}, a slot being a shard and its optional
// replication session) behind an atomic pointer, read under an EpochGuard
// and swapped RCU-style. Split, merge and failover are one transition:
// retire the affected slots (every Enqueue bounces with kRetired), drain
// and stop their shards, build the replacement slots plus the edit to the
// boundary list, and publish the successor snapshot; the old snapshot goes
// to the global EpochManager so in-flight routers finish safely. A split
// replaces one slot with two (records migrated through the bulk-load
// path, stored values preserved) and inserts the median key as a
// boundary; a merge replaces two with one and erases their boundary; a
// failover replaces one with one built on the promoted replica store.
// If a replacement cannot be built, the transition rebuilds each retired
// slot in place and keeps the boundaries. A request that raced the swap
// re-routes against the fresh snapshot (a bounded number of times, then
// completes with kRetry). An optional rebalancer thread watches
// per-shard queue-depth pressure and triggers splits automatically;
// merges happen only when a caller asks for one (MergeShards).
//
// Replication (ServiceConfig::replication, off by default): every shard
// gets a shadow replica — a second store + index instance fed by a
// ReplicationLog tap on the primary's commit path and shipped by a
// shipper thread (kLocal) or by the semi-sync ack waiters themselves
// (kReplicated; replication/replica_session.h). The primary serves every
// read; the replica is there to be promoted.
#ifndef PIECES_SERVICE_ROUTER_H_
#define PIECES_SERVICE_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/maintainer.h"
#include "service/request.h"
#include "service/shard.h"
#include "store/disk_store.h"
#include "store/viper.h"

namespace pieces::service {

// Equal-mass range partition of the key space, built from a bootstrap
// sample of keys. Shard s owns [LowerBound(s), LowerBound(s + 1)).
class RangePartition {
 public:
  // `sample` need not be sorted; an empty (or too-small) sample falls
  // back to an equal-width split of the 64-bit domain.
  RangePartition(size_t num_shards, std::vector<Key> sample);

  // Builds a partition from explicit split keys (strictly increasing,
  // nonzero) — the split/merge path derives the successor partition from
  // the current one by inserting or erasing a boundary.
  static RangePartition FromBoundaries(std::vector<Key> boundaries);

  size_t num_shards() const { return num_shards_; }
  size_t ShardOf(Key key) const;
  // Inclusive lower bound of `shard`'s range (shard 0 starts at 0);
  // LowerBound(num_shards()) is infinity in spirit (max Key).
  Key LowerBound(size_t shard) const;
  // The num_shards-1 split keys, strictly increasing.
  const std::vector<Key>& boundaries() const { return boundaries_; }

 private:
  size_t num_shards_;
  std::vector<Key> boundaries_;
};

// Automatic split policy (off by default). The rebalancer samples every
// shard's queue depth each millisecond, smooths it with an EWMA
// (ewma += 0.3 * (depth - ewma)), and splits the hottest shard when its
// pressure crosses the threshold — the signal the paper's single-writer
// bottleneck shows up as first.
struct RebalanceConfig {
  bool enabled = false;
  // Split when a shard's smoothed queue depth exceeds this many requests;
  // 0 means 3/4 of ServiceConfig::queue_capacity.
  size_t split_queue_depth = 0;
  // Never split a shard owning fewer keys than this (halves too small to
  // be worth a migration).
  size_t min_split_keys = 4096;
  size_t max_shards = 64;
  // Minimum time between structural operations, so one hot burst cannot
  // shatter the partition before the first split's effect is measurable.
  uint64_t cooldown_ms = 50;
};

// One rebalancer decision: nothing, or split shard `shard`.
struct RebalanceAction {
  enum class Kind : uint8_t { kNone, kSplit };
  Kind kind = Kind::kNone;
  size_t shard = 0;
};

// The rebalancer's policy, a pure function of each shard's smoothed queue
// depth and key count (parallel, in partition order): split the hottest
// shard (the first, on a tie) once its depth reaches the threshold, unless
// that would exceed max_shards or it owns fewer than min_split_keys keys.
RebalanceAction ChooseRebalanceAction(const std::vector<double>& depths,
                                      const std::vector<size_t>& keys,
                                      const RebalanceConfig& config,
                                      size_t queue_capacity);

struct ServiceConfig {
  size_t num_shards = 4;
  // Per-shard queue bound, in requests (admission-control horizon).
  size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // Coalescing limit: SubmitBatch hands at most this many requests to a
  // shard per queue entry.
  size_t max_batch = 64;
  // Worker threads per shard. Takes effect only for indexes that report
  // SupportsConcurrentWrites() (ALEX, XIndex, OLC B-Tree, SkipList,
  // Hash); all others run single-writer regardless.
  size_t writers_per_shard = 1;
  // Storage backend for every shard: "viper" (records on simulated PMem,
  // the default) or "disk" (records in paged files behind a buffer pool).
  // The serving stack is identical either way; see DESIGN.md "Storage
  // tiers".
  std::string backend = "viper";
  // Per-shard store configuration (value size, PMem capacity, latency).
  ViperStore::Config store;
  // Disk-backend configuration; used only when backend == "disk".
  // disk.path names a *directory* — each shard gets its own
  // shard_<id>.pages file inside it (value_size is taken from
  // store.value_size so both backends always agree on record shape).
  DiskStore::Config disk;
  // Per-shard background retraining (off by default). Ignored when the
  // chosen index does not implement MaintenanceHook.
  MaintenanceConfig maintenance;
  // Automatic live split (off by default).
  RebalanceConfig rebalance;
  // Per-shard primary->replica replication (off by default). When
  // enabled, each shard ships its commit log to a shadow replica store;
  // see replication/replica_session.h for the knobs (ack mode, ship
  // batch, ack timeout, transport delay).
  replication::ReplicationConfig replication;
};

// Outcome of one FailOverShard call.
struct FailoverReport {
  bool ok = false;
  // Wall time the shard range was unavailable: retire -> successor
  // snapshot published (includes drain, catch-up wait, promotion).
  uint64_t outage_ns = 0;
  // Index rebuild portion of the promotion (StoreBackend::Recover).
  uint64_t rebuild_ns = 0;
  // Commit records the primary had logged but the replica never applied
  // at promotion time — writes lost by the failover. Always 0 for a
  // graceful failover with a live link; under AckMode::kReplicated none
  // of these were ever acked to a client.
  uint64_t lost_records = 0;
};

class KvService {
 public:
  // `index_name` is an index/registry.h name — every shard gets its own
  // instance. `bootstrap_sample` drives the CDF-balanced partition.
  KvService(const std::string& index_name, const ServiceConfig& config,
            const std::vector<Key>& bootstrap_sample);
  ~KvService();  // Graceful: drains queues, joins workers.

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  // Splits `sorted_keys` by shard range and bulk-loads each shard.
  // Call before Start. Returns false if any shard's load fails.
  bool BulkLoad(const std::vector<Key>& sorted_keys);

  // Spawns the shard workers (and the rebalancer, when enabled).
  // Requests may be submitted before Start; they queue up (subject to
  // admission control) until workers run.
  void Start();

  // Asynchronous submission. Point requests go to their owning shard;
  // scans fan out (see FanOutScan). Completion semantics: `done` fires on
  // the executing worker thread, or inline on the submitting thread when
  // the request is rejected or the service is shutting down. A request
  // that keeps losing the race against concurrent splits completes with
  // kRetry after kRerouteBudget attempts.
  void Submit(Request req);
  // Coalesces the batch into per-shard sub-batches before enqueueing.
  void SubmitBatch(std::vector<Request> batch);

  // Synchronous conveniences (block until the request completes).
  RequestStatus Get(Key key, uint8_t* out);
  RequestStatus Put(Key key, const uint8_t* value = nullptr);
  RequestStatus Scan(Key from, size_t count, std::vector<Key>* out);

  // Blocks until every queued request has completed.
  void Drain();
  // Graceful drain-and-shutdown: stops the rebalancer, waits out any
  // in-flight split, then stops the workers (draining their queues). New
  // submissions complete with kShutdown. Idempotent.
  void Shutdown();

  // Fails the primary of shard `shard` over to its replica, as a
  // transition of one slot into one: (graceful: wait for the replica to
  // catch up) -> promote the replica store via Recover() -> wrap it in a
  // fresh Shard with a new shadow replica seeded from it. The old
  // primary's medium is crashed, as if the machine died. With
  // graceful=false the replica is promoted as-is — records not yet
  // delivered are lost and counted in the report (the crash-failover
  // experiment; under AckMode::kReplicated those writes were never acked).
  // Fails (ok=false) when replication is off, the index is out of range,
  // or the service is shutting down.
  FailoverReport FailOverShard(size_t shard, bool graceful);

  // Blocks until every shard's replica has applied the commit log tail
  // as of entry. False if any replica link is dead or replication is off.
  bool WaitReplicasCaughtUp();
  // The current snapshot's replication session for shard `shard`
  // (nullptr when replication is off or out of range). Test/bench seam.
  std::shared_ptr<replication::ReplicaSession> replica_session(
      size_t shard) const;

  // Splits shard `shard` of the current partition at its key median, as a
  // transition of one slot into two. Returns false when the split is not
  // feasible (out of range, fewer than two keys, or shutting down) or a
  // half could not be built (the shard is then rebuilt in place).
  // RebalanceConfig::max_shards bounds only the rebalancer's splits.
  bool SplitShard(size_t shard);
  // Inverse, two slots into one: collapses shards `left` and `left + 1`.
  // False when out of range, shutting down, or the union overflows one
  // store (both shards are then rebuilt in place, boundary kept).
  bool MergeShards(size_t left);

  // Simulated whole-service power failure: every shard quiesces, loses
  // its unpersisted PMem bytes, rebuilds its index from the surviving
  // durable records, and resumes serving. Shards crash and recover in
  // parallel (their rebuilds are independent). Requests submitted during
  // the outage complete with kShutdown. Returns per-shard index rebuild
  // times in nanoseconds, indexed by position in the current partition.
  std::vector<uint64_t> CrashAndRecover();

  size_t num_shards() const;
  size_t ShardOf(Key key) const;
  // Copy of the current partition (the underlying snapshot may be
  // swapped by a concurrent split the moment this returns).
  RangePartition partition() const;
  uint64_t partition_version() const;
  const std::string& index_name() const { return index_name_; }
  size_t value_size() const { return config_.store.value_size; }
  size_t TotalKeys() const;
  ServiceStats Stats() const;

  // Re-route attempts before a racing request gives up with kRetry.
  static constexpr int kRerouteBudget = 3;

 private:
  struct ScanJoin;

  // One shard of a snapshot and its replication session (nullptr when
  // replication is off); both ride the same snapshot, so a transition
  // swaps them together.
  struct Slot {
    std::shared_ptr<Shard> shard;
    std::shared_ptr<replication::ReplicaSession> replica;
  };

  // One immutable published routing table. Readers pin it with an
  // EpochGuard and copy the pointers they use, which outlive the snapshot
  // swap (the retired snapshot drops its references when the epoch system
  // reclaims it).
  struct Snapshot {
    uint64_t version = 0;
    RangePartition partition = RangePartition(1, {});
    std::vector<Slot> slots;
  };

  // What a transition puts in place of the slots it retired: the new
  // slots and the boundaries between them. No slots means the successor
  // could not be built.
  struct Successor {
    std::vector<Slot> slots;
    std::vector<Key> boundaries;
  };

  // Routes every request in `batch` against the current snapshot and
  // enqueues per-shard sub-batches. Requests bounced by a retired shard
  // wait for the successor snapshot and re-route, up to `budget` times.
  void RouteBatch(std::vector<Request>&& batch, int budget);
  // Enqueues a batch routed against snapshot `version`; on kRetired,
  // re-routes the batch (budget permitting). Completes the requests
  // inline on rejection/shutdown/exhausted budget.
  void DispatchToShard(const std::shared_ptr<Shard>& shard, uint64_t version,
                       std::vector<Request>&& batch, int budget);
  // What becomes of requests a shard did not accept: kOk means re-route
  // (the shard retired, the budget allows, and a newer snapshot is live);
  // anything else is the status to complete them with.
  RequestStatus Bounce(Shard::EnqueueResult result, uint64_t version,
                       int budget);
  void FanOutScan(Request req, int budget);
  // Blocks until the published snapshot is newer than `version` (a
  // transition in progress has not yet published). False when shutting
  // down.
  bool WaitForNewerSnapshot(uint64_t version);
  // One store instance for shard `id`; replica stores get their own
  // paged file (shard_<id>.replica.pages) under the disk backend.
  std::unique_ptr<StoreBackend> MakeStore(size_t id, bool replica);
  // The shard factory: wraps `store` (filled or promoted) in Shard `id`.
  // With replication on it attaches a new shadow replica seeded from the
  // store's image; both start iff the service has started.
  Slot MakeSlot(size_t id, std::unique_ptr<StoreBackend> store);
  // A new slot owning `keys`, with the stored values of the quiesced
  // `sources`. An empty slot when the records overflow one store.
  Slot Migrate(const std::vector<Key>& keys, std::span<const Slot> sources);
  // The one structural transition, serialized under admin_mu_: checks
  // that slots [first, first + count) exist and pass `admit`, retires,
  // drains and stops their shards, replaces them with `build`'s successor
  // (or, if it has no slots, with each one rebuilt in place), stops their
  // sessions, publishes, and bumps `counter`. False when refused or
  // rebuilt in place. `outage_ns`, when given, gets retire -> publish.
  bool Transition(size_t first, size_t count, std::atomic<uint64_t>& counter,
                  const std::function<bool(const Slot&)>& admit,
                  const std::function<Successor(std::span<const Slot>)>& build,
                  uint64_t* outage_ns = nullptr);
  void PublishSnapshot(Snapshot* next);
  void RebalanceLoop();

  std::string index_name_;
  ServiceConfig config_;

  // Current routing table; written only under admin_mu_, read under an
  // EpochGuard. Retired snapshots go through EpochManager::Global().
  std::atomic<Snapshot*> snapshot_{nullptr};
  // Serializes transitions, CrashAndRecover and Shutdown.
  std::mutex admin_mu_;
  // Pairs with snapshot_changed_: kRetired waiters sleep here until a
  // successor snapshot is published (or shutdown).
  mutable std::mutex snapshot_mu_;
  std::condition_variable snapshot_changed_;

  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stop_rebalancer_{false};
  std::thread rebalancer_;
  bool started_ = false;  // under admin_mu_

  size_t next_shard_id_ = 0;  // under admin_mu_
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> failovers_{0};
};

}  // namespace pieces::service

#endif  // PIECES_SERVICE_ROUTER_H_
