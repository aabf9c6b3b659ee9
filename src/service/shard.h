// One service shard: a StoreBackend (ViperStore or DiskStore, and the
// index inside it) owned by a small pool of worker threads draining
// per-worker (lane) request queues.
// The default is a single worker — the paper's Figs. 12/14 show most
// learned indexes are single-writer, so the only lock anywhere near such
// an index is the queue mutex, amortized across a whole batch per
// acquisition. When the index reports SupportsConcurrentWrites() (ALEX
// via per-node optimistic version locks, XIndex via per-group writer
// locks), a shard may run N writers: requests are routed to a lane by a
// hash of their key, which keeps per-key ordering while letting distinct
// keys execute in parallel inside the concurrent index.
//
// An idle worker spins briefly on its lane before it parks on the lane's
// condvar, so a batch arriving within the budget costs no thread wake-up;
// the wait rule (who spins, who parks, the budget) is in DESIGN.md's
// "Shard = store + index + worker lanes + bounded queue" bullet.
//
// Admission control is enforced at Enqueue: the queue is bounded in
// *requests* (not batches, summed across lanes), and a full queue either
// blocks the producer or rejects the batch depending on the caller's
// AdmissionPolicy. Shutdown is graceful: Stop() lets the workers drain
// everything already queued before joining, so accepted requests always
// complete.
//
// Semi-sync replication (AckMode::kReplicated) acks per batch, not per
// write: a worker runs its batch in queue order, completing requests
// inline until the first write commits locally. From then on it holds
// back every completion, waits once for the replication watermark of its
// latest write, and completes the held-back requests in batch order —
// each write kOk iff the replica applied it, else kRetry. The wait ships
// the log itself rather than waking a shipper thread (see
// replication/replica_session.h). kLocal shards never hold anything back.
//
// Live rebalancing support: BeginRetire() flips the shard into a state
// where every Enqueue returns kRetired (including producers blocked in
// kBlock admission). The router treats kRetired as "the partition moved
// under you" and re-routes against the fresh partition snapshot, so a
// shard can be drained, split and destroyed while clients keep
// submitting.
#ifndef PIECES_SERVICE_SHARD_H_
#define PIECES_SERVICE_SHARD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "replication/replica_session.h"
#include "service/maintainer.h"
#include "service/request.h"
#include "store/store_backend.h"

namespace pieces::service {

class Shard {
 public:
  enum class EnqueueResult : uint8_t {
    kAccepted,
    kRejected,
    kShutdown,
    // The shard is being retired by a live split/merge; the caller must
    // re-route against the current partition snapshot.
    kRetired,
  };

  // When `maintenance.enabled` and the shard's index implements
  // MaintenanceHook, Start() also spawns a background maintainer that
  // retrains drifting segments off the worker thread (maintainer.h).
  // `writers` > 1 takes effect only when the index supports concurrent
  // writes; otherwise the shard silently runs single-writer.
  Shard(size_t id, std::unique_ptr<StoreBackend> store,
        size_t queue_capacity, MaintenanceConfig maintenance = {},
        size_t writers = 1);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // Attaches the shard's replication session (router wiring, before
  // Start). The shared_ptr pins the session for as long as any worker
  // might await an ack on it. With `sync_ack` (AckMode::kReplicated), a
  // locally durable write acks kOk only once the replica applied it: the
  // worker holds back the batch's completions from its first committed
  // write on and awaits the replication watermark once per batch; each
  // write the wait did not cover (ack timeout, dead link) degrades to
  // kRetry. The await ships the log on the worker thread itself (or
  // waits for the lane that holds the session's ship token); it takes no
  // shard lock, so it cannot deadlock request execution — and it is
  // bounded by the session's ack_timeout_us, once per batch, regardless.
  void AttachReplication(
      std::shared_ptr<replication::ReplicaSession> session, bool sync_ack);

  // Spawns the worker threads. Batches may be enqueued before Start (they
  // simply accumulate), which makes admission control deterministic to
  // test.
  void Start();

  // Hands a non-empty batch to the workers. On any non-kAccepted result
  // the batch is left untouched (the caller completes its requests);
  // kRejected additionally counts each request as rejected. A batch
  // larger than the queue capacity is admitted once the queue is
  // otherwise empty, so oversized batches cannot deadlock. With multiple
  // lanes the batch is split by key hash under the same lock, so per-key
  // FIFO order is preserved.
  EnqueueResult Enqueue(std::vector<Request>&& batch, AdmissionPolicy policy);

  // Blocks until every queued request has been executed.
  void Drain();

  // Graceful shutdown: refuse new work, drain the queues, join the
  // workers. Idempotent. Start() may be called again afterwards (crash
  // recovery restarts the workers).
  void Stop();

  // Marks the shard retired: every subsequent Enqueue — and every
  // producer currently blocked in kBlock admission — returns kRetired.
  // Already-queued requests still execute (retire, then Drain, then Stop
  // is the split sequence). Irreversible.
  void BeginRetire();
  bool retired() const;

  // Simulated power failure on this shard's medium: quiesce the workers
  // (accepted requests complete — their persists are done by the time
  // they ack), drop every unpersisted byte, rebuild the index from the
  // surviving pages, and resume serving. Requests submitted during the
  // outage complete with kShutdown. Returns the index rebuild time in
  // nanoseconds. If the shard was never started, the store still crashes
  // and recovers but no worker is spawned.
  uint64_t CrashAndRecover();

  StoreBackend* store() { return store_.get(); }
  const StoreBackend& store() const { return *store_; }
  size_t id() const { return id_; }
  size_t writers() const { return lanes_.size(); }
  // Requests currently queued (admission-control backlog); the split
  // trigger's pressure signal.
  size_t QueueDepth() const;
  ShardStats Stats() const;

 private:
  // Worker-local scratch, built once in WorkerLoop and reused across
  // batches: discarded-read payloads, counted-scan sinks, and the gather
  // arrays the multi-get path fills per run.
  struct Scratch {
    std::vector<uint8_t> value;
    std::vector<Key> scan;
    std::vector<Key> mget_keys;
    std::vector<uint8_t*> mget_outs;
    std::unique_ptr<bool[]> mget_found;
    size_t mget_found_cap = 0;
    // The semi-sync group (sync_ack_ only): the log watermark of each
    // write the batch committed locally, in commit order, and the
    // statuses of the requests held back behind them — the batch's
    // suffix from its first such write on.
    std::vector<uint64_t> marks;
    std::vector<RequestStatus> held;
  };

  // One writer's queue. All lane state is guarded by the shard-wide mu_
  // (admission control is a whole-shard property); only the has_work
  // signal is per-lane so a batch wakes exactly its lane's worker.
  // `queued` mirrors queue.size() (written under mu_) so the worker can
  // spin on it without the lock before it parks on has_work.
  struct Lane {
    std::condition_variable has_work;
    std::deque<std::vector<Request>> queue;
    std::atomic<size_t> queued{0};
  };

  size_t LaneOf(Key key) const;
  void WorkerLoop(size_t lane);
  // Executes the batch in queue order and completes every request; under
  // sync_ack_, the suffix from the first locally committed write on
  // completes after one replication wait for the whole group.
  void ExecuteBatch(std::vector<Request>& batch, Scratch& scratch);
  // Multi-get for a run of >= 2 consecutive kRead requests.
  void ExecuteReadRun(Request* reqs, size_t n, Scratch& scratch);
  // Runs one request against the store and returns its local outcome; a
  // committed write under sync_ack_ also appends its watermark to marks.
  RequestStatus Execute(Request& req, Scratch& scratch);
  // Completes `req` now, or holds its status back once the batch has a
  // write awaiting the replication ack.
  void Settle(Request& req, RequestStatus status, Scratch& scratch);

  const size_t id_;
  const size_t queue_capacity_;
  const MaintenanceConfig maintenance_;
  std::unique_ptr<StoreBackend> store_;
  // Non-null iff maintenance is enabled AND the index exposes a hook.
  std::unique_ptr<Maintainer> maintainer_;
  // Non-null iff replication is attached; sync_ack_ gates the semi-sync
  // await on the write path.
  std::shared_ptr<replication::ReplicaSession> replication_;
  bool sync_ack_ = false;

  mutable std::mutex mu_;
  std::condition_variable has_space_;  // blocked producers wait for room
  std::condition_variable idle_;       // Drain/Stop wait for quiescence
  std::vector<std::unique_ptr<Lane>> lanes_;
  size_t queued_requests_ = 0;  // requests sitting across all lane queues
  size_t in_flight_ = 0;        // requests popped but not yet completed
  uint64_t max_queue_ = 0;
  // Written under mu_; atomic so a spinning worker can see them unlocked.
  std::atomic<bool> stopping_{false};
  std::atomic<bool> retired_{false};
  bool started_ = false;
  std::vector<std::thread> workers_;

  // Counters written by the workers / producers, read by Stats().
  std::atomic<uint64_t> ops_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> recoveries_{0};
};

}  // namespace pieces::service

#endif  // PIECES_SERVICE_SHARD_H_
