// ReplicaSession: one primary→replica replication link for one shard.
// Owns the ReplicationLog (installed as the primary store's CommitTap),
// the shipping step that drains it in batches through an
// InProcessTransport, and the Replica that applies the stream. The
// service layer (service/router.cc) holds one session per shard next to
// the shard itself in the routing snapshot.
//
// Watermarks (all log indexes, see replication_log.h):
//   tail     — records committed on the primary (acked or about to be).
//   acked    — records delivered-and-applied, confirmed back to the
//              session; with the in-process transport acked == applied.
//   applied  — records the replica has run through its Put path.
//
// Shipping: one step (ShipOnce: read up to ship_batch records past acked,
// ship, publish acked, truncate) runs under a ship token, so records
// reach the replica in log order through one applier at a time. A kLocal
// session's shipper thread drives it; a kReplicated session has none, and
// whichever ack waiter finds the token free ships, so a replicated write
// pays the replica apply instead of a thread hand-off each way.
//
// Every client read is served by the primary; the replica is a warm
// standby for failover.
//
// Semi-sync acks (AckMode::kReplicated): a shard worker holds back the
// completions of its batch from the first locally durable write on, then
// calls AwaitReplicated() once for the whole group. kOk then means "on
// the replica too"; each write the wait did not cover — a dead or
// stalled link — degrades to kRetry instead of blocking forever, and the
// next waiter ships a stalled tail ahead of its own records. A waiter
// that finds the token taken spins briefly before it parks; the kLocal
// shipper always parks (DESIGN.md, the wait rule under "Shard = store +
// index + worker lanes + bounded queue").
#ifndef PIECES_REPLICATION_REPLICA_SESSION_H_
#define PIECES_REPLICATION_REPLICA_SESSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "replication/replica.h"
#include "replication/replication_log.h"
#include "replication/transport.h"
#include "store/store_backend.h"

namespace pieces::replication {

struct ReplicationConfig {
  bool enabled = false;

  // What a write's kOk means.
  enum class AckMode : uint8_t {
    kLocal,       // durable on the primary (replication is async)
    kReplicated,  // durable on the primary AND applied on the replica
  };
  AckMode ack = AckMode::kLocal;

  // At most ship_batch records per transport call, whichever thread ships
  // (the kLocal shipper thread or, under kReplicated, an ack waiter).
  size_t ship_batch = 64;
  // kReplicated ack bound before a locally durable write degrades to
  // kRetry; it also bounds a waiter's own ship on a stalled link.
  uint64_t ack_timeout_us = 100000;
  // Injected transport latency per shipped batch (models the network
  // round trip; the lag experiment sweeps it).
  uint64_t transport_delay_us = 0;
};

struct ReplicaSessionStats {
  uint64_t log_tail = 0;
  uint64_t acked = 0;
  uint64_t applied = 0;
  uint64_t lag = 0;  // tail - applied at sample time
  uint64_t batches_shipped = 0;
  uint64_t ack_failures = 0;  // semi-sync writes degraded to kRetry
  bool dead = false;
};

class ReplicaSession {
 public:
  ReplicaSession(std::unique_ptr<StoreBackend> replica_store,
                 const ReplicationConfig& config);
  ~ReplicaSession();  // Stop()

  ReplicaSession(const ReplicaSession&) = delete;
  ReplicaSession& operator=(const ReplicaSession&) = delete;

  // The tap to install on the primary store (StoreBackend::SetCommitTap).
  const std::shared_ptr<ReplicationLog>& log() const { return log_; }

  // Bulk-seeds the replica from the *quiesced* primary (no concurrent
  // writers during the call) and fast-forwards the watermarks over the
  // seeded image. Call after the primary's bulk load, before Start.
  bool SeedFromPrimary(const StoreBackend& primary);

  // Opens the link (spawning the shipper thread under kLocal); nothing
  // ships before Start. Start after seeding; Stop is idempotent, wakes
  // every ack waiter, and returns once no ship step runs.
  void Start();
  void Stop();

  // Ships until everything in the log as of the call is applied (or the
  // link dies / the session stops / `timeout_us` elapses; 0 waits
  // without bound). True when caught up.
  bool WaitCaughtUp(uint64_t timeout_us = 0);

  // Semi-sync ack for a group of writes the calling thread committed, in
  // commit order: marks[i] is the log watermark that covers write i
  // (log()->ThisThreadWatermark() right after its put), so the marks
  // ascend. Ships (or waits for another thread's ship) until the last
  // mark is applied on the replica, bounded by ack_timeout_us, and
  // returns how many writes the acked watermark covers — always a prefix
  // of the group. Exact per write: write i is on the replica iff i < the
  // result. The rest count as ack_failures.
  size_t AwaitReplicated(std::span<const uint64_t> marks);

  // Failover: stop shipping, recover the replica store off its own
  // durable media, release it for the caller to wrap in a new primary
  // shard. Records past the applied watermark are lost — ship the tail
  // first (WaitCaughtUp) for a planned, lossless switchover.
  std::unique_ptr<StoreBackend> Promote(uint64_t* rebuild_ns);

  ReplicaSessionStats Stats() const;
  const ReplicationConfig& config() const { return config_; }
  // Test access: fail-point/gate injection and replica inspection.
  InProcessTransport* transport() { return &transport_; }
  Replica* replica() { return &replica_; }

 private:
  using Clock = std::chrono::steady_clock;

  void ShipLoop();  // the kLocal shipper thread
  // Drives acked_ to `target` (until the link dies or stalls, the session
  // stops, or `deadline` passes): ships whenever the token is free, else
  // waits for the holder's progress, spinning first with `spin`.
  uint64_t ShipUntil(uint64_t target, Clock::time_point deadline, bool spin);
  // One step from `from` (== acked_) by the token holder, which it hands
  // back with the new acked_. Returns that acked_.
  uint64_t ShipOnce(uint64_t from, Clock::time_point deadline);

  const ReplicationConfig config_;
  std::shared_ptr<ReplicationLog> log_;
  Replica replica_;
  InProcessTransport transport_;

  mutable std::mutex mu_;
  std::condition_variable acked_cv_;
  uint64_t acked_ = 0;  // delivered-and-applied log prefix
  // acked_, republished after each update under mu_ for AwaitReplicated's
  // lock-free spin.
  std::atomic<uint64_t> acked_mirror_{0};
  bool dead_ = false;
  bool stopping_ = false;
  bool started_ = false;
  // The ship token: true while a ShipOnce runs. Written under mu_; read
  // lock-free only by a waiter's spin.
  std::atomic<bool> shipping_{false};
  std::vector<LogRecord> batch_;  // ShipOnce's, reused; token holder only
  std::thread shipper_;           // kLocal only

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> ack_failures_{0};
};

}  // namespace pieces::replication

#endif  // PIECES_REPLICATION_REPLICA_SESSION_H_
