// InProcessTransport: the link between a primary's shipping step and its
// replica. It has the shape of a socket — ship an ordered batch, learn
// how much of it arrived — but applies batches directly, and doubles as
// the failure-injection surface for the failover tests:
//
//   * FailAfter(n)  — deliver exactly n more records, then the link dies.
//     Sweeping n over every record count kills the primary at every
//     shipped-batch boundary AND every mid-batch offset, deterministically
//     regardless of how records happened to batch at runtime.
//   * SetGated(true) — hold deliveries (a network stall, up to each Ship's
//     deadline) so tests can pin the replica behind the log tail.
//   * SetDelayUs(d) — per-batch latency (a network round trip) for the
//     replication-lag experiment.
#ifndef PIECES_REPLICATION_TRANSPORT_H_
#define PIECES_REPLICATION_TRANSPORT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>

#include "replication/replica.h"
#include "replication/replication_log.h"

namespace pieces::replication {

class InProcessTransport {
 public:
  using Clock = std::chrono::steady_clock;

  explicit InProcessTransport(Replica* replica) : replica_(replica) {}

  // Ships `records` in order; returns how many were delivered *and*
  // applied. A link still stalled at `deadline` (max(): no bound) delivers
  // nothing, sets *stalled (if non-null) and stays up. Any other short
  // count means the link (or the peer) died mid-batch: the session must
  // stop shipping and mark itself dead.
  size_t Ship(std::span<const LogRecord> records, Clock::time_point deadline,
              bool* stalled);
  // Tears the link down, releasing any blocked Ship. Idempotent.
  void Shutdown();

  // Delivers exactly `n` more records, then fails the link permanently —
  // the offset-sweep kill switch.
  void FailAfter(uint64_t n);
  // Holds (true) or releases (false) all deliveries.
  void SetGated(bool gated);
  // Injected per-batch delivery latency.
  void SetDelayUs(uint64_t us) {
    delay_us_.store(us, std::memory_order_relaxed);
  }

 private:
  Replica* const replica_;
  std::atomic<uint64_t> delay_us_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool gated_ = false;
  bool down_ = false;
  int64_t remaining_ = -1;  // records until the fail point trips; -1 = off
};

}  // namespace pieces::replication

#endif  // PIECES_REPLICATION_TRANSPORT_H_
