#include "replication/replica_session.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/spin_wait.h"

namespace pieces::replication {

ReplicaSession::ReplicaSession(std::unique_ptr<StoreBackend> replica_store,
                               const ReplicationConfig& config)
    : config_(config),
      log_(std::make_shared<ReplicationLog>()),
      replica_(std::move(replica_store)),
      transport_(&replica_) {
  transport_.SetDelayUs(config_.transport_delay_us);
}

ReplicaSession::~ReplicaSession() { Stop(); }

bool ReplicaSession::SeedFromPrimary(const StoreBackend& primary) {
  const uint64_t start = log_->tail();
  if (!replica_.Seed(primary, start)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  acked_ = start;
  acked_mirror_.store(start, std::memory_order_release);
  return true;
}

void ReplicaSession::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  // Under kReplicated each write's ack waiter ships (DESIGN.md "Shipping").
  if (config_.ack == ReplicationConfig::AckMode::kLocal) {
    shipper_ = std::thread(&ReplicaSession::ShipLoop, this);
  }
}

void ReplicaSession::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  acked_cv_.notify_all();
  log_->Close();          // wake the shipper's WaitTail
  transport_.Shutdown();  // release a gated/blocked Ship
  // No ship step starts once stopping_ is set; wait out the one in flight
  // so that Promote never overlaps an apply.
  std::unique_lock<std::mutex> lock(mu_);
  acked_cv_.wait(lock, [&] { return !shipping_.load(); });
  lock.unlock();
  if (shipper_.joinable()) shipper_.join();
}

void ReplicaSession::ShipLoop() {
  for (;;) {
    uint64_t next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_ || dead_) return;
      next = acked_;
    }
    // Stop() sets stopping_ and then closes the log, which is the only way
    // the wait returns false.
    if (!log_->WaitTail(next)) return;
    ShipUntil(log_->tail(), Clock::time_point::max(), /*spin=*/false);
  }
}

uint64_t ReplicaSession::ShipUntil(uint64_t target, Clock::time_point deadline,
                                   bool spin) {
  const bool bounded = deadline != Clock::time_point::max();
  std::unique_lock<std::mutex> lock(mu_);
  while (started_ && acked_ < target && !dead_ && !stopping_) {
    if (!shipping_.load(std::memory_order_relaxed)) {
      shipping_.store(true, std::memory_order_relaxed);
      const uint64_t from = acked_;
      lock.unlock();
      const uint64_t acked = ShipOnce(from, deadline);
      // Reached, stalled or out of time: return without relocking.
      if (acked >= target || acked == from || Clock::now() >= deadline) {
        return acked;
      }
      lock.lock();
      continue;
    }
    if (spin) {  // the holder's step may cover `target`; the wait decides
      spin = false;
      lock.unlock();
      SpinUntil([&] {
        return acked_mirror_.load(std::memory_order_acquire) >= target ||
               !shipping_.load(std::memory_order_acquire);
      });
      lock.lock();
      continue;
    }
    if (!bounded) {
      acked_cv_.wait(lock);
    } else if (acked_cv_.wait_until(lock, deadline) ==
               std::cv_status::timeout) {
      break;
    }
  }
  return acked_;
}

uint64_t ReplicaSession::ShipOnce(uint64_t from,
                                  Clock::time_point deadline) {
  const size_t n =
      log_->Read(from, std::max<size_t>(1, config_.ship_batch), &batch_);
  bool stalled = false;
  const size_t delivered =
      n == 0 ? 0 : transport_.Ship({batch_.data(), n}, deadline, &stalled);
  const bool died = delivered < n && !stalled;
  uint64_t acked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    acked_ += delivered;
    acked_mirror_.store(acked_, std::memory_order_release);
    if (died) dead_ = true;
    shipping_.store(false, std::memory_order_release);
    acked = acked_;
  }
  acked_cv_.notify_all();
  if (n > 0 && delivered == n) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    // The applied prefix will never be re-shipped; keep the DRAM log
    // bounded by the lag, not the write history.
    log_->TruncateTo(acked);
  }
  return acked;
}

bool ReplicaSession::WaitCaughtUp(uint64_t timeout_us) {
  const uint64_t target = log_->tail();
  const Clock::time_point deadline =
      timeout_us == 0
          ? Clock::time_point::max()
          : Clock::now() + std::chrono::microseconds(timeout_us);
  return ShipUntil(target, deadline, /*spin=*/false) >= target;
}

size_t ReplicaSession::AwaitReplicated(std::span<const uint64_t> marks) {
  if (marks.empty()) return 0;
  // Each mark is the exact watermark of one of the calling thread's own
  // writes: waiting on the global tail instead would entangle this ack
  // with concurrent writers' records and make "acked ⇒ on the replica"
  // one-directional.
  const uint64_t target = marks.back();
  // A shard worker spins before it parks (DESIGN.md, "Shard = store +
  // index + worker lanes + bounded queue").
  const uint64_t reached = ShipUntil(
      target,
      Clock::now() + std::chrono::microseconds(config_.ack_timeout_us),
      /*spin=*/true);
  const size_t confirmed = static_cast<size_t>(
      std::upper_bound(marks.begin(), marks.end(), reached) - marks.begin());
  if (confirmed < marks.size()) {
    ack_failures_.fetch_add(marks.size() - confirmed,
                            std::memory_order_relaxed);
  }
  return confirmed;
}

std::unique_ptr<StoreBackend> ReplicaSession::Promote(uint64_t* rebuild_ns) {
  Stop();
  return replica_.Promote(rebuild_ns);
}

ReplicaSessionStats ReplicaSession::Stats() const {
  ReplicaSessionStats s;
  s.log_tail = log_->tail();
  s.applied = replica_.applied();
  s.lag = s.log_tail > s.applied ? s.log_tail - s.applied : 0;
  s.batches_shipped = batches_.load(std::memory_order_relaxed);
  s.ack_failures = ack_failures_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.acked = acked_;
  s.dead = dead_;
  return s;
}

}  // namespace pieces::replication
