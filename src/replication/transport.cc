#include "replication/transport.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace pieces::replication {

size_t InProcessTransport::Ship(std::span<const LogRecord> records,
                                Clock::time_point deadline, bool* stalled) {
  if (stalled != nullptr) *stalled = false;
  const uint64_t delay = delay_us_.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  size_t deliver;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto open = [&] { return !gated_ || down_; };
    if (deadline == Clock::time_point::max()) {
      cv_.wait(lock, open);
    } else if (!cv_.wait_until(lock, deadline, open)) {
      if (stalled != nullptr) *stalled = true;
      return 0;
    }
    if (down_) return 0;
    if (remaining_ < 0) {
      deliver = records.size();
    } else {
      deliver = std::min<size_t>(records.size(),
                                 static_cast<size_t>(remaining_));
      remaining_ -= static_cast<int64_t>(deliver);
      // The fail point trips *after* the capped delivery: a short count
      // below tells the session the link is gone.
      if (remaining_ == 0) down_ = true;
    }
  }
  // Delivery == apply == ack in-process: there is no window where a
  // record is delivered but unapplied, which is what makes the failover
  // sweep's acked-ops oracle exact in both directions.
  return replica_->Apply(records.first(deliver));
}

void InProcessTransport::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_ = true;
  }
  cv_.notify_all();
}

void InProcessTransport::FailAfter(uint64_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    remaining_ = static_cast<int64_t>(n);
    if (n == 0) down_ = true;
  }
  cv_.notify_all();
}

void InProcessTransport::SetGated(bool gated) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    gated_ = gated;
  }
  cv_.notify_all();
}

}  // namespace pieces::replication
