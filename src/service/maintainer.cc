#include "service/maintainer.h"

#include <algorithm>

#include "common/epoch.h"
#include "common/timer.h"

namespace pieces::service {

Maintainer::Maintainer(MaintenanceHook* hook,
                       const MaintenanceConfig& config)
    : hook_(hook), config_(config) {}

Maintainer::~Maintainer() { Stop(); }

void Maintainer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  // A fresh bucket starts full so a drifted index gets immediate help.
  tokens_ = std::max(1.0, config_.segments_per_sec);
  last_refill_nanos_ = NowNanos();
  thread_ = std::thread(&Maintainer::Loop, this);
}

void Maintainer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
    wake_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

MaintainerStats Maintainer::Stats() const {
  MaintainerStats s;
  s.scans = scans_.load(std::memory_order_relaxed);
  s.prepared = prepared_.load(std::memory_order_relaxed);
  s.published = published_.load(std::memory_order_relaxed);
  s.aborted = aborted_.load(std::memory_order_relaxed);
  s.throttled = throttled_.load(std::memory_order_relaxed);
  return s;
}

bool Maintainer::TakeToken() {
  if (config_.segments_per_sec <= 0) return true;
  uint64_t now = NowNanos();
  double elapsed_sec =
      static_cast<double>(now - last_refill_nanos_) * 1e-9;
  last_refill_nanos_ = now;
  tokens_ = std::min(std::max(1.0, config_.segments_per_sec),
                     tokens_ + elapsed_sec * config_.segments_per_sec);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void Maintainer::Loop() {
  std::vector<DriftCandidate> candidates;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait_for(lock, kPollInterval, [&] { return stopping_; });
      if (stopping_) return;
    }
    candidates.clear();
    hook_->CollectDrift(kDriftThreshold, &candidates);
    scans_.fetch_add(1, std::memory_order_relaxed);
    for (size_t ci = 0; ci < candidates.size(); ++ci) {
      const DriftCandidate& cand = candidates[ci];
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) return;
      }
      if (!TakeToken()) {
        // Budget drained: the rest of this round waits for refill. The
        // index keeps absorbing drift until its hard cap.
        throttled_.fetch_add(candidates.size() - ci,
                             std::memory_order_relaxed);
        break;
      }
      auto plan = hook_->PrepareRetrain(cand.segment_id);
      if (plan == nullptr) continue;  // Segment gone (split/bulk load).
      prepared_.fetch_add(1, std::memory_order_relaxed);
      if (hook_->PublishRetrain(std::move(plan))) {
        published_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      aborted_.fetch_add(1, std::memory_order_relaxed);
      // The segment changed between snapshot and publish (a racing
      // compaction or split). Re-prepare once with fresh state; if it
      // races again, the next round will see it in CollectDrift anyway.
      plan = hook_->PrepareRetrain(cand.segment_id);
      if (plan == nullptr) continue;
      prepared_.fetch_add(1, std::memory_order_relaxed);
      if (hook_->PublishRetrain(std::move(plan))) {
        published_.fetch_add(1, std::memory_order_relaxed);
      } else {
        aborted_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Bound limbo growth: each publish retires a model; fold reclamation
    // into the maintenance cadence instead of the serving path.
    EpochManager::Global().ReclaimSome();
  }
}

}  // namespace pieces::service
