// Per-shard background maintainer: polls the shard index's drift signals
// (MaintenanceHook::CollectDrift), retrains the worst segments off the
// serving thread (PrepareRetrain), and publishes each replacement with the
// index's RCU swap (PublishRetrain). The serving worker keeps executing
// requests the whole time — the only contention is the index's short
// writer latch inside Prepare/Publish.
//
// The retraining budget (MaintenanceConfig::segments_per_sec) is a token
// bucket: each Prepare costs one token, tokens refill continuously, and a
// drained bucket ends the round — drift that outruns the budget is
// absorbed by the index's deferral headroom until its hard cap forces an
// inline retrain (backpressure).
#ifndef PIECES_SERVICE_MAINTAINER_H_
#define PIECES_SERVICE_MAINTAINER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "index/maintenance.h"

namespace pieces::service {

struct MaintenanceConfig {
  // Off by default: the paper's single-writer benches must be unaffected.
  bool enabled = false;
  // Retraining budget: max segments prepared per second across the shard
  // (token bucket, burst = one second's worth). <= 0 means unlimited.
  double segments_per_sec = 0;
};

struct MaintainerStats {
  uint64_t scans = 0;          // CollectDrift rounds completed
  uint64_t prepared = 0;       // PrepareRetrain calls that returned a plan
  uint64_t published = 0;      // plans installed
  uint64_t aborted = 0;        // plans rejected (segment changed under us)
  uint64_t throttled = 0;      // candidates skipped for lack of budget
};

class Maintainer {
 public:
  // `hook` must outlive the maintainer (the Shard owns both).
  Maintainer(MaintenanceHook* hook, const MaintenanceConfig& config);
  ~Maintainer();

  Maintainer(const Maintainer&) = delete;
  Maintainer& operator=(const Maintainer&) = delete;

  // Spawns the maintenance thread. Idempotent.
  void Start();
  // Joins the maintenance thread; in-flight Prepare/Publish completes
  // first. Idempotent; Start() may be called again (crash recovery).
  void Stop();

  MaintainerStats Stats() const;

 private:
  void Loop();
  // Token-bucket admission for one retrain; always true when unlimited.
  bool TakeToken();

  // CollectDrift pressure threshold. 1.0 is the inline-retrain point;
  // retraining at 75% of it moves the merge off-thread *before* the
  // serving thread would have stalled.
  static constexpr double kDriftThreshold = 0.75;
  // Idle wait between CollectDrift rounds.
  static constexpr std::chrono::microseconds kPollInterval{500};

  MaintenanceHook* const hook_;
  const MaintenanceConfig config_;

  std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;

  // Token bucket state (maintenance thread only).
  double tokens_ = 0;
  uint64_t last_refill_nanos_ = 0;

  std::atomic<uint64_t> scans_{0};
  std::atomic<uint64_t> prepared_{0};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> throttled_{0};
};

}  // namespace pieces::service

#endif  // PIECES_SERVICE_MAINTAINER_H_
