#include "bench/loadgen.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "common/timer.h"

namespace pieces::service {
namespace {

// Sleep most of the way, then yield-spin the last stretch: sleep_for
// overshoot (tens of µs) would otherwise be charged to every request's
// coordinated-omission-free latency.
void SleepUntil(uint64_t when_nanos) {
  for (;;) {
    uint64_t now = NowNanos();
    if (now >= when_nanos) return;
    uint64_t remain = when_nanos - now;
    if (remain > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(remain - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

struct Counters {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> not_found{0};
  std::atomic<uint64_t> store_full{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> shutdown{0};
  std::atomic<uint64_t> retried{0};

  void Count(RequestStatus st) {
    switch (st) {
      case RequestStatus::kOk:
        ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kNotFound:
        not_found.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kStoreFull:
        store_full.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kRejected:
        rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kShutdown:
        shutdown.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kRetry:
        retried.fetch_add(1, std::memory_order_relaxed);
        break;
      case RequestStatus::kInvalid:
        // The generator never emits malformed requests; count as rejected
        // so a bug here is at least visible in the tallies.
        rejected.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
};

// Whether a completion represents an executed request (latency is only
// meaningful for those — dropped requests never entered a queue).
bool Executed(RequestStatus st) {
  return st == RequestStatus::kOk || st == RequestStatus::kNotFound ||
         st == RequestStatus::kStoreFull;
}

// Mutex-striped latency sink. Completions run on whichever worker
// executed the request; a stripe per thread-id hash keeps the mutex
// effectively uncontended without tying recorder identity to the (live,
// split-mutable) shard layout.
class StripedLatency {
 public:
  static constexpr size_t kStripes = 16;

  void Record(uint64_t nanos) {
    Stripe& s = stripes_[StripeOf()];
    std::lock_guard<std::mutex> lock(s.mu);
    s.recorder.Record(nanos);
  }

  LatencyRecorder Merged() {
    LatencyRecorder out;
    for (Stripe& s : stripes_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.Merge(s.recorder);
    }
    return out;
  }

 private:
  struct Stripe {
    std::mutex mu;
    LatencyRecorder recorder;
  };

  static size_t StripeOf() {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           kStripes;
  }

  Stripe stripes_[kStripes];
};

}  // namespace

LoadGenResult RunOpenLoop(KvService* service, const std::vector<Op>& ops,
                          const LoadGenOptions& options) {
  LoadGenResult result;
  if (ops.empty() || options.duration_seconds <= 0) return result;
  const size_t clients = std::max<size_t>(1, options.clients);
  const size_t submit_batch = std::max<size_t>(1, options.submit_batch);
  // Per-client inter-arrival gap; a non-positive target means "as fast as
  // admission control allows" (every request due immediately).
  const uint64_t interarrival_ns =
      options.target_qps > 0
          ? static_cast<uint64_t>(1e9 * clients / options.target_qps)
          : 0;

  Counters counters;
  StripedLatency point_latency;
  StripedLatency scan_latency;
  std::vector<uint64_t> issued_per_client(clients, 0);

  const uint64_t start = NowNanos();
  const uint64_t end =
      start + static_cast<uint64_t>(options.duration_seconds * 1e9);

  auto client = [&](size_t c) {
    std::vector<Request> pending;
    pending.reserve(submit_batch);
    auto flush = [&] {
      if (pending.empty()) return;
      service->SubmitBatch(std::move(pending));
      pending = std::vector<Request>();
      pending.reserve(submit_batch);
    };
    uint64_t issued = 0;
    for (uint64_t k = 0;; ++k) {
      const uint64_t scheduled = start + k * interarrival_ns;
      if (scheduled >= end) break;
      uint64_t now = NowNanos();
      // A client that fell behind schedule (saturation, or blocked in
      // admission control) stops offering when the wall-clock window
      // ends — the schedule alone would keep it issuing long after.
      if (now >= end) break;
      if (scheduled > now) {
        flush();  // Don't sit on a batch while idle.
        SleepUntil(scheduled);
      }
      const Op& op = ops[(c + k * clients) % ops.size()];
      Request req;
      req.type = op.type;
      req.key = op.key;
      if (op.type == OpType::kScan) {
        req.scan_len = op.scan_len;
        req.done = [&counters, &scan_latency, scheduled](RequestStatus st) {
          counters.Count(st);
          if (Executed(st)) scan_latency.Record(NowNanos() - scheduled);
        };
      } else {
        req.done = [&counters, &point_latency, scheduled](RequestStatus st) {
          counters.Count(st);
          if (Executed(st)) point_latency.Record(NowNanos() - scheduled);
        };
      }
      pending.push_back(std::move(req));
      ++issued;
      if (pending.size() >= submit_batch) flush();
    }
    flush();
    issued_per_client[c] = issued;
  };

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (auto& t : threads) t.join();
  service->Drain();
  const uint64_t done = NowNanos();

  for (uint64_t n : issued_per_client) result.issued += n;
  result.ok = counters.ok.load();
  result.not_found = counters.not_found.load();
  result.store_full = counters.store_full.load();
  result.rejected = counters.rejected.load();
  result.shutdown = counters.shutdown.load();
  result.retried = counters.retried.load();
  result.wall_seconds = static_cast<double>(done - start) * 1e-9;
  result.offered_qps =
      static_cast<double>(result.issued) / options.duration_seconds;
  const uint64_t executed =
      result.ok + result.not_found + result.store_full;
  result.achieved_qps = result.wall_seconds > 0
                            ? static_cast<double>(executed) /
                                  result.wall_seconds
                            : 0;
  result.point_latency = point_latency.Merged();
  result.scan_latency = scan_latency.Merged();
  return result;
}

}  // namespace pieces::service
