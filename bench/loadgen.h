// Open-loop load generator for the sharded KV service. Closed-loop
// clients (issue, wait, issue) hide queueing delay: when the server
// stalls, the client stops offering load, so the stall never shows up in
// the tail — the classic coordinated-omission trap. This generator keeps
// an *arrival schedule* instead: request k of client c is due at
//   start + k * (clients / target_qps)
// and its latency is measured from that scheduled arrival to completion,
// so time spent queued behind a stalled shard (or blocked in admission
// control) is charged to the request, exactly as a real user would
// experience it.
//
// Latency is recorded in the completion callback into a small striped
// recorder pool (stripe picked by executing-thread hash, one mutex per
// stripe, merged at the end). Per-shard recorders would break the moment
// a live split changes the shard set mid-run, and a multi-writer shard
// has several workers completing one client's requests concurrently —
// the striped pool is immune to both.
#ifndef PIECES_BENCH_LOADGEN_H_
#define PIECES_BENCH_LOADGEN_H_

#include <cstdint>
#include <vector>

#include "common/latency_recorder.h"
#include "service/router.h"
#include "workload/ycsb.h"

namespace pieces::service {

struct LoadGenOptions {
  // Aggregate offered load across all clients, requests/second. Offer far
  // more than the service can absorb to measure saturation capacity.
  double target_qps = 100'000;
  double duration_seconds = 1.0;
  size_t clients = 2;
  // Client-side coalescing: due requests are submitted in batches of up
  // to this many (the router re-groups them per shard).
  size_t submit_batch = 16;
};

struct LoadGenResult {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t not_found = 0;
  uint64_t store_full = 0;
  uint64_t rejected = 0;
  uint64_t shutdown = 0;
  uint64_t retried = 0;  // completed kRetry: lost the race with a split
  double wall_seconds = 0;   // first scheduled arrival -> drain complete
  double offered_qps = 0;    // issued / duration
  double achieved_qps = 0;   // executed (non-rejected) / wall
  // Coordinated-omission-free latency (completion - scheduled arrival).
  LatencyRecorder point_latency;  // reads/updates/inserts/RMW
  LatencyRecorder scan_latency;
};

// Replays `ops` (round-robin across clients, wrapping as needed) against
// a started service. Returns after every issued request has completed
// (the service is drained, not shut down).
LoadGenResult RunOpenLoop(KvService* service, const std::vector<Op>& ops,
                          const LoadGenOptions& options);

}  // namespace pieces::service

#endif  // PIECES_BENCH_LOADGEN_H_
