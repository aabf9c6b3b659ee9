// Request/response types shared by the sharded KV service layer
// (src/service/). The service front-ends a StoreBackend with range-
// partitioned shards (see router.h): every request is routed to the
// single shard that owns its key and executed by that shard's worker
// thread, so strictly single-writer indexes (RMI, PGM, ALEX,
// FITing-tree, RadixSpline, ...) serve concurrent clients without any
// locking inside the index.
#ifndef PIECES_SERVICE_REQUEST_H_
#define PIECES_SERVICE_REQUEST_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "index/ordered_index.h"
#include "workload/ycsb.h"

namespace pieces::service {

// What a shard does when its bounded request queue is full.
enum class AdmissionPolicy : uint8_t {
  kBlock,   // Submit blocks the client until queue space frees up.
  kReject,  // Submit fails fast; the request completes with kRejected.
};

enum class RequestStatus : uint8_t {
  kOk = 0,
  kNotFound,   // Get/RMW on an absent key.
  kStoreFull,  // Put failed (PMem exhausted or read-only index).
  kRejected,   // Admission control dropped the request (queue full).
  kShutdown,   // Service stopped before the request could be queued.
  kInvalid,    // Malformed request (e.g. scan count exceeds uint32_t).
  kRetry,      // The client may resubmit: either the partition moved
               // mid-request (live split/merge/failover) and the re-route
               // budget ran out, or — under AckMode::kReplicated — the
               // write is durable on the primary but replication did not
               // confirm it within the ack timeout.
};

// One KV request. The client owns `value`/`out`/`scan_out` until `done`
// fires. Completions run inline on the executing shard's worker thread
// (or on the submitting thread for rejected/shutdown requests), so they
// must be cheap and must not call back into the service.
struct Request {
  OpType type = OpType::kRead;
  Key key = 0;
  uint32_t scan_len = 0;
  // Put payload (exactly value_size bytes); nullptr means a synthetic
  // value derived from the key (FillSyntheticRecordValue in
  // store/record_format.h).
  const uint8_t* value = nullptr;
  // Get/RMW destination (value_size bytes); nullptr discards the value
  // into worker-local scratch (the read is still charged).
  uint8_t* out = nullptr;
  // Scan destination; results are appended in key order. nullptr counts
  // the scan without returning keys.
  std::vector<Key>* scan_out = nullptr;
  std::function<void(RequestStatus)> done;  // optional

  // Fires `done`, if set.
  void Complete(RequestStatus status) {
    if (done) done(status);
  }
};

struct ShardStats {
  uint64_t ops = 0;         // requests executed by the worker
  uint64_t batches = 0;     // queue entries drained
  uint64_t rejected = 0;    // requests dropped by admission control
  uint64_t max_queue = 0;   // high-water mark of queued requests
  uint64_t recoveries = 0;  // crash-and-recover cycles survived
  size_t keys = 0;          // records owned by the shard's store
  size_t writers = 1;       // worker threads (lanes) serving the shard
  // Background maintainer counters (all zero when maintenance is off or
  // the shard's index has no MaintenanceHook). See MaintainerStats.
  uint64_t bg_scans = 0;
  uint64_t bg_prepared = 0;
  uint64_t bg_published = 0;
  uint64_t bg_aborted = 0;
  uint64_t bg_throttled = 0;
};

struct ServiceStats {
  std::vector<ShardStats> shards;
  // Live-rebalancing counters: structural operations performed and the
  // version of the partition snapshot the stats were read against.
  uint64_t splits = 0;
  uint64_t merges = 0;
  // Replica promotions performed (FailOverShard successes).
  uint64_t failovers = 0;
  uint64_t partition_version = 0;

  uint64_t total_ops() const {
    uint64_t n = 0;
    for (const ShardStats& s : shards) n += s.ops;
    return n;
  }
  uint64_t total_rejected() const {
    uint64_t n = 0;
    for (const ShardStats& s : shards) n += s.rejected;
    return n;
  }
};

}  // namespace pieces::service

#endif  // PIECES_SERVICE_REQUEST_H_
