// The benchmark's own open-loop load generator and the two stacks it
// drives. It does not use service::RunOpenLoop, so no change to the
// library can move the numbers by changing how they are measured.
//
//  * One client thread offers requests on a fixed schedule (or, in the
//    capacity phase, as fast as kBlock admission lets it) and submits
//    every request already due in one batch of at most 64.
//  * Each request is timed from its scheduled arrival; every completion
//    time is kept, so percentiles are exact.
//  * Every write carries a self-checking value (payload.h) and every kOk
//    read is checked against the key it asked for.
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "replication/replica_session.h"
#include "service/router.h"
#include "service/shard.h"
#include "workload/ycsb.h"

namespace perfbench {

using pieces::service::Request;
using pieces::service::RequestStatus;

inline constexpr uint64_t kNoSeq = ~0ull;

inline bool IsWrite(pieces::OpType t) {
  return t == pieces::OpType::kUpdate || t == pieces::OpType::kInsert ||
         t == pieces::OpType::kReadModifyWrite;
}

// Where requests go: the KvService front door, or the traced stack.
class Target {
 public:
  virtual ~Target() = default;
  // `seqs[i]` is batch[i]'s request id, or kNoSeq for verification reads.
  virtual void Submit(std::vector<Request>&& batch,
                      const std::vector<uint64_t>& seqs) = 0;
  virtual void Drain() = 0;
};

class ServiceTarget final : public Target {
 public:
  explicit ServiceTarget(pieces::service::KvService* service)
      : service_(service) {}
  void Submit(std::vector<Request>&& batch,
              const std::vector<uint64_t>&) override {
    service_->SubmitBatch(std::move(batch));
  }
  void Drain() override { service_->Drain(); }

 private:
  pieces::service::KvService* const service_;
};

// Per-request and per-batch spans of the traced run, indexed by request
// id and by the batch id the traced router hands each Enqueue.
struct TraceArrays {
  explicit TraceArrays(size_t requests);
  std::vector<uint32_t> batch_of;  // request -> batch
  std::vector<uint32_t> exec_ns;   // store span (a batch call's share)
  std::vector<uint32_t> gap_ns;    // store return -> done
  std::vector<uint64_t> enq_ret;   // batch: Enqueue returned
  std::vector<uint64_t> first_start;  // batch: first store call began
  std::vector<uint64_t> last_done;    // batch: last done ran
  std::vector<uint8_t> shard_of;      // batch -> shard
  uint32_t next_batch = 0;            // client thread only
};

// Result of one timed phase: requests [begin, end) were issued.
struct PhaseRun {
  size_t begin = 0;
  size_t end = 0;
  uint64_t t0 = 0;
  double ns_per_op = 0;  // 0 = every request due at t0
  double seconds = 0;
  uint64_t last_done = 0;
  uint64_t Scheduled(size_t seq) const {
    return t0 + static_cast<uint64_t>(static_cast<double>(seq - begin) *
                                      ns_per_op);
  }
};

class Driver {
 public:
  // `trace` may be null (untraced run). `ops` must outlive the driver.
  Driver(const std::vector<pieces::Op>& ops, size_t value_size,
         TraceArrays* trace);

  // Offers requests [begin, limit) at `rate` ops/s (0 = as fast as
  // admission allows) for `seconds`, then drains the target.
  PhaseRun Run(Target& target, size_t begin, size_t limit, double rate,
               double seconds);

  // Reads every key in `expect` ({key, version of its last acked write})
  // back through `target`. Returns how many are missing or older than
  // acked; a value that does not decode counts in wrong_payloads().
  uint64_t VerifyAcked(Target& target,
                       const std::vector<std::pair<Key, uint64_t>>& expect);

  // {key, last acked version} over every write issued so far.
  std::vector<std::pair<Key, uint64_t>> AckedWrites() const;

  // For the self-test: flips a byte of the next kOk read's payload before
  // it is checked.
  void CorruptNextRead() { corrupt_next_read_.store(true); }

  RequestStatus status(size_t seq) const {
    return static_cast<RequestStatus>(status_[seq]);
  }
  uint64_t done_ns(size_t seq) const { return done_ns_[seq]; }
  uint32_t late_ns(size_t seq) const { return late_ns_[seq]; }
  uint64_t wrong_payloads() const { return wrong_payloads_.load(); }
  uint64_t wrong_scans() const { return wrong_scans_.load(); }
  const std::vector<pieces::Op>& ops() const { return ops_; }

 private:
  static constexpr size_t kRing = 16384;
  static constexpr size_t kMaxBatch = 64;

  Request Build(size_t seq);
  void Complete(uint64_t seq, RequestStatus status);
  bool ScanOk(const pieces::Op& op, const std::vector<Key>& keys) const;
  uint8_t* Slot(size_t seq) { return &ring_[(seq % kRing) * value_size_]; }

  const std::vector<pieces::Op>& ops_;
  const size_t value_size_;
  TraceArrays* const trace_;
  std::thread::id client_;

  std::vector<uint64_t> done_ns_;
  std::vector<uint8_t> status_;
  std::vector<uint32_t> late_ns_;
  // Request buffers, reused every kRing requests; a slot is reused only
  // after its previous request completed.
  std::vector<uint8_t> ring_;
  std::vector<std::vector<Key>> scan_ring_;
  std::unique_ptr<std::atomic<bool>[]> slot_busy_;

  std::atomic<uint64_t> wrong_payloads_{0};
  std::atomic<uint64_t> wrong_scans_{0};
  std::atomic<bool> corrupt_next_read_{false};
};

// The traced run's stack, built from public constructors:
//   MakeIndex -> TimedIndex -> ViperStore/DiskStore -> TimedStore -> Shard
// (+ ReplicaSession over a TimedStore replica when replication is on),
// routed with RangePartition::ShardOf + Shard::Enqueue. Scans fan out to
// every shard from the owning one onward and merge in shard order, as
// KvService does.
class TracedStack final : public Target {
 public:
  TracedStack(const std::string& index_name,
              const pieces::service::ServiceConfig& config,
              const std::vector<Key>& sample, TraceArrays* trace);
  ~TracedStack() override;

  bool BulkLoad(const std::vector<Key>& sorted_keys);
  void Start();
  void Submit(std::vector<Request>&& batch,
              const std::vector<uint64_t>& seqs) override;
  void Drain() override;

  size_t num_shards() const { return shards_.size(); }
  pieces::service::Shard& shard(size_t i) { return *shards_[i]; }
  pieces::replication::ReplicaSession* session(size_t i) {
    return sessions_.empty() ? nullptr : sessions_[i].get();
  }

  // Crashes and recovers every shard in parallel; per-shard rebuild ns.
  std::vector<uint64_t> CrashAndRecover();
  // The graceful failover sequence on shard `s`, timed from outside:
  // retire, drain, wait for the replica, stop (= drain_ns), then promote
  // the replica through Recover (= rebuild_ns). Leaves shard `s` dead.
  bool FailoverProbe(size_t s, uint64_t* drain_ns, uint64_t* rebuild_ns);

  // Client-thread router costs, per benchmark phase.
  uint64_t route_ns(Phase p) const { return route_ns_[p]; }
  uint64_t enqueue_ns(Phase p) const { return enqueue_ns_[p]; }
  uint64_t routed(Phase p) const { return routed_[p]; }

 private:
  std::unique_ptr<pieces::StoreBackend> MakeStore(size_t id, bool replica);
  void FanOutScan(Request req);
  void Dispatch(size_t shard, std::vector<Request>&& batch);

  const std::string index_name_;
  const pieces::service::ServiceConfig config_;
  TraceArrays* const trace_;
  pieces::service::RangePartition partition_;
  // Sessions outlive shards (declared first, destroyed last).
  std::vector<std::shared_ptr<pieces::replication::ReplicaSession>>
      sessions_;
  std::vector<std::unique_ptr<pieces::service::Shard>> shards_;
  uint64_t route_ns_[kNumPhases] = {};
  uint64_t enqueue_ns_[kNumPhases] = {};
  uint64_t routed_[kNumPhases] = {};
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
