#include "service/shard.h"

#include <algorithm>
#include <utility>

#include "common/spin_wait.h"

namespace pieces::service {

namespace {

// splitmix64 finalizer: decorrelates the lane choice from the key's range
// position, so a hot contiguous key range still spreads across lanes.
uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool IsWrite(OpType type) {
  return type != OpType::kRead && type != OpType::kScan;
}

}  // namespace

Shard::Shard(size_t id, std::unique_ptr<StoreBackend> store,
             size_t queue_capacity, MaintenanceConfig maintenance,
             size_t writers)
    : id_(id),
      queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity),
      maintenance_(maintenance),
      store_(std::move(store)) {
  // Multiple writers require an index that tolerates them; everything
  // else keeps the exclusive single-writer contract.
  size_t lanes = store_->index().SupportsConcurrentWrites()
                     ? std::max<size_t>(1, writers)
                     : 1;
  lanes_.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  if (maintenance_.enabled) {
    MaintenanceHook* hook = store_->mutable_index()->maintenance();
    if (hook != nullptr) {
      // Maintenance mode stays on for the shard's lifetime (even across
      // crash recovery): the index defers inline retrains so the
      // maintainer can take them off-thread.
      hook->SetMaintenanceMode(true);
      maintainer_ = std::make_unique<Maintainer>(hook, maintenance_);
    }
  }
}

Shard::~Shard() { Stop(); }

void Shard::AttachReplication(
    std::shared_ptr<replication::ReplicaSession> session, bool sync_ack) {
  replication_ = std::move(session);
  sync_ack_ = sync_ack && replication_ != nullptr;
}

size_t Shard::LaneOf(Key key) const {
  return lanes_.size() == 1
             ? 0
             : static_cast<size_t>(MixKey(key) % lanes_.size());
}

void Shard::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  workers_.reserve(lanes_.size());
  for (size_t i = 0; i < lanes_.size(); ++i) {
    workers_.emplace_back(&Shard::WorkerLoop, this, i);
  }
  if (maintainer_ != nullptr) maintainer_->Start();
}

Shard::EnqueueResult Shard::Enqueue(std::vector<Request>&& batch,
                                    AdmissionPolicy policy) {
  if (batch.empty()) return EnqueueResult::kAccepted;
  std::unique_lock<std::mutex> lock(mu_);
  auto fits = [&] {
    // Oversized batches are admitted into an otherwise-empty queue so a
    // batch larger than the capacity cannot block forever.
    return queued_requests_ + batch.size() <= queue_capacity_ ||
           queued_requests_ == 0;
  };
  if (retired_) return EnqueueResult::kRetired;
  if (stopping_) return EnqueueResult::kShutdown;
  if (!fits()) {
    if (policy == AdmissionPolicy::kReject) {
      rejected_.fetch_add(batch.size(), std::memory_order_relaxed);
      return EnqueueResult::kRejected;
    }
    has_space_.wait(lock, [&] { return fits() || stopping_ || retired_; });
    if (retired_) return EnqueueResult::kRetired;
    if (stopping_) return EnqueueResult::kShutdown;
  }
  queued_requests_ += batch.size();
  max_queue_ = std::max<uint64_t>(max_queue_, queued_requests_);
  if (lanes_.size() == 1) {
    Lane& lane = *lanes_[0];
    lane.queue.push_back(std::move(batch));
    lane.queued.store(lane.queue.size(), std::memory_order_release);
    lane.has_work.notify_one();
    return EnqueueResult::kAccepted;
  }
  // Split by key hash under the lock: same key -> same lane, and a later
  // Enqueue of that key lands behind this one, so per-key FIFO holds.
  std::vector<std::vector<Request>> per_lane(lanes_.size());
  for (Request& req : batch) {
    per_lane[LaneOf(req.key)].push_back(std::move(req));
  }
  for (size_t i = 0; i < per_lane.size(); ++i) {
    if (per_lane[i].empty()) continue;
    Lane& lane = *lanes_[i];
    lane.queue.push_back(std::move(per_lane[i]));
    lane.queued.store(lane.queue.size(), std::memory_order_release);
    lane.has_work.notify_one();
  }
  return EnqueueResult::kAccepted;
}

void Shard::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return queued_requests_ == 0 && in_flight_ == 0; });
}

void Shard::Stop() {
  // Quiesce the maintainer before the workers: once Stop returns, nothing
  // may touch the store (CrashAndRecover drops the PMem right after).
  if (maintainer_ != nullptr) maintainer_->Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (auto& lane : lanes_) lane->has_work.notify_all();
    has_space_.notify_all();
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void Shard::BeginRetire() {
  std::lock_guard<std::mutex> lock(mu_);
  retired_ = true;
  // Producers blocked in kBlock admission must not wait on a shard that
  // will never free space for them — wake them into kRetired.
  has_space_.notify_all();
}

bool Shard::retired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_;
}

size_t Shard::QueueDepth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_requests_ + in_flight_;
}

uint64_t Shard::CrashAndRecover() {
  bool was_started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_started = started_;
  }
  // Quiesce first: every accepted request completes, and a completed
  // write's persists are done by the time it acks — so the crash below
  // drops only bytes no client was ever promised. Submissions racing the
  // outage observe stopping_ and complete with kShutdown.
  Stop();
  store_->Crash();
  uint64_t ns = store_->Recover();
  recoveries_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
    started_ = false;
  }
  if (was_started) Start();
  return ns;
}

ShardStats Shard::Stats() const {
  ShardStats s;
  s.ops = ops_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.recoveries = recoveries_.load(std::memory_order_relaxed);
  s.keys = store_->size();
  s.writers = lanes_.size();
  if (maintainer_ != nullptr) {
    MaintainerStats m = maintainer_->Stats();
    s.bg_scans = m.scans;
    s.bg_prepared = m.prepared;
    s.bg_published = m.published;
    s.bg_aborted = m.aborted;
    s.bg_throttled = m.throttled;
  }
  std::lock_guard<std::mutex> lock(mu_);
  s.max_queue = max_queue_;
  return s;
}

void Shard::WorkerLoop(size_t lane_idx) {
  // Built once per worker and reused across batches; Execute used to
  // re-check a thread_local per request.
  Lane& lane = *lanes_[lane_idx];
  SpinnerScope spinner;
  Scratch scratch;
  scratch.value.resize(store_->value_size());
  for (;;) {
    std::vector<Request> batch;
    // Spin briefly before parking, so a batch arriving within the budget
    // costs neither side a futex wake (DESIGN.md, the wait rule). The
    // locked predicate wait below still decides.
    SpinUntil([&] {
      return lane.queued.load(std::memory_order_acquire) != 0 ||
             stopping_.load(std::memory_order_relaxed) ||
             retired_.load(std::memory_order_relaxed);
    });
    {
      std::unique_lock<std::mutex> lock(mu_);
      lane.has_work.wait(lock, [&] { return !lane.queue.empty() ||
                                            stopping_; });
      if (lane.queue.empty()) {
        // stopping_ and nothing left in this lane: graceful exit,
        // everything accepted here has been executed.
        idle_.notify_all();
        return;
      }
      batch = std::move(lane.queue.front());
      lane.queue.pop_front();
      lane.queued.store(lane.queue.size(), std::memory_order_relaxed);
      queued_requests_ -= batch.size();
      in_flight_ += batch.size();
      has_space_.notify_all();
    }
    ExecuteBatch(batch, scratch);
    batches_.fetch_add(1, std::memory_order_relaxed);
    ops_.fetch_add(batch.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_ -= batch.size();
      if (queued_requests_ == 0 && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void Shard::ExecuteBatch(std::vector<Request>& batch, Scratch& scratch) {
  // Runs of consecutive reads go through the store's multi-get fast path;
  // everything else executes per request, preserving queue order exactly.
  scratch.marks.clear();
  scratch.held.clear();
  size_t i = 0;
  while (i < batch.size()) {
    size_t j = i + 1;
    if (batch[i].type == OpType::kRead) {
      while (j < batch.size() && batch[j].type == OpType::kRead) ++j;
    }
    if (j - i >= 2) {
      ExecuteReadRun(batch.data() + i, j - i, scratch);
    } else {
      Settle(batch[i], Execute(batch[i], scratch), scratch);
    }
    i = j;
  }
  if (scratch.marks.empty()) return;
  // One replication wait for the whole group, then the held-back suffix
  // completes in batch order. Under sync_ack_ a write leaves Execute with
  // kOk iff it committed locally and left a mark, so the k-th such write
  // is on the replica iff k is inside the confirmed prefix.
  const size_t confirmed = replication_->AwaitReplicated(scratch.marks);
  Request* held = batch.data() + (batch.size() - scratch.held.size());
  size_t write = 0;
  for (size_t k = 0; k < scratch.held.size(); ++k) {
    RequestStatus status = scratch.held[k];
    if (status == RequestStatus::kOk && IsWrite(held[k].type)) {
      status = write++ < confirmed ? RequestStatus::kOk
                                   : RequestStatus::kRetry;
    }
    held[k].Complete(status);
  }
}

void Shard::Settle(Request& req, RequestStatus status, Scratch& scratch) {
  if (scratch.marks.empty()) {
    req.Complete(status);
  } else {
    scratch.held.push_back(status);
  }
}

void Shard::ExecuteReadRun(Request* reqs, size_t n, Scratch& scratch) {
  scratch.mget_keys.clear();
  scratch.mget_outs.clear();
  for (size_t i = 0; i < n; ++i) {
    scratch.mget_keys.push_back(reqs[i].key);
    // Discarded payloads may all alias the shared scratch buffer: the
    // store copies values one at a time, so each copy stays well-formed.
    scratch.mget_outs.push_back(reqs[i].out != nullptr ? reqs[i].out
                                                       : scratch.value.data());
  }
  if (scratch.mget_found_cap < n) {
    scratch.mget_found.reset(new bool[n]);
    scratch.mget_found_cap = n;
  }
  store_->GetBatch(std::span<const Key>(scratch.mget_keys),
                   scratch.mget_outs.data(), scratch.mget_found.get());
  for (size_t i = 0; i < n; ++i) {
    Settle(reqs[i],
           scratch.mget_found[i] ? RequestStatus::kOk
                                 : RequestStatus::kNotFound,
           scratch);
  }
}

RequestStatus Shard::Execute(Request& req, Scratch& scratch) {
  uint8_t* out = req.out != nullptr ? req.out : scratch.value.data();
  bool committed = false;
  switch (req.type) {
    case OpType::kRead:
      return store_->Get(req.key, out) ? RequestStatus::kOk
                                       : RequestStatus::kNotFound;
    case OpType::kUpdate:
    case OpType::kInsert:
      committed = req.value != nullptr ? store_->Put(req.key, req.value)
                                       : store_->PutSynthetic(req.key);
      break;
    case OpType::kReadModifyWrite:
      if (!store_->Get(req.key, out)) return RequestStatus::kNotFound;
      committed = store_->PutSynthetic(req.key);
      break;
    case OpType::kScan: {
      std::vector<Key>* keys = req.scan_out;
      if (keys == nullptr) {
        scratch.scan.clear();
        keys = &scratch.scan;
      }
      store_->Scan(req.key, req.scan_len, keys);
      return RequestStatus::kOk;
    }
  }
  if (!committed) return RequestStatus::kStoreFull;
  // Locally durable. Under semi-sync its kOk must wait for the batch's
  // replication ack: note the watermark that covers exactly this write.
  if (sync_ack_) {
    scratch.marks.push_back(replication_->log()->ThisThreadWatermark());
  }
  return RequestStatus::kOk;
}

}  // namespace pieces::service
