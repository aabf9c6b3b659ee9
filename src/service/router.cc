#include "service/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "common/epoch.h"
#include "common/timer.h"
#include "index/registry.h"

namespace pieces::service {

RangePartition::RangePartition(size_t num_shards, std::vector<Key> sample)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {
  if (num_shards_ == 1) return;
  boundaries_.reserve(num_shards_ - 1);
  if (sample.size() < num_shards_) {
    // Not enough mass information: equal-width split of the domain.
    const Key step = std::numeric_limits<Key>::max() / num_shards_;
    for (size_t i = 1; i < num_shards_; ++i) {
      boundaries_.push_back(step * i);
    }
    return;
  }
  std::sort(sample.begin(), sample.end());
  Key prev = 0;
  for (size_t i = 1; i < num_shards_; ++i) {
    Key b = sample[i * sample.size() / num_shards_];
    // Boundaries must be strictly increasing; heavy duplicates in the
    // sample get nudged (the duplicated key's whole mass lands in one
    // shard regardless — equal keys cannot be split). The first boundary
    // is nudged too: a quantile of 0 would otherwise give shard 0 the
    // empty range [0, 0). `prev` starts at 0, so b == 0 becomes 1 and
    // key 0 stays in shard 0.
    if (b <= prev) {
      if (prev == std::numeric_limits<Key>::max()) break;
      b = prev + 1;
    }
    boundaries_.push_back(b);
    prev = b;
  }
  // Nudging can exhaust the domain near Key max, leaving fewer
  // boundaries than requested. The effective shard count must follow the
  // boundary list — otherwise trailing shards own empty ranges while the
  // service still spawns workers (and fans scans out) for them.
  num_shards_ = boundaries_.size() + 1;
}

RangePartition RangePartition::FromBoundaries(std::vector<Key> boundaries) {
  RangePartition p(1, {});
  p.boundaries_ = std::move(boundaries);
  p.num_shards_ = p.boundaries_.size() + 1;
  return p;
}

size_t RangePartition::ShardOf(Key key) const {
  // Shard s owns [boundaries_[s-1], boundaries_[s]); a boundary key
  // belongs to the shard on its right.
  return static_cast<size_t>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
      boundaries_.begin());
}

Key RangePartition::LowerBound(size_t shard) const {
  if (shard == 0) return 0;
  if (shard > boundaries_.size()) return std::numeric_limits<Key>::max();
  return boundaries_[shard - 1];
}

KvService::KvService(const std::string& index_name,
                     const ServiceConfig& config,
                     const std::vector<Key>& bootstrap_sample)
    : index_name_(index_name), config_(config) {
  auto* snap = new Snapshot;
  snap->version = 1;
  snap->partition = RangePartition(config.num_shards, bootstrap_sample);
  for (size_t s = 0; s < snap->partition.num_shards(); ++s) {
    const size_t id = next_shard_id_++;
    snap->slots.push_back(MakeSlot(id, MakeStore(id, /*replica=*/false)));
  }
  snapshot_.store(snap, std::memory_order_release);
}

KvService::~KvService() {
  Shutdown();
  // Retired snapshots sit in the global epoch manager's limbo (their
  // shard references drop whenever reclamation runs); the live one is
  // ours to free.
  delete snapshot_.load(std::memory_order_acquire);
  EpochManager::Global().ReclaimSome();
}

std::unique_ptr<StoreBackend> KvService::MakeStore(size_t id, bool replica) {
  auto index = MakeIndex(index_name_);
  if (index == nullptr) {
    std::fprintf(stderr, "KvService: unknown index '%s'\n",
                 index_name_.c_str());
    std::abort();
  }
  if (config_.backend == "disk") {
    // Each shard owns its own paged file inside the configured data
    // directory; record shape always follows the viper config so the two
    // backends stay interchangeable. The replica's file sits next to the
    // primary's, as a stand-in for a second machine's disk.
    DiskStore::Config disk = config_.disk;
    disk.value_size = config_.store.value_size;
    disk.path += "/shard_" + std::to_string(id) +
                 (replica ? ".replica.pages" : ".pages");
    auto ds = std::make_unique<DiskStore>(std::move(index), disk);
    if (!ds->ok()) {
      std::fprintf(stderr, "KvService: disk backend unavailable: %s\n",
                   ds->error().c_str());
      std::abort();
    }
    return ds;
  }
  return std::make_unique<ViperStore>(std::move(index), config_.store);
}

KvService::Slot KvService::MakeSlot(size_t id,
                                    std::unique_ptr<StoreBackend> store) {
  Slot slot;
  if (config_.replication.enabled) {
    slot.replica = std::make_shared<replication::ReplicaSession>(
        MakeStore(id, /*replica=*/true), config_.replication);
  }
  // The log (a shared_ptr) taps the primary's commit path; it outlives the
  // store no matter which side is torn down first. A promoted store still
  // carries its old session's tap, which this replaces (or clears).
  store->SetCommitTap(slot.replica != nullptr ? slot.replica->log() : nullptr);
  slot.shard = std::make_shared<Shard>(id, std::move(store),
                                       config_.queue_capacity,
                                       config_.maintenance,
                                       config_.writers_per_shard);
  if (slot.replica != nullptr) {
    slot.shard->AttachReplication(
        slot.replica, config_.replication.ack ==
                          replication::ReplicationConfig::AckMode::kReplicated);
    // The store's image bypassed the log; seed before any write commits.
    // (A constructor's stores are still empty: BulkLoad seeds them.)
    if (slot.shard->store()->size() != 0) {
      slot.replica->SeedFromPrimary(*slot.shard->store());
    }
    if (started_) slot.replica->Start();
  }
  if (started_) slot.shard->Start();
  return slot;
}

bool KvService::BulkLoad(const std::vector<Key>& sorted_keys) {
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  for (size_t s = 0; s < snap->slots.size(); ++s) {
    const Slot& slot = snap->slots[s];
    auto begin = std::lower_bound(sorted_keys.begin(), sorted_keys.end(),
                                  snap->partition.LowerBound(s));
    auto end = s + 1 < snap->slots.size()
                   ? std::lower_bound(begin, sorted_keys.end(),
                                      snap->partition.LowerBound(s + 1))
                   : sorted_keys.end();
    std::vector<Key> part(begin, end);
    if (!slot.shard->store()->BulkLoad(part)) return false;
    // Bulk loads bypass the commit log (see CommitTap); replicas seed
    // directly from the quiesced primary image instead.
    if (slot.replica != nullptr &&
        !slot.replica->SeedFromPrimary(*slot.shard->store())) {
      return false;
    }
  }
  return true;
}

void KvService::Start() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  // Shippers first: a semi-sync write acked by a worker needs a live
  // session from the very first request.
  for (const Slot& slot : snap->slots) {
    if (slot.replica != nullptr) slot.replica->Start();
  }
  for (const Slot& slot : snap->slots) slot.shard->Start();
  started_ = true;
  if (config_.rebalance.enabled && !rebalancer_.joinable()) {
    stop_rebalancer_.store(false, std::memory_order_relaxed);
    rebalancer_ = std::thread(&KvService::RebalanceLoop, this);
  }
}

bool KvService::WaitForNewerSnapshot(uint64_t version) {
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  snapshot_changed_.wait(lock, [&] {
    return shutdown_.load(std::memory_order_relaxed) ||
           snapshot_.load(std::memory_order_acquire)->version > version;
  });
  return !shutdown_.load(std::memory_order_relaxed);
}

void KvService::DispatchToShard(const std::shared_ptr<Shard>& shard,
                                uint64_t version, std::vector<Request>&& batch,
                                int budget) {
  Shard::EnqueueResult result =
      shard->Enqueue(std::move(batch), config_.admission);
  if (result == Shard::EnqueueResult::kAccepted) return;
  // Enqueue left the batch in place.
  const RequestStatus status = Bounce(result, version, budget);
  if (status == RequestStatus::kOk) {
    RouteBatch(std::move(batch), budget - 1);
    return;
  }
  for (Request& req : batch) req.Complete(status);
}

RequestStatus KvService::Bounce(Shard::EnqueueResult result,
                                uint64_t version, int budget) {
  switch (result) {
    case Shard::EnqueueResult::kRejected:
      return RequestStatus::kRejected;
    case Shard::EnqueueResult::kShutdown:
      return RequestStatus::kShutdown;
    case Shard::EnqueueResult::kAccepted:
    case Shard::EnqueueResult::kRetired:
      break;
  }
  // The shard retired under us (a transition). Wait for the successor
  // snapshot — the transition publishes it right after building the
  // replacements — and re-route. The budget bounds the chase across
  // back-to-back transitions.
  if (budget <= 0) return RequestStatus::kRetry;
  return WaitForNewerSnapshot(version) ? RequestStatus::kOk
                                       : RequestStatus::kShutdown;
}

void KvService::RouteBatch(std::vector<Request>&& batch, int budget) {
  if (batch.empty()) return;
  uint64_t version;
  std::vector<std::shared_ptr<Shard>> shards;
  std::vector<std::vector<Request>> buckets;
  {
    // The guard pins the snapshot only while routing; the enqueues below
    // may block on admission control, so they run on copied references to
    // the shards the batch touches instead of the snapshot itself.
    EpochGuard guard;
    Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    version = snap->version;
    buckets.resize(snap->slots.size());
    for (Request& req : batch) {
      buckets[snap->partition.ShardOf(req.key)].push_back(std::move(req));
    }
    shards.resize(buckets.size());
    for (size_t s = 0; s < buckets.size(); ++s) {
      if (!buckets[s].empty()) shards[s] = snap->slots[s].shard;
    }
  }
  const size_t max_batch = std::max<size_t>(1, config_.max_batch);
  for (size_t s = 0; s < buckets.size(); ++s) {
    std::vector<Request>& bucket = buckets[s];
    if (bucket.empty()) continue;
    if (bucket.size() <= max_batch) {
      DispatchToShard(shards[s], version, std::move(bucket), budget);
      continue;
    }
    for (size_t i = 0; i < bucket.size(); i += max_batch) {
      const size_t end = std::min(bucket.size(), i + max_batch);
      std::vector<Request> chunk(std::make_move_iterator(bucket.begin() + i),
                                 std::make_move_iterator(bucket.begin() + end));
      DispatchToShard(shards[s], version, std::move(chunk), budget);
    }
  }
}

void KvService::Submit(Request req) {
  if (req.type == OpType::kScan) {
    FanOutScan(std::move(req), kRerouteBudget);
    return;
  }
  std::vector<Request> batch;
  batch.push_back(std::move(req));
  RouteBatch(std::move(batch), kRerouteBudget);
}

void KvService::SubmitBatch(std::vector<Request> batch) {
  std::vector<Request> points;
  points.reserve(batch.size());
  for (Request& req : batch) {
    if (req.type == OpType::kScan) {
      FanOutScan(std::move(req), kRerouteBudget);
    } else {
      points.push_back(std::move(req));
    }
  }
  RouteBatch(std::move(points), kRerouteBudget);
}

// Shared join state for a scan fanned out across shards [first, last].
// parts[i] is written by the executing shard's worker before its done
// callback runs; the final decrement (acq_rel) synchronizes all parts
// into the finishing thread, which merges and completes the original.
struct KvService::ScanJoin {
  Request original;
  std::vector<std::vector<Key>> parts;
  std::atomic<size_t> remaining{0};
  std::atomic<uint8_t> worst{0};  // max RequestStatus over sub-scans

  void Finish() {
    Request& orig = original;
    if (orig.scan_out != nullptr) {
      // Range partitioning: shard order is key order, so the merge is a
      // concatenation truncated to the requested count.
      size_t appended = 0;
      const size_t want = orig.scan_len;
      for (const std::vector<Key>& part : parts) {
        for (Key k : part) {
          if (appended == want) break;
          orig.scan_out->push_back(k);
          ++appended;
        }
      }
    }
    orig.Complete(
        static_cast<RequestStatus>(worst.load(std::memory_order_relaxed)));
  }
};

void KvService::FanOutScan(Request req, int budget) {
  uint64_t version;
  size_t first;
  std::vector<std::shared_ptr<Shard>> shards;
  std::vector<Key> starts;
  {
    EpochGuard guard;
    Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    version = snap->version;
    first = snap->partition.ShardOf(req.key);
    starts.push_back(req.key);
    for (size_t i = first; i < snap->slots.size(); ++i) {
      shards.push_back(snap->slots[i].shard);
      if (i > first) starts.push_back(snap->partition.LowerBound(i));
    }
  }
  const size_t n = shards.size();
  if (n == 1) {
    std::vector<Request> batch;
    batch.push_back(std::move(req));
    Shard::EnqueueResult result =
        shards[0]->Enqueue(std::move(batch), config_.admission);
    if (result == Shard::EnqueueResult::kAccepted) return;
    // Still on the submitting thread: safe to wait out the transition and
    // retry the whole scan against the successor snapshot.
    const RequestStatus status = Bounce(result, version, budget);
    if (status == RequestStatus::kOk) {
      FanOutScan(std::move(batch[0]), budget - 1);
    } else {
      batch[0].Complete(status);
    }
    return;
  }
  auto join = std::make_shared<ScanJoin>();
  join->original = std::move(req);
  join->parts.resize(n);
  join->remaining.store(n, std::memory_order_relaxed);
  for (size_t i = 0; i < n; ++i) {
    Request sub;
    sub.type = OpType::kScan;
    sub.key = starts[i];
    // Conservative: any shard may end up serving the whole count; the
    // merge truncates.
    sub.scan_len = join->original.scan_len;
    sub.scan_out = &join->parts[i];
    sub.done = [join](RequestStatus st) {
      if (st != RequestStatus::kOk) {
        uint8_t s = static_cast<uint8_t>(st);
        uint8_t seen = join->worst.load(std::memory_order_relaxed);
        while (s > seen && !join->worst.compare_exchange_weak(
                               seen, s, std::memory_order_relaxed)) {
        }
      }
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        join->Finish();
      }
    };
    std::vector<Request> batch;
    batch.push_back(std::move(sub));
    Shard::EnqueueResult result =
        shards[i]->Enqueue(std::move(batch), config_.admission);
    if (result == Shard::EnqueueResult::kAccepted) continue;
    // A sub-scan never re-routes (budget 0): a retired shard marks the
    // whole scan kRetry (worst-status wins over per-shard errors), as the
    // partition moved mid-fan-out and the merged result could miss a key
    // range. The caller re-submits — the synchronous Scan() wrapper does
    // so automatically.
    batch[0].Complete(Bounce(result, version, /*budget=*/0));
  }
}

namespace {

// Stack-allocated completion cell for the synchronous convenience API.
struct SyncCell {
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  RequestStatus status = RequestStatus::kOk;

  void Set(RequestStatus st) {
    // Notify while holding the lock: the cell lives on the waiter's
    // stack, and the waiter may destroy it the moment it can reacquire
    // the mutex — notifying after unlock would race with that teardown.
    std::lock_guard<std::mutex> lock(m);
    status = st;
    fired = true;
    cv.notify_one();
  }
  RequestStatus Wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return fired; });
    return status;
  }
};

}  // namespace

RequestStatus KvService::Get(Key key, uint8_t* out) {
  SyncCell cell;
  Request req;
  req.type = OpType::kRead;
  req.key = key;
  req.out = out;
  req.done = [&cell](RequestStatus st) { cell.Set(st); };
  Submit(std::move(req));
  return cell.Wait();
}

RequestStatus KvService::Put(Key key, const uint8_t* value) {
  SyncCell cell;
  Request req;
  req.type = OpType::kInsert;
  req.key = key;
  req.value = value;
  req.done = [&cell](RequestStatus st) { cell.Set(st); };
  Submit(std::move(req));
  return cell.Wait();
}

RequestStatus KvService::Scan(Key from, size_t count, std::vector<Key>* out) {
  // Request carries the scan length as uint32_t; silently clamping an
  // oversized count would return fewer keys than asked with status kOk.
  if (count > std::numeric_limits<uint32_t>::max()) {
    return RequestStatus::kInvalid;
  }
  const size_t base = out != nullptr ? out->size() : 0;
  for (int attempt = 0;; ++attempt) {
    const uint64_t version = partition_version();
    SyncCell cell;
    Request req;
    req.type = OpType::kScan;
    req.key = from;
    req.scan_len = static_cast<uint32_t>(count);
    req.scan_out = out;
    req.done = [&cell](RequestStatus st) { cell.Set(st); };
    Submit(std::move(req));
    RequestStatus st = cell.Wait();
    if (st != RequestStatus::kRetry || attempt >= kRerouteBudget) return st;
    // A split raced the fan-out: drop the partial merge, wait for the
    // successor snapshot, retry the whole scan.
    if (out != nullptr) out->resize(base);
    if (!WaitForNewerSnapshot(version)) return RequestStatus::kShutdown;
  }
}

void KvService::Drain() {
  // A split may swap the shard set mid-drain; done when one full pass
  // completes with the snapshot unchanged.
  for (;;) {
    uint64_t version;
    std::vector<std::shared_ptr<Shard>> shards;
    {
      EpochGuard guard;
      Snapshot* snap = snapshot_.load(std::memory_order_acquire);
      version = snap->version;
      for (const Slot& slot : snap->slots) shards.push_back(slot.shard);
    }
    for (auto& shard : shards) shard->Drain();
    if (partition_version() == version) return;
  }
}

void KvService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    shutdown_.store(true, std::memory_order_relaxed);
    snapshot_changed_.notify_all();  // kRetired waiters exit with kShutdown
  }
  stop_rebalancer_.store(true, std::memory_order_relaxed);
  if (rebalancer_.joinable()) rebalancer_.join();
  // admin_mu_ waits out an in-flight split/merge; no new one can start
  // (structural ops check shutdown_ under admin_mu_).
  std::lock_guard<std::mutex> admin(admin_mu_);
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  // Workers first (they may be awaiting replication acks, which ship
  // only while the sessions are live), then the sessions.
  for (const Slot& slot : snap->slots) slot.shard->Stop();
  for (const Slot& slot : snap->slots) {
    if (slot.replica != nullptr) slot.replica->Stop();
  }
}

void KvService::PublishSnapshot(Snapshot* next) {
  Snapshot* old = snapshot_.load(std::memory_order_relaxed);
  next->version = old->version + 1;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_.store(next, std::memory_order_release);
  }
  snapshot_changed_.notify_all();
  // Routers that loaded `old` under their guard finish against it; its
  // shard references drop when the epoch system reclaims it.
  EpochManager::Global().Retire<Snapshot>(old);
}

KvService::Slot KvService::Migrate(const std::vector<Key>& keys,
                                   std::span<const Slot> sources) {
  const size_t id = next_shard_id_++;
  std::unique_ptr<StoreBackend> store = MakeStore(id, /*replica=*/false);
  const bool filled = store->BulkLoad(keys, [&](Key key, uint8_t* buf) {
    // Sources are quiesced (stopped) and own disjoint ranges; preserve
    // the stored value rather than re-synthesizing it.
    for (const Slot& src : sources) {
      if (src.shard->store()->Get(key, buf)) return;
    }
    FillSyntheticRecordValue(key, buf, config_.store.value_size);
  });
  if (!filled) return {};
  return MakeSlot(id, std::move(store));
}

bool KvService::Transition(
    size_t first, size_t count, std::atomic<uint64_t>& counter,
    const std::function<bool(const Slot&)>& admit,
    const std::function<Successor(std::span<const Slot>)>& build,
    uint64_t* outage_ns) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  if (shutdown_.load(std::memory_order_relaxed)) return false;
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  if (first >= snap->slots.size() || count > snap->slots.size() - first) {
    return false;
  }
  const auto lo = snap->slots.begin() + static_cast<std::ptrdiff_t>(first);
  const auto hi = lo + static_cast<std::ptrdiff_t>(count);
  const std::span<const Slot> retired(lo, hi);
  for (const Slot& slot : retired) {
    if (admit && !admit(slot)) return false;
  }

  // Quiesce: bounce new work (kRetired), finish accepted work, join the
  // workers. Retiring is irreversible, so every path below publishes.
  const uint64_t start = NowNanos();
  for (const Slot& slot : retired) slot.shard->BeginRetire();
  for (const Slot& slot : retired) slot.shard->Drain();
  for (const Slot& slot : retired) slot.shard->Stop();

  const std::vector<Key>& bounds = snap->partition.boundaries();
  const auto inner = bounds.begin() + static_cast<std::ptrdiff_t>(first);
  const auto outer = inner + static_cast<std::ptrdiff_t>(count - 1);
  Successor next = build(retired);
  const bool built = !next.slots.empty();
  if (!built) {
    // The one fallback: rebuild each retired shard in place (compacting
    // it) and keep its boundaries. A shard's own records always fit a
    // fresh store of the same configuration.
    next.boundaries.assign(inner, outer);
    for (const Slot& src : retired) {
      std::vector<Key> keys;
      src.shard->store()->Scan(0, src.shard->store()->size(), &keys);
      next.slots.push_back(Migrate(keys, {&src, 1}));
      if (next.slots.back().shard == nullptr) {
        std::fprintf(stderr, "KvService: cannot rebuild shard %zu\n",
                     src.shard->id());
        std::abort();
      }
    }
  }
  // Workers are gone (no more acks to await) and the successor is built
  // (a failover ships its tail first); the retired sessions would
  // otherwise idle in epoch limbo until reclamation.
  for (const Slot& slot : retired) {
    if (slot.replica != nullptr) slot.replica->Stop();
  }

  std::vector<Key> nb(bounds.begin(), inner);
  nb.insert(nb.end(), next.boundaries.begin(), next.boundaries.end());
  nb.insert(nb.end(), outer, bounds.end());
  auto* succ = new Snapshot;
  succ->partition = RangePartition::FromBoundaries(std::move(nb));
  succ->slots.assign(snap->slots.begin(), lo);
  std::move(next.slots.begin(), next.slots.end(),
            std::back_inserter(succ->slots));
  succ->slots.insert(succ->slots.end(), hi, snap->slots.end());
  PublishSnapshot(succ);
  if (outage_ns != nullptr) *outage_ns = NowNanos() - start;
  if (built) counter.fetch_add(1, std::memory_order_relaxed);
  return built;
}

bool KvService::SplitShard(size_t shard_idx) {
  return Transition(
      shard_idx, 1, splits_,
      [](const Slot& slot) { return slot.shard->store()->size() >= 2; },
      [&](std::span<const Slot> retired) -> Successor {
        const StoreBackend& store = *retired[0].shard->store();
        std::vector<Key> keys;
        store.Scan(0, store.size(), &keys);
        // A store's keys are unique (bulk loads take unique keys, Put
        // updates in place) and there are at least two, so the median
        // cut keys[size / 2] > keys.front(): both halves are non-empty and
        // the new boundary lies strictly inside the shard's range.
        const auto cut = keys.begin() + static_cast<std::ptrdiff_t>(
                                            keys.size() / 2);
        Slot left = Migrate({keys.begin(), cut}, retired);
        Slot right = Migrate({cut, keys.end()}, retired);
        if (left.shard == nullptr || right.shard == nullptr) return {};
        return {{std::move(left), std::move(right)}, {*cut}};
      });
}

bool KvService::MergeShards(size_t left_idx) {
  return Transition(
      left_idx, 2, merges_, nullptr,
      [&](std::span<const Slot> retired) -> Successor {
        // Adjacent ranges scanned in shard order: already globally sorted.
        std::vector<Key> keys;
        for (const Slot& slot : retired) {
          slot.shard->store()->Scan(0, slot.shard->store()->size(), &keys);
        }
        Slot merged = Migrate(keys, retired);
        if (merged.shard == nullptr) return {};
        return {{std::move(merged)}, {}};
      });
}

FailoverReport KvService::FailOverShard(size_t shard_idx, bool graceful) {
  FailoverReport report;
  report.ok = Transition(
      shard_idx, 1, failovers_,
      [](const Slot& slot) { return slot.replica != nullptr; },
      [&](std::span<const Slot> retired) -> Successor {
        const Slot& old = retired[0];
        if (graceful) old.replica->WaitCaughtUp(0);
        // Promotion = crash recovery on the replica's store: Stop the
        // session, validate the commit headers, rebuild the index.
        // Everything never delivered is gone — count it.
        // (Under kReplicated ack mode none of those writes were acked.)
        std::unique_ptr<StoreBackend> promoted =
            old.replica->Promote(&report.rebuild_ns);
        if (promoted == nullptr) return {};
        replication::ReplicaSessionStats st = old.replica->Stats();
        report.lost_records =
            st.log_tail > st.applied ? st.log_tail - st.applied : 0;
        // The failed primary's medium dies with it.
        old.shard->store()->Crash();
        return {{MakeSlot(next_shard_id_++, std::move(promoted))}, {}};
      },
      &report.outage_ns);
  return report;
}

bool KvService::WaitReplicasCaughtUp() {
  std::vector<std::shared_ptr<replication::ReplicaSession>> replicas;
  {
    EpochGuard guard;
    for (const Slot& slot : snapshot_.load(std::memory_order_acquire)->slots) {
      replicas.push_back(slot.replica);
    }
  }
  bool ok = true;
  for (auto& session : replicas) {
    if (session == nullptr) return false;
    if (!session->WaitCaughtUp(0)) ok = false;
  }
  return ok;
}

std::shared_ptr<replication::ReplicaSession> KvService::replica_session(
    size_t shard) const {
  EpochGuard guard;
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  return shard < snap->slots.size() ? snap->slots[shard].replica : nullptr;
}

RebalanceAction ChooseRebalanceAction(const std::vector<double>& depths,
                                      const std::vector<size_t>& keys,
                                      const RebalanceConfig& config,
                                      size_t queue_capacity) {
  if (depths.empty()) return {};
  const double split_depth =
      config.split_queue_depth != 0
          ? static_cast<double>(config.split_queue_depth)
          : static_cast<double>(queue_capacity) * 0.75;
  const size_t hottest = static_cast<size_t>(
      std::max_element(depths.begin(), depths.end()) - depths.begin());
  if (depths[hottest] >= split_depth && depths.size() < config.max_shards &&
      keys[hottest] >= config.min_split_keys) {
    return {RebalanceAction::Kind::kSplit, hottest};
  }
  return {};
}

void KvService::RebalanceLoop() {
  // Pressure smoothing: ewma += kEwmaAlpha * (depth - ewma), sampled
  // every kPollInterval.
  constexpr double kEwmaAlpha = 0.3;
  constexpr std::chrono::milliseconds kPollInterval{1};
  const RebalanceConfig& rb = config_.rebalance;
  uint64_t last_version = 0;
  std::vector<double> ewma;
  std::vector<size_t> keys;
  uint64_t cooldown_until = 0;
  while (!stop_rebalancer_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kPollInterval);
    {
      EpochGuard guard;
      Snapshot* snap = snapshot_.load(std::memory_order_acquire);
      if (snap->version != last_version) {
        // Shard positions shifted; stale pressure estimates would split
        // the wrong shard.
        ewma.assign(snap->slots.size(), 0.0);
        last_version = snap->version;
      }
      keys.resize(snap->slots.size());
      for (size_t i = 0; i < snap->slots.size(); ++i) {
        const Shard& shard = *snap->slots[i].shard;
        ewma[i] += kEwmaAlpha *
                   (static_cast<double>(shard.QueueDepth()) - ewma[i]);
        keys[i] = shard.store().size();
      }
    }
    if (NowNanos() < cooldown_until) continue;
    const RebalanceAction action =
        ChooseRebalanceAction(ewma, keys, rb, config_.queue_capacity);
    if (action.kind == RebalanceAction::Kind::kSplit &&
        SplitShard(action.shard)) {
      cooldown_until = NowNanos() + rb.cooldown_ms * 1000000;
    }
  }
}

std::vector<uint64_t> KvService::CrashAndRecover() {
  // Serialized with splits: a structural op mid-crash would migrate from
  // a store in its crashed (inaccessible) state.
  std::lock_guard<std::mutex> admin(admin_mu_);
  Snapshot* snap = snapshot_.load(std::memory_order_acquire);
  std::vector<uint64_t> rebuild_ns(snap->slots.size(), 0);
  std::vector<std::thread> workers;
  workers.reserve(snap->slots.size());
  for (size_t s = 0; s < snap->slots.size(); ++s) {
    workers.emplace_back([snap, s, &rebuild_ns] {
      rebuild_ns[s] = snap->slots[s].shard->CrashAndRecover();
    });
  }
  for (std::thread& w : workers) w.join();
  return rebuild_ns;
}

size_t KvService::num_shards() const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->slots.size();
}

size_t KvService::ShardOf(Key key) const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->partition.ShardOf(key);
}

RangePartition KvService::partition() const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->partition;
}

uint64_t KvService::partition_version() const {
  EpochGuard guard;
  return snapshot_.load(std::memory_order_acquire)->version;
}

size_t KvService::TotalKeys() const {
  EpochGuard guard;
  size_t n = 0;
  for (const Slot& slot : snapshot_.load(std::memory_order_acquire)->slots) {
    n += slot.shard->store()->size();
  }
  return n;
}

ServiceStats KvService::Stats() const {
  std::vector<Slot> slots;
  uint64_t version;
  {
    EpochGuard guard;
    Snapshot* snap = snapshot_.load(std::memory_order_acquire);
    slots = snap->slots;
    version = snap->version;
  }
  ServiceStats stats;
  stats.shards.reserve(slots.size());
  for (const Slot& slot : slots) stats.shards.push_back(slot.shard->Stats());
  stats.splits = splits_.load(std::memory_order_relaxed);
  stats.merges = merges_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.partition_version = version;
  return stats;
}

}  // namespace pieces::service
