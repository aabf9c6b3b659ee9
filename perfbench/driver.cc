#include "driver.h"

#include <algorithm>
#include <chrono>

#include "common/timer.h"
#include "index/registry.h"
#include "payload.h"
#include "store/disk_store.h"
#include "store/viper.h"

namespace perfbench {

using pieces::NowNanos;
using pieces::Op;
using pieces::OpType;
using pieces::service::AdmissionPolicy;
using pieces::service::Shard;

namespace {

// Sleep most of the way, then yield-spin: sleep_for overshoot would be
// charged to every request timed from its scheduled arrival.
void SleepUntil(uint64_t when) {
  for (;;) {
    const uint64_t now = NowNanos();
    if (now >= when) return;
    if (when - now > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(when - now - 100'000));
    } else {
      std::this_thread::yield();
    }
  }
}

RequestStatus StatusOf(Shard::EnqueueResult r) {
  return r == Shard::EnqueueResult::kRejected ? RequestStatus::kRejected
         : r == Shard::EnqueueResult::kShutdown ? RequestStatus::kShutdown
                                                : RequestStatus::kRetry;
}

}  // namespace

TraceArrays::TraceArrays(size_t requests)
    : batch_of(requests, ~0u),
      exec_ns(requests, 0),
      gap_ns(requests, 0),
      enq_ret(requests, 0),
      first_start(requests, 0),
      last_done(requests, 0),
      shard_of(requests, 0) {}

// ---- Driver ------------------------------------------------------------

Driver::Driver(const std::vector<Op>& ops, size_t value_size,
               TraceArrays* trace)
    : ops_(ops),
      value_size_(value_size),
      trace_(trace),
      done_ns_(ops.size(), 0),
      status_(ops.size(), 0),
      late_ns_(ops.size(), 0),
      ring_(kRing * value_size, 0),
      scan_ring_(kRing),
      slot_busy_(new std::atomic<bool>[kRing]) {
  for (size_t i = 0; i < kRing; ++i) slot_busy_[i].store(false);
}

Request Driver::Build(size_t seq) {
  std::atomic<bool>& busy = slot_busy_[seq % kRing];
  while (busy.load(std::memory_order_acquire)) std::this_thread::yield();
  busy.store(true, std::memory_order_relaxed);
  const Op& op = ops_[seq];
  Request req;
  req.type = op.type;
  req.key = op.key;
  if (op.type == OpType::kScan) {
    std::vector<Key>& out = scan_ring_[seq % kRing];
    out.clear();
    req.scan_len = op.scan_len;
    req.scan_out = &out;
  } else if (IsWrite(op.type)) {
    EncodeValue(op.key, seq + 1, Slot(seq), value_size_);
    req.value = Slot(seq);
    if (op.type == OpType::kReadModifyWrite) req.out = Slot(seq);
  } else {
    req.out = Slot(seq);
  }
  req.done = [this, seq](RequestStatus st) { Complete(seq, st); };
  return req;
}

bool Driver::ScanOk(const Op& op, const std::vector<Key>& keys) const {
  if (keys.size() > op.scan_len) return false;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] < op.key || (i > 0 && keys[i] <= keys[i - 1])) return false;
  }
  return !keys.empty();
}

void Driver::Complete(uint64_t seq, RequestStatus st) {
  const uint64_t now = NowNanos();
  const Op& op = ops_[seq];
  if (st == RequestStatus::kOk) {
    if (op.type == OpType::kRead) {
      uint8_t* buf = Slot(seq);
      if (corrupt_next_read_.exchange(false)) buf[value_size_ / 2] ^= 0x5a;
      if (!DecodeValue(op.key, buf, value_size_).ok) {
        wrong_payloads_.fetch_add(1, std::memory_order_relaxed);
      }
    } else if (op.type == OpType::kScan &&
               !ScanOk(op, scan_ring_[seq % kRing])) {
      wrong_scans_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (trace_ != nullptr && op.type != OpType::kScan &&
      std::this_thread::get_id() != client_) {
    // Runs on the worker right after the store call that served this
    // request: its span is still in the thread-local.
    thread_local uint32_t current_batch = ~0u;
    const StoreSpan& span = LastStoreSpan();
    const uint32_t b = trace_->batch_of[seq];
    if (b != current_batch) {
      current_batch = b;
      trace_->first_start[b] = span.start;
    }
    trace_->last_done[b] = now;
    trace_->exec_ns[seq] = static_cast<uint32_t>(
        (span.end - span.start) / std::max<uint32_t>(1, span.keys));
    trace_->gap_ns[seq] = static_cast<uint32_t>(
        std::min<uint64_t>(now - span.end, ~0u));
  }
  status_[seq] = static_cast<uint8_t>(st);
  done_ns_[seq] = now;
  slot_busy_[seq % kRing].store(false, std::memory_order_release);
}

PhaseRun Driver::Run(Target& target, size_t begin, size_t limit,
                     double rate, double seconds) {
  client_ = std::this_thread::get_id();
  PhaseRun p;
  p.begin = begin;
  p.ns_per_op = rate > 0 ? 1e9 / rate : 0;
  p.seconds = seconds;
  p.t0 = NowNanos();
  const uint64_t t_end = p.t0 + static_cast<uint64_t>(seconds * 1e9);
  limit = std::min(limit, ops_.size());
  std::vector<Request> batch;
  std::vector<uint64_t> seqs;
  size_t k = begin;
  while (k < limit) {
    const uint64_t now = NowNanos();
    const uint64_t due = p.Scheduled(k);
    if (now >= t_end || due >= t_end) break;
    if (due > now) {
      SleepUntil(due);
      continue;
    }
    while (k < limit && batch.size() < kMaxBatch) {
      const uint64_t d = p.Scheduled(k);
      if (d > now || d >= t_end) break;
      batch.push_back(Build(k));
      seqs.push_back(k);
      late_ns_[k] = static_cast<uint32_t>(std::min<uint64_t>(now - d, ~0u));
      ++k;
    }
    target.Submit(std::move(batch), seqs);
    batch = std::vector<Request>();
    seqs.clear();
  }
  p.end = k;
  target.Drain();
  for (size_t i = p.begin; i < p.end; ++i) {
    p.last_done = std::max(p.last_done, done_ns_[i]);
  }
  return p;
}

std::vector<std::pair<Key, uint64_t>> Driver::AckedWrites() const {
  std::vector<std::pair<Key, uint64_t>> acked;
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (done_ns_[i] != 0 && IsWrite(ops_[i].type) &&
        status(i) == RequestStatus::kOk) {
      acked.emplace_back(ops_[i].key, i + 1);
    }
  }
  // Keep the newest acked version per key.
  std::sort(acked.begin(), acked.end());
  std::vector<std::pair<Key, uint64_t>> last;
  for (size_t i = 0; i < acked.size(); ++i) {
    if (i + 1 == acked.size() || acked[i + 1].first != acked[i].first) {
      last.push_back(acked[i]);
    }
  }
  return last;
}

uint64_t Driver::VerifyAcked(
    Target& target, const std::vector<std::pair<Key, uint64_t>>& expect) {
  constexpr size_t kChunk = 4096;
  std::vector<uint8_t> bufs(kChunk * value_size_);
  std::vector<uint8_t> statuses(kChunk);
  uint64_t missing = 0;
  for (size_t base = 0; base < expect.size(); base += kChunk) {
    const size_t n = std::min(kChunk, expect.size() - base);
    std::atomic<size_t> completed{0};
    std::vector<Request> batch;
    std::vector<uint64_t> seqs;
    for (size_t i = 0; i < n; ++i) {
      Request req;
      req.type = OpType::kRead;
      req.key = expect[base + i].first;
      req.out = &bufs[i * value_size_];
      req.done = [&statuses, &completed, i](RequestStatus st) {
        statuses[i] = static_cast<uint8_t>(st);
        completed.fetch_add(1, std::memory_order_release);
      };
      batch.push_back(std::move(req));
      seqs.push_back(kNoSeq);
      if (batch.size() == kMaxBatch || i + 1 == n) {
        target.Submit(std::move(batch), seqs);
        batch = std::vector<Request>();
        seqs.clear();
      }
    }
    while (completed.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < n; ++i) {
      const auto [key, version] = expect[base + i];
      if (static_cast<RequestStatus>(statuses[i]) != RequestStatus::kOk) {
        ++missing;
        continue;
      }
      const Decoded d = DecodeValue(key, &bufs[i * value_size_], value_size_);
      if (!d.ok) {
        wrong_payloads_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // A newer version is fine only if it is a write this run issued to
      // this key (e.g. one whose ack timed out but that still committed).
      const bool newer_ok = d.version > version &&
                            d.version <= ops_.size() &&
                            ops_[d.version - 1].key == key &&
                            IsWrite(ops_[d.version - 1].type);
      if (d.version != version && !newer_ok) ++missing;
    }
  }
  return missing;
}

// ---- TracedStack -------------------------------------------------------

TracedStack::TracedStack(const std::string& index_name,
                         const pieces::service::ServiceConfig& config,
                         const std::vector<Key>& sample, TraceArrays* trace)
    : index_name_(index_name),
      config_(config),
      trace_(trace),
      partition_(config.num_shards, sample) {
  const bool repl = config_.replication.enabled;
  const bool sync_ack =
      config_.replication.ack ==
      pieces::replication::ReplicationConfig::AckMode::kReplicated;
  for (size_t s = 0; s < partition_.num_shards(); ++s) {
    auto store = std::make_unique<TimedStore>(MakeStore(s, false),
                                              TimedStore::Role::kPrimary);
    std::shared_ptr<pieces::replication::ReplicaSession> session;
    if (repl) {
      session = std::make_shared<pieces::replication::ReplicaSession>(
          std::make_unique<TimedStore>(MakeStore(s, true),
                                       TimedStore::Role::kReplica),
          config_.replication);
      // SetCommitTap is not virtual: the tap goes on the inner store.
      store->inner()->SetCommitTap(session->log());
    }
    auto shard = std::make_unique<Shard>(s, std::move(store),
                                         config_.queue_capacity,
                                         config_.maintenance,
                                         config_.writers_per_shard);
    if (session != nullptr) {
      shard->AttachReplication(session, sync_ack);
      sessions_.push_back(std::move(session));
    }
    shards_.push_back(std::move(shard));
  }
}

TracedStack::~TracedStack() {
  for (auto& shard : shards_) shard->Stop();
  for (auto& session : sessions_) session->Stop();
}

std::unique_ptr<pieces::StoreBackend> TracedStack::MakeStore(size_t id,
                                                             bool replica) {
  auto index = pieces::MakeIndex(index_name_);
  if (index == nullptr) return nullptr;
  if (!replica) index = std::make_unique<TimedIndex>(std::move(index));
  if (config_.backend == "disk") {
    pieces::DiskStore::Config disk = config_.disk;
    disk.value_size = config_.store.value_size;
    disk.path += "/traced_" + std::to_string(id) +
                 (replica ? ".replica.pages" : ".pages");
    return std::make_unique<pieces::DiskStore>(std::move(index), disk);
  }
  return std::make_unique<pieces::ViperStore>(std::move(index),
                                              config_.store);
}

bool TracedStack::BulkLoad(const std::vector<Key>& sorted_keys) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto begin = std::lower_bound(sorted_keys.begin(), sorted_keys.end(),
                                  partition_.LowerBound(s));
    auto end = s + 1 < shards_.size()
                   ? std::lower_bound(begin, sorted_keys.end(),
                                      partition_.LowerBound(s + 1))
                   : sorted_keys.end();
    if (!shards_[s]->store()->BulkLoad(std::vector<Key>(begin, end))) {
      return false;
    }
    if (!sessions_.empty() &&
        !sessions_[s]->SeedFromPrimary(*shards_[s]->store())) {
      return false;
    }
  }
  return true;
}

void TracedStack::Start() {
  for (auto& session : sessions_) session->Start();
  for (auto& shard : shards_) shard->Start();
}

void TracedStack::Dispatch(size_t s, std::vector<Request>&& batch) {
  const Shard::EnqueueResult r =
      shards_[s]->Enqueue(std::move(batch), AdmissionPolicy::kBlock);
  if (r == Shard::EnqueueResult::kAccepted) return;
  for (Request& req : batch) {
    if (req.done) req.done(StatusOf(r));
  }
}

namespace {

// Join state of one fanned-out scan; the last sub-scan merges the parts
// in shard order and completes the original request.
struct ScanJoin {
  Request original;
  std::vector<std::vector<Key>> parts;
  std::atomic<size_t> remaining{0};
  std::atomic<uint8_t> worst{0};

  void Finish() {
    if (original.scan_out != nullptr) {
      size_t appended = 0;
      for (const auto& part : parts) {
        for (Key k : part) {
          if (appended == original.scan_len) break;
          original.scan_out->push_back(k);
          ++appended;
        }
      }
    }
    if (original.done) {
      original.done(static_cast<RequestStatus>(worst.load()));
    }
  }
};

}  // namespace

void TracedStack::FanOutScan(Request req) {
  const size_t first = partition_.ShardOf(req.key);
  const size_t n = shards_.size() - first;
  if (n == 1) {
    std::vector<Request> one;
    one.push_back(std::move(req));
    Dispatch(first, std::move(one));
    return;
  }
  auto join = std::make_shared<ScanJoin>();
  join->original = std::move(req);
  join->parts.resize(n);
  join->remaining.store(n);
  for (size_t i = 0; i < n; ++i) {
    Request sub;
    sub.type = OpType::kScan;
    sub.key = i == 0 ? join->original.key
                     : partition_.LowerBound(first + i);
    sub.scan_len = join->original.scan_len;
    sub.scan_out = &join->parts[i];
    sub.done = [join](RequestStatus st) {
      uint8_t s = static_cast<uint8_t>(st);
      uint8_t seen = join->worst.load();
      while (s > seen && !join->worst.compare_exchange_weak(seen, s)) {
      }
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        join->Finish();
      }
    };
    std::vector<Request> one;
    one.push_back(std::move(sub));
    Dispatch(first + i, std::move(one));
  }
}

void TracedStack::Submit(std::vector<Request>&& batch,
                         const std::vector<uint64_t>& seqs) {
  const uint64_t t0 = NowNanos();
  uint64_t enqueue = 0;
  std::vector<std::vector<Request>> buckets(shards_.size());
  std::vector<std::vector<uint64_t>> bucket_seqs(shards_.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].type == OpType::kScan) {
      const uint64_t t = NowNanos();
      FanOutScan(std::move(batch[i]));
      enqueue += NowNanos() - t;
      continue;
    }
    const size_t s = partition_.ShardOf(batch[i].key);
    buckets[s].push_back(std::move(batch[i]));
    bucket_seqs[s].push_back(seqs[i]);
  }
  for (size_t s = 0; s < buckets.size(); ++s) {
    if (buckets[s].empty()) continue;
    uint32_t b = ~0u;
    if (bucket_seqs[s].front() != kNoSeq) {
      b = trace_->next_batch++;
      trace_->shard_of[b] = static_cast<uint8_t>(s);
      for (uint64_t seq : bucket_seqs[s]) trace_->batch_of[seq] = b;
    }
    const uint64_t t = NowNanos();
    Dispatch(s, std::move(buckets[s]));
    const uint64_t returned = NowNanos();
    enqueue += returned - t;
    if (b != ~0u) trace_->enq_ret[b] = returned;
  }
  const Phase phase = CurrentPhase();
  route_ns_[phase] += NowNanos() - t0;
  enqueue_ns_[phase] += enqueue;
  routed_[phase] += seqs.size();
}

void TracedStack::Drain() {
  for (auto& shard : shards_) shard->Drain();
}

std::vector<uint64_t> TracedStack::CrashAndRecover() {
  std::vector<uint64_t> rebuild_ns(shards_.size(), 0);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < shards_.size(); ++s) {
    threads.emplace_back([this, s, &rebuild_ns] {
      rebuild_ns[s] = shards_[s]->CrashAndRecover();
    });
  }
  for (std::thread& t : threads) t.join();
  return rebuild_ns;
}

bool TracedStack::FailoverProbe(size_t s, uint64_t* drain_ns,
                                uint64_t* rebuild_ns) {
  if (sessions_.empty() || s >= shards_.size()) return false;
  const uint64_t start = NowNanos();
  shards_[s]->BeginRetire();
  shards_[s]->Drain();
  sessions_[s]->WaitCaughtUp(0);
  shards_[s]->Stop();
  *drain_ns = NowNanos() - start;
  auto promoted = sessions_[s]->Promote(rebuild_ns);
  shards_[s]->store()->Crash();
  return promoted != nullptr;
}

}  // namespace perfbench
