#include "layers.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "common/timer.h"

namespace perfbench {

using pieces::NowNanos;

namespace {

std::atomic<int> g_phase{kUntimed};

// One per thread that ever made a traced call; kept until exit so a
// worker that ended (crash recovery restarts them) still reports. The
// mutex is uncontended except against CollectLayerStats.
struct ThreadCollector {
  std::mutex mu;
  LayerStats phase[kNumPhases];
};

std::mutex g_collectors_mu;
std::vector<std::unique_ptr<ThreadCollector>>& Collectors() {
  static auto* all = new std::vector<std::unique_ptr<ThreadCollector>>();
  return *all;
}

ThreadCollector& Local() {
  thread_local ThreadCollector* mine = [] {
    auto owned = std::make_unique<ThreadCollector>();
    ThreadCollector* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_collectors_mu);
    Collectors().push_back(std::move(owned));
    return raw;
  }();
  return *mine;
}

// Runs `fn(stats)` against this thread's collector for `phase`, unless the
// call started outside a timed phase.
template <typename Fn>
void Record(int phase, Fn&& fn) {
  if (phase == kUntimed) return;
  ThreadCollector& c = Local();
  std::lock_guard<std::mutex> lock(c.mu);
  fn(c.phase[phase]);
}

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max()));
}

// Index time spent on this thread so far; a store call's index share is
// the difference across the call.
thread_local uint64_t tl_index_ns = 0;
// Tracing's own work inside a store span (window sampling), excluded from
// the span so store self time does not absorb it.
thread_local uint64_t tl_trace_ns = 0;
thread_local StoreSpan tl_span;
thread_local uint32_t tl_lookups = 0;

template <typename V>
void Append(std::vector<V>* dst, const std::vector<V>& src) {
  dst->insert(dst->end(), src.begin(), src.end());
}

// Brackets one primary-store call: records the thread's span and the
// per-kind tally.
class StoreCall {
 public:
  StoreCall(Tally LayerStats::*kind, uint32_t keys)
      : kind_(kind),
        keys_(keys),
        phase_(CurrentPhase()),
        index_before_(tl_index_ns),
        trace_before_(tl_trace_ns),
        start_(NowNanos()) {}
  ~StoreCall() {
    const uint64_t end = NowNanos();
    const uint64_t traced = tl_trace_ns - trace_before_;
    const uint64_t dur = end - start_ - std::min(traced, end - start_);
    const uint64_t index_ns = tl_index_ns - index_before_;
    tl_span.start = start_;
    tl_span.end = end - std::min(traced, end - start_);
    tl_span.keys = keys_;
    Record(phase_, [&](LayerStats& s) {
      (s.*kind_).Add(dur, keys_);
      s.store_index_ns += std::min(index_ns, dur);
      if (kind_ == &LayerStats::store_put) s.put_ns.push_back(Clamp32(dur));
      if (kind_ == &LayerStats::store_scan) s.scan_ns.push_back(Clamp32(dur));
    });
  }
  StoreCall(const StoreCall&) = delete;
  StoreCall& operator=(const StoreCall&) = delete;

 private:
  Tally LayerStats::*const kind_;
  const uint32_t keys_;
  const int phase_;
  const uint64_t index_before_;
  const uint64_t trace_before_;
  const uint64_t start_;
};

// Brackets one index call.
class IndexCall {
 public:
  IndexCall(Tally LayerStats::*kind, uint32_t keys)
      : kind_(kind), keys_(keys), phase_(CurrentPhase()), start_(NowNanos()) {}
  ~IndexCall() {
    const uint64_t dur = NowNanos() - start_;
    tl_index_ns += dur;
    Record(phase_, [&](LayerStats& s) {
      (s.*kind_).Add(dur, keys_);
      if (kind_ == &LayerStats::idx_insert) {
        s.insert_ns.push_back(Clamp32(dur));
      }
    });
  }
  IndexCall(const IndexCall&) = delete;
  IndexCall& operator=(const IndexCall&) = delete;

 private:
  Tally LayerStats::*const kind_;
  const uint32_t keys_;
  const int phase_;
  const uint64_t start_;
};

}  // namespace

void SetPhase(Phase phase) {
  g_phase.store(phase, std::memory_order_relaxed);
}

Phase CurrentPhase() {
  return static_cast<Phase>(g_phase.load(std::memory_order_relaxed));
}

void LayerStats::Merge(const LayerStats& o) {
  store_get.Merge(o.store_get);
  store_getbatch.Merge(o.store_getbatch);
  store_put.Merge(o.store_put);
  store_scan.Merge(o.store_scan);
  store_index_ns += o.store_index_ns;
  Append(&put_ns, o.put_ns);
  Append(&scan_ns, o.scan_ns);
  Append(&apply_ns, o.apply_ns);
  idx_get.Merge(o.idx_get);
  idx_getbatch.Merge(o.idx_getbatch);
  idx_insert.Merge(o.idx_insert);
  idx_scan.Merge(o.idx_scan);
  idx_predict.Merge(o.idx_predict);
  Append(&insert_ns, o.insert_ns);
  window_keys += o.window_keys;
  window_samples += o.window_samples;
  collect.Merge(o.collect);
  prepare.Merge(o.prepare);
  publish.Merge(o.publish);
  plans += o.plans;
  published += o.published;
  publish_aborted += o.publish_aborted;
  Append(&publish_ns, o.publish_ns);
}

LayerStats CollectLayerStats(Phase phase) {
  LayerStats out;
  std::lock_guard<std::mutex> lock(g_collectors_mu);
  for (auto& c : Collectors()) {
    std::lock_guard<std::mutex> inner(c->mu);
    out.Merge(c->phase[phase]);
  }
  return out;
}

const StoreSpan& LastStoreSpan() { return tl_span; }

// ---- TimedHook ---------------------------------------------------------

void TimedHook::CollectDrift(double threshold,
                             std::vector<pieces::DriftCandidate>* out) {
  const int phase = CurrentPhase();
  const uint64_t start = NowNanos();
  inner_->CollectDrift(threshold, out);
  const uint64_t dur = NowNanos() - start;
  Record(phase, [&](LayerStats& s) { s.collect.Add(dur, out->size()); });
}

std::unique_ptr<pieces::PreparedRetrain> TimedHook::PrepareRetrain(
    uint64_t segment_id) {
  const int phase = CurrentPhase();
  const uint64_t start = NowNanos();
  auto plan = inner_->PrepareRetrain(segment_id);
  const uint64_t dur = NowNanos() - start;
  const bool made = plan != nullptr;
  Record(phase, [&](LayerStats& s) {
    s.prepare.Add(dur, 1);
    if (made) ++s.plans;
  });
  return plan;
}

bool TimedHook::PublishRetrain(std::unique_ptr<pieces::PreparedRetrain> plan) {
  const int phase = CurrentPhase();
  const uint64_t start = NowNanos();
  const bool ok = inner_->PublishRetrain(std::move(plan));
  const uint64_t dur = NowNanos() - start;
  Record(phase, [&](LayerStats& s) {
    s.publish.Add(dur, 1);
    s.publish_ns.push_back(Clamp32(dur));
    if (ok) {
      ++s.published;
    } else {
      ++s.publish_aborted;
    }
  });
  return ok;
}

// ---- TimedIndex --------------------------------------------------------

TimedIndex::TimedIndex(std::unique_ptr<pieces::OrderedIndex> inner)
    : inner_(std::move(inner)) {
  if (pieces::MaintenanceHook* hook = inner_->maintenance()) {
    hook_ = std::make_unique<TimedHook>(hook);
  }
}

void TimedIndex::SampleWindow(Key key) const {
  if ((++tl_lookups & 63) != 0) return;
  const uint64_t start = NowNanos();
  size_t lo = 0;
  size_t hi = 0;
  const bool bounded = inner_->PredictRank(key, &lo, &hi);
  const int phase = CurrentPhase();
  if (bounded && hi >= lo) {
    Record(phase, [&](LayerStats& s) {
      s.window_keys += hi - lo;
      ++s.window_samples;
    });
  }
  tl_trace_ns += NowNanos() - start;
}

bool TimedIndex::Get(Key key, Value* value) const {
  bool hit;
  {
    IndexCall call(&LayerStats::idx_get, 1);
    hit = inner_->Get(key, value);
  }
  SampleWindow(key);
  return hit;
}

size_t TimedIndex::GetBatch(std::span<const Key> keys, Value* values,
                            bool* found) const {
  size_t hits;
  {
    IndexCall call(&LayerStats::idx_getbatch,
                   static_cast<uint32_t>(keys.size()));
    hits = inner_->GetBatch(keys, values, found);
  }
  for (Key key : keys) SampleWindow(key);
  return hits;
}

bool TimedIndex::PredictRank(Key key, size_t* lo, size_t* hi) const {
  IndexCall call(&LayerStats::idx_predict, 1);
  return inner_->PredictRank(key, lo, hi);
}

bool TimedIndex::Insert(Key key, Value value) {
  IndexCall call(&LayerStats::idx_insert, 1);
  return inner_->Insert(key, value);
}

size_t TimedIndex::Scan(Key from, size_t count,
                        std::vector<KeyValue>* out) const {
  const size_t before = out->size();
  const int phase = CurrentPhase();
  const uint64_t start = NowNanos();
  const size_t n = inner_->Scan(from, count, out);
  const uint64_t dur = NowNanos() - start;
  tl_index_ns += dur;
  Record(phase, [&](LayerStats& s) {
    s.idx_scan.Add(dur, out->size() - before);
  });
  return n;
}

// ---- TimedStore --------------------------------------------------------

bool TimedStore::Put(Key key, const uint8_t* value) {
  if (role_ == Role::kReplica) {
    const int phase = CurrentPhase();
    const uint64_t start = NowNanos();
    const bool ok = inner_->Put(key, value);
    const uint64_t dur = NowNanos() - start;
    Record(phase, [&](LayerStats& s) { s.apply_ns.push_back(Clamp32(dur)); });
    return ok;
  }
  StoreCall call(&LayerStats::store_put, 1);
  return inner_->Put(key, value);
}

bool TimedStore::PutSynthetic(Key key) {
  StoreCall call(&LayerStats::store_put, 1);
  return inner_->PutSynthetic(key);
}

bool TimedStore::Get(Key key, uint8_t* out) const {
  StoreCall call(&LayerStats::store_get, 1);
  return inner_->Get(key, out);
}

size_t TimedStore::GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                            bool* found) const {
  StoreCall call(&LayerStats::store_getbatch,
                 static_cast<uint32_t>(keys.size()));
  return inner_->GetBatch(keys, outs, found);
}

size_t TimedStore::Scan(Key from, size_t count,
                        std::vector<Key>* out_keys) const {
  StoreCall call(&LayerStats::store_scan, static_cast<uint32_t>(count));
  return inner_->Scan(from, count, out_keys);
}

}  // namespace perfbench
