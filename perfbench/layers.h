// Layer-boundary timing for the traced run. Nothing here lives in the
// library: the benchmark builds the serving stack from public
// constructors and slips a decorator in at each boundary,
//
//   MakeIndex -> TimedIndex -> ViperStore/DiskStore -> TimedStore -> Shard
//
// plus a TimedHook around the index's MaintenanceHook and a TimedStore
// (role kReplica) under each ReplicaSession. Both decorators forward every
// virtual, so the code they wrap cannot tell them apart from the real
// thing. The commit tap must still be installed on the *inner* store:
// StoreBackend::SetCommitTap is not virtual.
//
// Spans: each primary store call leaves its span in a thread-local
// (LastStoreSpan). The request's `done` callback runs next on the same
// worker thread and picks it up, which attributes execution time and the
// completion gap (the semi-sync ack wait) to that one request. Aggregate
// counters and duration samples go to per-thread collectors, bucketed by
// the benchmark phase in effect when the call started.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "index/maintenance.h"
#include "index/ordered_index.h"
#include "store/store_backend.h"

namespace perfbench {

using pieces::Key;
using pieces::KeyValue;
using pieces::Value;

// Which part of the run a call belongs to. Calls made while the phase is
// kUntimed (set-up, warm-up, verification) are not aggregated.
enum Phase : int { kUntimed = 0, kLatency = 1, kCapacity = 2, kNumPhases = 3 };
void SetPhase(Phase phase);
Phase CurrentPhase();

// Count, total nanoseconds and keys of one kind of call.
struct Tally {
  uint64_t calls = 0;
  uint64_t ns = 0;
  uint64_t keys = 0;
  void Add(uint64_t n, uint64_t k) {
    ++calls;
    ns += n;
    keys += k;
  }
  void Merge(const Tally& o) {
    calls += o.calls;
    ns += o.ns;
    keys += o.keys;
  }
};

struct LayerStats {
  // Primary store calls; `*_index_ns` is the index time inside them.
  Tally store_get, store_getbatch, store_put, store_scan;
  uint64_t store_index_ns = 0;
  std::vector<uint32_t> put_ns, scan_ns;
  // Replica store applies (the shipper thread's Put path).
  std::vector<uint32_t> apply_ns;
  // Index calls (wherever they come from: store, readahead, recovery).
  Tally idx_get, idx_getbatch, idx_insert, idx_scan, idx_predict;
  std::vector<uint32_t> insert_ns;
  uint64_t window_keys = 0, window_samples = 0;
  // Maintenance hook calls.
  Tally collect, prepare, publish;
  uint64_t plans = 0, published = 0, publish_aborted = 0;
  std::vector<uint32_t> publish_ns;

  void Merge(const LayerStats& o);
};

// Merged view of every thread's collector for one phase. Call only when
// no traced call is in flight.
LayerStats CollectLayerStats(Phase phase);

// The span of the most recent primary-store call on this thread.
struct StoreSpan {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t keys = 0;
};
const StoreSpan& LastStoreSpan();

class TimedHook final : public pieces::MaintenanceHook {
 public:
  explicit TimedHook(pieces::MaintenanceHook* inner) : inner_(inner) {}
  void CollectDrift(double threshold,
                    std::vector<pieces::DriftCandidate>* out) override;
  std::unique_ptr<pieces::PreparedRetrain> PrepareRetrain(
      uint64_t segment_id) override;
  bool PublishRetrain(std::unique_ptr<pieces::PreparedRetrain> plan) override;
  void SetMaintenanceMode(bool enabled) override {
    inner_->SetMaintenanceMode(enabled);
  }

 private:
  pieces::MaintenanceHook* const inner_;
};

class TimedIndex final : public pieces::OrderedIndex {
 public:
  explicit TimedIndex(std::unique_ptr<pieces::OrderedIndex> inner);

  void BulkLoad(std::span<const KeyValue> data) override {
    inner_->BulkLoad(data);
  }
  bool Get(Key key, Value* value) const override;
  size_t GetBatch(std::span<const Key> keys, Value* values,
                  bool* found) const override;
  bool PredictRank(Key key, size_t* lo, size_t* hi) const override;
  bool Insert(Key key, Value value) override;
  size_t Scan(Key from, size_t count,
              std::vector<KeyValue>* out) const override;
  size_t IndexSizeBytes() const override { return inner_->IndexSizeBytes(); }
  size_t TotalSizeBytes() const override { return inner_->TotalSizeBytes(); }
  pieces::IndexStats Stats() const override { return inner_->Stats(); }
  std::string_view Name() const override { return inner_->Name(); }
  bool SupportsInsert() const override { return inner_->SupportsInsert(); }
  bool SupportsScan() const override { return inner_->SupportsScan(); }
  bool SupportsConcurrentWrites() const override {
    return inner_->SupportsConcurrentWrites();
  }
  pieces::MaintenanceHook* maintenance() override {
    return hook_ != nullptr ? hook_.get() : nullptr;
  }

 private:
  // Every 64th looked-up key on a thread: record the model's last-mile
  // window (PredictRank hi - lo), outside the timed span.
  void SampleWindow(Key key) const;

  std::unique_ptr<pieces::OrderedIndex> inner_;
  std::unique_ptr<TimedHook> hook_;
};

class TimedStore final : public pieces::StoreBackend {
 public:
  enum class Role { kPrimary, kReplica };
  TimedStore(std::unique_ptr<pieces::StoreBackend> inner, Role role)
      : inner_(std::move(inner)), role_(role) {}

  // The wrapped store: install commit taps here.
  pieces::StoreBackend* inner() { return inner_.get(); }

  bool BulkLoad(const std::vector<Key>& keys) override {
    return inner_->BulkLoad(keys);
  }
  bool BulkLoad(const std::vector<Key>& keys,
                const std::function<void(Key, uint8_t*)>& fill) override {
    return inner_->BulkLoad(keys, fill);
  }
  bool Put(Key key, const uint8_t* value) override;
  bool PutSynthetic(Key key) override;
  bool Get(Key key, uint8_t* out) const override;
  size_t GetBatch(std::span<const Key> keys, uint8_t* const* outs,
                  bool* found) const override;
  size_t Scan(Key from, size_t count,
              std::vector<Key>* out_keys) const override;
  void Crash() override { inner_->Crash(); }
  uint64_t Recover() override { return inner_->Recover(); }
  const pieces::OrderedIndex& index() const override {
    return inner_->index();
  }
  pieces::OrderedIndex* mutable_index() override {
    return inner_->mutable_index();
  }
  size_t size() const override { return inner_->size(); }
  size_t value_size() const override { return inner_->value_size(); }
  std::string_view BackendName() const override {
    return inner_->BackendName();
  }
  pieces::StoreIoStats IoStats() const override { return inner_->IoStats(); }

 private:
  std::unique_ptr<pieces::StoreBackend> inner_;
  const Role role_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
