#include "replication/replica.h"

#include <utility>

#include "store/record_format.h"

namespace pieces::replication {

Replica::Replica(std::unique_ptr<StoreBackend> store)
    : store_(std::move(store)) {}

bool Replica::Seed(const StoreBackend& primary, uint64_t log_start) {
  std::vector<Key> keys;
  primary.Scan(0, primary.size(), &keys);
  std::unique_lock<std::shared_mutex> lock(store_mu_);
  if (store_ == nullptr) return false;
  const size_t value_size = store_->value_size();
  bool ok = store_->BulkLoad(keys, [&](Key key, uint8_t* buf) {
    // Preserve the primary's stored bytes; a key that vanished mid-scan
    // cannot happen on a quiesced primary, but fall back deterministically
    // rather than leaving the buffer unwritten.
    if (!primary.Get(key, buf)) {
      FillSyntheticRecordValue(key, buf, value_size);
    }
  });
  if (!ok) return false;
  applied_.store(log_start, std::memory_order_release);
  return true;
}

size_t Replica::Apply(std::span<const LogRecord> records) {
  std::unique_lock<std::shared_mutex> lock(store_mu_);
  if (store_ == nullptr) return 0;
  size_t n = 0;
  for (const LogRecord& rec : records) {
    if (!store_->Put(rec.key, rec.value.data())) break;
    ++n;
  }
  applied_.fetch_add(n, std::memory_order_release);
  return n;
}

bool Replica::Get(Key key, uint8_t* out, bool* gone) const {
  std::shared_lock<std::shared_mutex> lock(store_mu_);
  if (store_ == nullptr) {
    *gone = true;
    return false;
  }
  *gone = false;
  return store_->Get(key, out);
}

std::unique_ptr<StoreBackend> Replica::Promote(uint64_t* rebuild_ns) {
  std::unique_lock<std::shared_mutex> lock(store_mu_);
  if (store_ == nullptr) return nullptr;
  // The replica's store is durable in its own right (every apply ran the
  // full commit protocol), so recovery off its media is exactly the
  // restarted-primary path — the index rebuild cost is the outage's
  // index-dependent component.
  const uint64_t ns = store_->Recover();
  if (rebuild_ns != nullptr) *rebuild_ns = ns;
  return std::move(store_);
}

}  // namespace pieces::replication
