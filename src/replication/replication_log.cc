#include "replication/replication_log.h"

#include <algorithm>

namespace pieces::replication {

namespace {

// Per-thread record of the last append: the exact watermark for a
// semi-sync ack await issued by the committing thread itself. Tagged with
// the log instance so a thread serving several shards never waits on
// another shard's position.
struct ThreadAppend {
  const ReplicationLog* log = nullptr;
  uint64_t next = 0;  // log index one past the appended record
};
thread_local ThreadAppend tl_append;

}  // namespace

void ReplicationLog::OnCommit(const CommitRecord& record) {
  LogRecord rec;
  rec.key = record.key;
  rec.value.assign(record.value, record.value + record.value_size);
  uint64_t next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(rec));
    next = base_ + records_.size();
    tail_.store(next, std::memory_order_release);
  }
  grew_.notify_all();
  tl_append.log = this;
  tl_append.next = next;
}

size_t ReplicationLog::Read(uint64_t from, size_t max,
                            std::vector<LogRecord>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (from < base_) from = base_;
  const uint64_t end = base_ + records_.size();
  const size_t n =
      from < end ? static_cast<size_t>(std::min<uint64_t>(max, end - from))
                 : 0;
  if (out->size() < n) out->resize(n);
  for (size_t i = 0; i < n; ++i) (*out)[i] = records_[from - base_ + i];
  return n;
}

void ReplicationLog::TruncateTo(uint64_t upto) {
  std::lock_guard<std::mutex> lock(mu_);
  while (base_ < upto && !records_.empty()) {
    records_.pop_front();
    ++base_;
  }
}

bool ReplicationLog::WaitTail(uint64_t beyond) const {
  std::unique_lock<std::mutex> lock(mu_);
  grew_.wait(lock,
             [&] { return closed_ || base_ + records_.size() > beyond; });
  return base_ + records_.size() > beyond;
}

void ReplicationLog::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  grew_.notify_all();
}

uint64_t ReplicationLog::ThisThreadWatermark() const {
  if (tl_append.log == this && tl_append.next > 0) return tl_append.next;
  return tail();
}

}  // namespace pieces::replication
