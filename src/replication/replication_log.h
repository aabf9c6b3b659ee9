// ReplicationLog: the per-shard redo stream behind primary→replica log
// shipping. It is a CommitTap installed on the primary store, so every
// committed put lands here (key + value bytes) *before* the client's
// acknowledgement — the property replication-synchronous acks are built
// on.
//
// Positions in the log are *log indexes* (0-based append order; tail() is
// one past the last appended record), not primary seqnos: seqnos from
// concurrent writers may arrive interleaved, while per-key order matches
// per-key commit order (the tap contract).
//
// Shipped-and-applied prefixes are truncated (TruncateTo) so the in-DRAM
// log stays bounded by the replication lag, not the write history.
#ifndef PIECES_REPLICATION_REPLICATION_LOG_H_
#define PIECES_REPLICATION_REPLICATION_LOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "store/store_backend.h"

namespace pieces::replication {

// One committed primary record, framed for shipping. The value is copied
// out of the commit path (the store's buffer is only valid in-call).
struct LogRecord {
  Key key = 0;
  std::vector<uint8_t> value;
};

class ReplicationLog : public CommitTap {
 public:
  ReplicationLog() = default;

  ReplicationLog(const ReplicationLog&) = delete;
  ReplicationLog& operator=(const ReplicationLog&) = delete;

  // CommitTap: append the record and wake a parked (kLocal) shipper.
  // Called from any writer thread, before that writer's put is acked.
  void OnCommit(const CommitRecord& record) override;

  // One past the last appended record's log index.
  uint64_t tail() const { return tail_.load(std::memory_order_acquire); }

  // Copies up to `max` records starting at log index `from` into out's
  // first elements (grown if shorter, never shrunk: a reused batch keeps
  // its value buffers, so nothing is allocated per record) and returns
  // how many were copied. `from` below the truncation point snaps up.
  size_t Read(uint64_t from, size_t max, std::vector<LogRecord>* out) const;

  // Drops records below log index `upto` (they are shipped and applied).
  void TruncateTo(uint64_t upto);

  // Blocks until tail() > `beyond` or the log is closed. Returns
  // tail() > beyond.
  bool WaitTail(uint64_t beyond) const;

  // Wakes every waiter permanently (session teardown). Appends after
  // Close are still recorded — a racing writer's tap must not be lost —
  // but nothing will ship them.
  void Close();

  // The log index one past the record this thread most recently appended
  // to *this* log, i.e. the watermark that covers exactly that write.
  // Falls back to tail() (a conservative, larger watermark) when the
  // calling thread has not appended here — the caller of a semi-sync
  // await is the thread that just committed the put, so the exact path is
  // the common one.
  uint64_t ThisThreadWatermark() const;

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable grew_;
  std::deque<LogRecord> records_;  // records_[i] has log index base_ + i
  uint64_t base_ = 0;
  bool closed_ = false;
  std::atomic<uint64_t> tail_{0};
};

}  // namespace pieces::replication

#endif  // PIECES_REPLICATION_REPLICATION_LOG_H_
