#include "store/io_engine.h"

#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace pieces {

namespace {

// One blocking page read with PageStore's sparse semantics: EINTR
// retried, short/never-written extents zero-filled, hard errors false.
bool ReadOnePage(int fd, size_t page_size, const IoFetch& fetch) {
  const off_t off =
      static_cast<off_t>(fetch.page) * static_cast<off_t>(page_size);
  size_t got = 0;
  while (got < page_size) {
    ssize_t n = ::pread(fd, fetch.out + got, page_size - got,
                        off + static_cast<off_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) break;  // sparse tail: reads as zeros
    got += static_cast<size_t>(n);
  }
  if (got < page_size) std::memset(fetch.out + got, 0, page_size - got);
  return true;
}

// ---- serial: the default, one blocking wait per page ---------------

class SerialIoEngine : public IoEngine {
 public:
  SerialIoEngine(int fd, size_t page_size)
      : fd_(fd), page_size_(page_size) {}

  std::string_view name() const override { return "serial"; }

  bool ReadBatch(std::span<const IoFetch> fetches) override {
    bool ok = true;
    for (const IoFetch& f : fetches) {
      ok = ReadOnePage(fd_, page_size_, f) && ok;
    }
    NoteBatch(fetches.size(), /*waits=*/fetches.size(), /*inflight=*/1);
    return ok;
  }

 private:
  int fd_;
  size_t page_size_;
};

// ---- threads: pread worker pool, one wait per batch ----------------

class ThreadPoolIoEngine : public IoEngine {
 public:
  ThreadPoolIoEngine(int fd, size_t page_size)
      : fd_(fd), page_size_(page_size) {}

  ~ThreadPoolIoEngine() override {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      stop_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  std::string_view name() const override { return "threads"; }

  bool ReadBatch(std::span<const IoFetch> fetches) override {
    const size_t n = fetches.size();
    if (n == 0) return true;
    if (n == 1) {
      // No point bouncing a single page through the pool.
      bool ok = ReadOnePage(fd_, page_size_, fetches[0]);
      NoteBatch(1, /*waits=*/1, /*inflight=*/1);
      return ok;
    }
    auto batch = std::make_shared<Batch>();
    batch->fetches = fetches;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      EnsureWorkersLocked();
      queue_.push_back(batch);
    }
    queue_cv_.notify_all();
    // The submitting thread steals work from its own batch, so a batch
    // never waits for a worker to become free to make progress.
    Drain(batch.get());
    {
      std::unique_lock<std::mutex> lock(batch->mu);
      batch->cv.wait(lock, [&] { return batch->done == n; });
    }
    {
      // Exhausted batches linger at the queue front until a worker or
      // the next submitter sweeps them; sweep now so `batch`'s span
      // (caller stack) is never referenced again.
      std::lock_guard<std::mutex> lock(queue_mu_);
      while (!queue_.empty() &&
             queue_.front()->next.load(std::memory_order_relaxed) >=
                 queue_.front()->fetches.size()) {
        queue_.pop_front();
      }
    }
    NoteBatch(n, /*waits=*/1, /*inflight=*/std::min(n, kWorkers + 1));
    return batch->ok.load(std::memory_order_relaxed);
  }

 private:
  struct Batch {
    std::span<const IoFetch> fetches;
    std::atomic<size_t> next{0};
    std::atomic<bool> ok{true};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // under mu
  };

  void Drain(Batch* batch) {
    const size_t n = batch->fetches.size();
    for (;;) {
      size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (!ReadOnePage(fd_, page_size_, batch->fetches[i])) {
        batch->ok.store(false, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(batch->mu);
      if (++batch->done == n) batch->cv.notify_all();
    }
  }

  void EnsureWorkersLocked() {
    if (!workers_.empty()) return;
    for (size_t i = 0; i < kWorkers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void WorkerLoop() {
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock<std::mutex> lock(queue_mu_);
        queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        batch = queue_.front();
        if (batch->next.load(std::memory_order_relaxed) >=
            batch->fetches.size()) {
          queue_.pop_front();  // exhausted; claimed reads finish elsewhere
          continue;
        }
      }
      Drain(batch.get());
    }
  }

  // Pool size: enough to overlap a tile's misses without outnumbering
  // the shard workers on a small machine.
  static constexpr size_t kWorkers = 4;

  int fd_;
  size_t page_size_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Batch>> queue_;  // under queue_mu_
  std::vector<std::thread> workers_;          // under queue_mu_ (lazy start)
  bool stop_ = false;                         // under queue_mu_
};

}  // namespace

std::unique_ptr<IoEngine> MakeIoEngine(const std::string& kind, int fd,
                                       size_t page_size) {
  if (kind == "threads") {
    return std::make_unique<ThreadPoolIoEngine>(fd, page_size);
  }
  if (kind != "serial") {
    static std::once_flag warned;
    std::call_once(warned, [&] {
      std::fprintf(stderr,
                   "pieces: io_engine '%s' is not a known engine; using "
                   "'serial'\n",
                   kind.c_str());
    });
  }
  return std::make_unique<SerialIoEngine>(fd, page_size);
}

}  // namespace pieces
