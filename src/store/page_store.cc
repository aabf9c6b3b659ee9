#include "store/page_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pieces {

namespace {

// Reads `n` bytes at `off`; sparse/short tails read as zeros, like
// never-written PMem.
void PreadOrZero(int fd, off_t off, uint8_t* out, size_t n) {
  ssize_t got = ::pread(fd, out, n, off);
  if (got < 0) got = 0;
  if (static_cast<size_t>(got) < n) {
    std::memset(out + got, 0, n - static_cast<size_t>(got));
  }
}

}  // namespace

PageStore::PageStore(std::string path, const Options& opts)
    : opts_(opts), path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    error_ = "PageStore: cannot open '" + path_ +
             "': " + std::strerror(errno);
  }
}

PageStore::~PageStore() {
  if (fd_ >= 0) {
    ::close(fd_);
    ::unlink(path_.c_str());
  }
}

uint32_t PageStore::AllocatePage() {
  fault_.CheckPowered();
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = num_pages_.load(std::memory_order_relaxed);
  if (n >= opts_.max_pages) return kInvalidPage;
  // Extend the file now so the allocated extent survives a crash the way
  // a file's length does; the new page's content reads as zeros.
  if (::ftruncate(fd_, static_cast<off_t>((n + 1) * opts_.page_size)) != 0) {
    return kInvalidPage;
  }
  num_pages_.store(n + 1, std::memory_order_relaxed);
  return static_cast<uint32_t>(n);
}

void PageStore::ReadPage(uint32_t page, uint8_t* out) const {
  fault_.CheckPowered();
  const off_t off = static_cast<off_t>(page) *
                    static_cast<off_t>(opts_.page_size);
  std::lock_guard<std::mutex> lock(mu_);
  PreadOrZero(fd_, off, out, opts_.page_size);
  pages_read_.fetch_add(1, std::memory_order_relaxed);
}

void PageStore::PwriteOrDie(uint32_t page, const uint8_t* data) {
  const off_t off = static_cast<off_t>(page) *
                    static_cast<off_t>(opts_.page_size);
  size_t done = 0;
  while (done < opts_.page_size) {
    ssize_t n = ::pwrite(fd_, data + done, opts_.page_size - done,
                         off + static_cast<off_t>(done));
    if (n <= 0) return;  // ENOSPC etc.; the sync barrier cannot fix this
    done += static_cast<size_t>(n);
  }
}

void PageStore::WritePage(uint32_t page, const uint8_t* data) {
  // Checked under mu_, as in Sync: a write that queued behind a
  // concurrent writer's crashing barrier must not land after the
  // rollback.
  std::lock_guard<std::mutex> lock(mu_);
  fault_.CheckPowered();
  // First write to this page since the last barrier: capture its durable
  // image (the file content is durable here — everything pending is in
  // shadow_ already, and this page is not).
  if (shadow_.find(page) == shadow_.end()) {
    std::vector<uint8_t> durable(opts_.page_size);
    const off_t off = static_cast<off_t>(page) *
                      static_cast<off_t>(opts_.page_size);
    PreadOrZero(fd_, off, durable.data(), opts_.page_size);
    shadow_.emplace(page, std::move(durable));
    pending_order_.push_back(page);
  }
  PwriteOrDie(page, data);
  pages_written_.fetch_add(1, std::memory_order_relaxed);
}

void PageStore::RestorePendingLocked() {
  for (uint32_t page : pending_order_) {
    PwriteOrDie(page, shadow_[page].data());
  }
  pending_order_.clear();
  shadow_.clear();
}

void PageStore::Sync(std::span<const Extent> declared) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncLocked(declared);
}

void PageStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Extent> whole;
  whole.reserve(pending_order_.size());
  for (uint32_t page : pending_order_) {
    whole.push_back({page, 0, opts_.page_size});
  }
  SyncLocked(whole);
}

void PageStore::SyncLocked(std::span<const Extent> declared) {
  // Under mu_: a barrier that queued behind a concurrent writer's
  // crashing barrier must fail, not report its rolled-back bytes durable.
  fault_.CheckPowered();
  syncs_.fetch_add(1, std::memory_order_relaxed);
  size_t bytes = 0;
  for (const Extent& e : declared) bytes += e.length;
  FaultDevice::ByteRange survive;
  if (fault_.FailsBarrier(bytes, &survive)) {
    // The armed barrier fails mid-flush: the surviving range of the
    // declared bytes (counted across the extents in order) lands on the
    // durable images, then every pending page rolls back to its image. A
    // declared page with no pending write is durable already.
    size_t pos = 0;  // declared bytes before extent e
    for (const Extent& e : declared) {
      const size_t lo = std::max(survive.begin, pos);
      const size_t hi = std::min(survive.end, pos + e.length);
      auto it = shadow_.find(e.page);
      if (lo < hi && it != shadow_.end()) {
        const size_t at = e.offset + (lo - pos);
        PreadOrZero(fd_, static_cast<off_t>(e.page * opts_.page_size + at),
                    it->second.data() + at, hi - lo);
      }
      pos += e.length;
    }
    RestorePendingLocked();
    throw SimulatedCrash{};
  }
  const uint64_t delay = sync_delay_us_.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  ::fdatasync(fd_);
  // Everything written so far is now durable; drop the rollback images.
  pending_order_.clear();
  shadow_.clear();
}

void PageStore::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  fault_.CutPower();
  RestorePendingLocked();
}

}  // namespace pieces
