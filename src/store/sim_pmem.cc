#include "store/sim_pmem.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/timer.h"

namespace pieces {

SimulatedPmem::SimulatedPmem(size_t capacity, uint64_t read_latency_ns,
                             uint64_t write_latency_ns)
    : capacity_(capacity),
      read_latency_ns_(read_latency_ns),
      write_latency_ns_(write_latency_ns),
      // calloc: zeroed so recovery scans over never-written slots see
      // invalid (all-zero) commit headers, and lazily committed so large
      // arenas stay cheap until touched.
      arena_(static_cast<uint8_t*>(std::calloc(capacity, 1))),
      durable_(static_cast<uint8_t*>(std::calloc(capacity, 1))) {
  if (arena_ == nullptr || durable_ == nullptr) {
    std::fprintf(stderr, "SimulatedPmem: cannot allocate %zu-byte arena\n",
                 capacity);
    std::abort();
  }
}

SimulatedPmem::~SimulatedPmem() {
  std::free(arena_);
  std::free(durable_);
}

uint8_t* SimulatedPmem::Allocate(size_t bytes) {
  fault_.CheckPowered();
  size_t aligned = (bytes + 7) & ~size_t{7};
  size_t offset = used_.fetch_add(aligned, std::memory_order_relaxed);
  if (offset + aligned > capacity_) {
    used_.fetch_sub(aligned, std::memory_order_relaxed);
    return nullptr;
  }
  return arena_ + offset;
}

void SimulatedPmem::Charge(uint64_t ns) const {
  if (ns == 0) return;
  uint64_t start = NowNanos();
  while (NowNanos() - start < ns) {
    // Busy-wait: models the synchronous stall of an NVM access.
  }
}

void SimulatedPmem::Read(const uint8_t* pmem_src, void* dst,
                         size_t bytes) const {
  fault_.CheckPowered();
  Charge(read_latency_ns_);
  std::memcpy(dst, pmem_src, bytes);
  bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
}

void SimulatedPmem::ReadBatch(const uint8_t* const* pmem_srcs,
                              uint8_t* const* dsts, size_t bytes_each,
                              size_t n) const {
  if (n == 0) return;
  fault_.CheckPowered();
  Charge(read_latency_ns_);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(dsts[i], pmem_srcs[i], bytes_each);
  }
  bytes_read_.fetch_add(bytes_each * n, std::memory_order_relaxed);
}

void SimulatedPmem::Write(uint8_t* pmem_dst, const void* src, size_t bytes) {
  Charge(write_latency_ns_);
  // Checked under mu_, as in Persist: a write that was in flight when
  // another writer's barrier crashed must not land after the rollback.
  std::lock_guard<std::mutex> lock(mu_);
  fault_.CheckPowered();
  std::memcpy(pmem_dst, src, bytes);
  bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
}

void SimulatedPmem::Persist(const uint8_t* pmem_addr, size_t bytes) {
  Charge(write_latency_ns_);
  // Under mu_: a persist that was in flight when another writer's barrier
  // crashed must fail, not report its rolled-back bytes durable.
  std::lock_guard<std::mutex> lock(mu_);
  fault_.CheckPowered();
  persist_count_.fetch_add(1, std::memory_order_relaxed);
  size_t used = used_.load(std::memory_order_relaxed);
  size_t offset;
  if (pmem_addr == nullptr) {
    // Full fence: everything allocated so far becomes durable.
    offset = 0;
    bytes = used;
  } else {
    offset = static_cast<size_t>(pmem_addr - arena_);
  }
  if (offset >= capacity_) return;
  bytes = std::min(bytes, capacity_ - offset);
  FaultDevice::ByteRange survive;
  if (fault_.FailsBarrier(bytes, &survive)) {
    // The armed barrier fails mid-flush: only the torn range (possibly
    // empty) reaches the durable image, then power is lost.
    const size_t at = offset + survive.begin;
    std::memcpy(durable_ + at, arena_ + at, survive.end - survive.begin);
    RestoreDurable();
    throw SimulatedCrash{};
  }
  std::memcpy(durable_ + offset, arena_ + offset, bytes);
}

void SimulatedPmem::Crash() {
  std::lock_guard<std::mutex> lock(mu_);
  fault_.CutPower();
  RestoreDurable();
}

void SimulatedPmem::RestoreDurable() {
  std::memcpy(arena_, durable_, std::min(used(), capacity_));
}

}  // namespace pieces
