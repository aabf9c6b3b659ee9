// Simulated persistent memory: a DRAM arena with optional injected
// read/write latency, access accounting, and an enforced persistence
// domain. Substitutes for the paper's Intel Optane DCPMM (see DESIGN.md):
// the end-to-end question is how much a slower persistence medium drags
// each index, and injecting per-access latency reproduces that drag
// uniformly. With latencies at 0 (default) it behaves as plain DRAM,
// which keeps unit tests fast.
//
// Persistence is a contract, not bookkeeping: the arena is shadowed by a
// durable image that receives bytes only at Persist() barriers. Crash()
// — or an armed crash point of fault() firing — rolls the arena back to
// that image, dropping every written-but-unpersisted byte the way a
// power failure drops the CPU caches and the in-flight WPQ entries of a
// real PMem DIMM. A torn persist commits a prefix or a suffix of its
// range (a real 256-byte PMem write is failure-atomic only in 8-byte
// units, in no promised order). See fault_device.h for what the
// simulation does and does not model.
#ifndef PIECES_STORE_SIM_PMEM_H_
#define PIECES_STORE_SIM_PMEM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "store/fault_device.h"

namespace pieces {

class SimulatedPmem {
 public:
  // `capacity` bytes; latencies in nanoseconds per access (not per byte).
  SimulatedPmem(size_t capacity, uint64_t read_latency_ns = 0,
                uint64_t write_latency_ns = 0);
  ~SimulatedPmem();

  SimulatedPmem(const SimulatedPmem&) = delete;
  SimulatedPmem& operator=(const SimulatedPmem&) = delete;

  // Bump allocation (8-byte aligned). Returns nullptr when exhausted.
  uint8_t* Allocate(size_t bytes);

  // Latency-charged access. `dst`/`src` are normal DRAM buffers.
  // Every accessor throws SimulatedCrash while the device is crashed and
  // not yet recovered (power is off).
  void Read(const uint8_t* pmem_src, void* dst, size_t bytes) const;
  // Batched read of `n` equally-sized records: all bytes are accounted,
  // but the injected read latency is charged once for the whole batch —
  // a batch of independent loads overlaps its misses in the memory
  // subsystem, so the stalls do not add up the way sequential dependent
  // reads do.
  void ReadBatch(const uint8_t* const* pmem_srcs, uint8_t* const* dsts,
                 size_t bytes_each, size_t n) const;
  void Write(uint8_t* pmem_dst, const void* src, size_t bytes);
  // Persistence barrier (clwb + fence) over [pmem_addr, pmem_addr+bytes):
  // counted, charged the write latency once, and — the contract — the
  // covered bytes are committed to the durable image. A nullptr address
  // is a full fence over the whole allocated extent.
  void Persist(const uint8_t* pmem_addr, size_t bytes);

  // Quiescent-point power failure: every written-but-unpersisted byte is
  // discarded. The device then refuses accesses until fault().ClearCrash()
  // (recovery code calls it first).
  void Crash();

  FaultDevice& fault() { return fault_; }
  const FaultDevice& fault() const { return fault_; }

  // Address of a byte offset inside the arena — recovery code re-derives
  // page addresses from durable state (offsets) instead of trusting a
  // volatile pointer table.
  uint8_t* AddressAt(size_t offset) const { return arena_ + offset; }

  size_t capacity() const { return capacity_; }
  size_t used() const { return used_.load(std::memory_order_relaxed); }
  uint64_t bytes_read() const { return bytes_read_.load(); }
  uint64_t bytes_written() const { return bytes_written_.load(); }
  uint64_t persist_count() const { return persist_count_.load(); }

 private:
  void Charge(uint64_t ns) const;
  // Rolls the arena back to the durable image. Called with mu_ held.
  void RestoreDurable();

  size_t capacity_;
  uint64_t read_latency_ns_;
  uint64_t write_latency_ns_;
  uint8_t* arena_;  // calloc'd: zeroed, lazily committed
  std::atomic<size_t> used_{0};
  mutable std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> persist_count_{0};
  uint8_t* durable_;  // calloc'd: zero until persisted, lazily committed
  // Orders every write and persist (power check, then commit) against a
  // crash's rollback. The injected latency is charged outside it, so
  // concurrent writers still overlap their stalls.
  std::mutex mu_;
  FaultDevice fault_;
};

}  // namespace pieces

#endif  // PIECES_STORE_SIM_PMEM_H_
