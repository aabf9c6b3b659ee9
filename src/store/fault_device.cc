#include "store/fault_device.h"

#include <algorithm>
#include <limits>

namespace pieces {

void FaultDevice::FailAfterBarriers(uint64_t n, int64_t tear_bytes,
                                    TearEnd end) {
  tear_bytes_.store(tear_bytes, std::memory_order_relaxed);
  tear_tail_.store(end == TearEnd::kTail, std::memory_order_relaxed);
  const uint64_t cap = std::numeric_limits<int64_t>::max();
  barriers_left_.store(static_cast<int64_t>(std::min(n, cap)),
                       std::memory_order_release);
}

bool FaultDevice::FireIfArmed(size_t bytes, ByteRange* survive) {
  if (barriers_left_.fetch_sub(1, std::memory_order_acquire) != 1) {
    return false;
  }
  const int64_t tear = tear_bytes_.load(std::memory_order_relaxed);
  const size_t n = tear < 0 ? 0 : std::min(static_cast<size_t>(tear), bytes);
  *survive = tear_tail_.load(std::memory_order_relaxed)
                 ? ByteRange{bytes - n, bytes}
                 : ByteRange{0, n};
  CutPower();
  return true;
}

void FaultDevice::CutPower() {
  barriers_left_.store(0, std::memory_order_relaxed);
  crashed_.store(true, std::memory_order_relaxed);
  crash_count_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pieces
