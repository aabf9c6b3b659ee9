// FaultDevice: the power switch under a simulated durable medium. Both
// media — SimulatedPmem (persist fences) and PageStore (fsyncs) — keep
// their written-but-unbarriered bytes apart from a durable image and ask
// this one device, at every durability barrier, whether the power fails
// there. So a crash point, a torn write and a quiescent power cut mean
// the same thing on either medium, and one crash-sweep harness runs on
// both.
//
// A barrier declares the bytes it makes durable (a PMem persist range;
// on disk, the whole records the record core barriers, or whole pages
// for a bare Sync). FailAfterBarriers(n, tear_bytes, end) arms the nth
// barrier to fail mid-flush: only `tear_bytes` declared bytes reach the
// durable image — the first ones (kHead), or the last ones (kTail: bytes
// inside one barrier landing out of order, so a record's trailing header
// lands without its payload head); kNoTear commits none. Every other
// unbarriered byte is lost, and the medium throws SimulatedCrash and
// refuses every access until ClearCrash() (recovery calls it first).
//
// What is deliberately NOT modelled: any other reordering below barrier
// granularity (a torn barrier commits a prefix or a suffix of its
// declared bytes, not an arbitrary subset) and metadata loss (the
// allocated extent — a PMem arena's used() or a file's length — survives
// a crash; recovery may derive the page count from it but must not
// trust any byte of page content that no barrier covered).
#ifndef PIECES_STORE_FAULT_DEVICE_H_
#define PIECES_STORE_FAULT_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace pieces {

// Thrown from a medium at an armed crash point, and on any access to a
// crashed, not-yet-recovered medium. Deliberately carries no state: a
// power failure does not explain itself.
struct SimulatedCrash {};

class FaultDevice {
 public:
  // tear_bytes sentinel: the armed barrier commits nothing at all (the
  // crash strikes as the flush begins).
  static constexpr int64_t kNoTear = -1;
  // Which end of the crashing barrier's declared bytes a tear keeps.
  enum class TearEnd { kHead, kTail };
  // Declared bytes [begin, end) of a failing barrier that survive.
  struct ByteRange { size_t begin = 0, end = 0; };

  FaultDevice() = default;
  FaultDevice(const FaultDevice&) = delete;
  FaultDevice& operator=(const FaultDevice&) = delete;

  // ---- Test-facing programming interface ----------------------------

  // Arms the nth barrier from now (n >= 1) to fail with `tear_bytes` of
  // its declared bytes committed, taken from `end`; n == 0 disarms.
  // Arming replaces any previously armed point.
  void FailAfterBarriers(uint64_t n, int64_t tear_bytes = kNoTear,
                         TearEnd end = TearEnd::kHead);
  void Disarm() { FailAfterBarriers(0); }
  bool armed() const {
    return barriers_left_.load(std::memory_order_relaxed) > 0;
  }

  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }
  // Power back on. The medium holds whatever survived the crash.
  void ClearCrash() { crashed_.store(false, std::memory_order_relaxed); }
  uint64_t crash_count() const { return crash_count_.load(); }

  // ---- Medium-facing interface --------------------------------------

  // Throws while the power is off (crashed and not recovered).
  void CheckPowered() const {
    if (crashed()) throw SimulatedCrash{};
  }

  // Called at every barrier over `bytes` declared bytes. False for an
  // ordinary barrier: the medium commits everything. At the armed
  // barrier it cuts the power and returns true with `*survive` set to
  // the declared bytes that reach the durable image; the medium commits
  // exactly those, drops every other unbarriered byte and throws
  // SimulatedCrash.
  bool FailsBarrier(size_t bytes, ByteRange* survive) {
    if (barriers_left_.load(std::memory_order_relaxed) <= 0) return false;
    return FireIfArmed(bytes, survive);
  }

  // Quiescent-point power failure (the caller is the operator, not the
  // victim, so nothing throws): disarms and marks the power off. The
  // medium drops its unbarriered bytes.
  void CutPower();

 private:
  bool FireIfArmed(size_t bytes, ByteRange* survive);

  // Remaining barriers until the armed crash; <= 0 means disarmed.
  std::atomic<int64_t> barriers_left_{0};
  // Published before barriers_left_, so a barrier that sees the count
  // also sees its tear.
  std::atomic<int64_t> tear_bytes_{kNoTear};
  std::atomic<bool> tear_tail_{false};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> crash_count_{0};
};

}  // namespace pieces

#endif  // PIECES_STORE_FAULT_DEVICE_H_
