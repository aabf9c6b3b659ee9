// Bounded spin before a condition-variable wait. A thread that expects its
// next piece of work within microseconds polls a lock-free readiness check
// instead of parking: parking costs the waker a futex wake and the sleeper
// a scheduler wake-up, several microseconds on each side. The spin never
// decides anything — the caller still takes its lock and runs its own
// predicate wait afterwards — so it changes only who pays for the wake-up.
// Which threads spin, and why the budget is what it is: DESIGN.md, the
// "Shard = store + index + worker lanes + bounded queue" bullet.
#ifndef PIECES_COMMON_SPIN_WAIT_H_
#define PIECES_COMMON_SPIN_WAIT_H_

#include <atomic>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pieces {

// Chosen by a sweep on read_mem (traced, shard queue wait p50, 5.3 us
// with no spin): 2 us left it at 4.6 us, 10 us at 1.0 us, 50 us at 0.4 us.
inline constexpr std::chrono::microseconds kSpinBudget{50};

namespace spin_internal {
inline std::atomic<unsigned> spinners{0};
inline const unsigned kCores = std::thread::hardware_concurrency();
}  // namespace spin_internal

// Registers the calling thread as one that spins before it parks (a shard
// worker) for the holder's lifetime. A spin pays only while each such
// thread can keep a core and one core is left for the threads that make
// them ready (clients, the shipper): once as many are registered as the
// machine has cores, SpinUntil checks once and returns, and every waiter
// parks as if there were no spin.
class SpinnerScope {
 public:
  SpinnerScope() {
    spin_internal::spinners.fetch_add(1, std::memory_order_relaxed);
  }
  ~SpinnerScope() {
    spin_internal::spinners.fetch_sub(1, std::memory_order_relaxed);
  }
  SpinnerScope(const SpinnerScope&) = delete;
  SpinnerScope& operator=(const SpinnerScope&) = delete;
};

// Polls `ready` (a cheap, lock-free check) with a pause between polls until
// it returns true or kSpinBudget has elapsed. Returns whether it became
// ready.
template <typename Ready>
bool SpinUntil(Ready&& ready) {
  if (ready()) return true;
  if (spin_internal::spinners.load(std::memory_order_relaxed) >=
      spin_internal::kCores) {
    return false;
  }
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (;;) {
    // Read the clock once per 32 polls: a poll is a pause and a load.
    for (int i = 0; i < 32; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      _mm_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
      if (ready()) return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

}  // namespace pieces

#endif  // PIECES_COMMON_SPIN_WAIT_H_
