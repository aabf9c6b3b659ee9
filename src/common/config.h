// Environment-driven configuration knobs: the injected NVM latencies
// (PIECES_NVM_READ_NS, PIECES_NVM_WRITE_NS) and the strict integer parser
// behind them. Dataset size, thread ceiling and data directory are
// pieces_bench flags (--keys, --threads, --data-dir), not env variables.
#ifndef PIECES_COMMON_CONFIG_H_
#define PIECES_COMMON_CONFIG_H_

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace pieces {

// Strictly parses a base-10 unsigned integer: the whole string must be
// digits (no sign, no leading/trailing garbage, no overflow). Returns
// false without touching *out on any violation, so "10x" or "-1" cannot
// silently become a valid knob value.
inline bool ParseU64Strict(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(parsed);
  return true;
}

// Returns the integer value of environment variable `name`, or `def` when
// unset. A set-but-unparsable value (e.g. PIECES_NVM_READ_NS=10x) falls
// back to `def` and prints a one-time warning to stderr instead of
// silently truncating at the first non-digit.
inline uint64_t GetEnvU64(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  uint64_t parsed = 0;
  if (!ParseU64Strict(v, &parsed)) {
    static std::mutex mu;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(mu);
    if (warned.insert(name).second) {
      std::fprintf(stderr,
                   "pieces: env %s=\"%s\" is not a valid unsigned integer; "
                   "using default %llu\n",
                   name, v, static_cast<unsigned long long>(def));
    }
    return def;
  }
  return parsed;
}

// Injected simulated-NVM latencies in nanoseconds (default 0 = plain DRAM).
inline uint64_t NvmReadLatencyNs() {
  return GetEnvU64("PIECES_NVM_READ_NS", 0);
}
inline uint64_t NvmWriteLatencyNs() {
  return GetEnvU64("PIECES_NVM_WRITE_NS", 0);
}

}  // namespace pieces

#endif  // PIECES_COMMON_CONFIG_H_
