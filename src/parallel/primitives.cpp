#include "parallel/primitives.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace rs {

int parse_worker_count(const char* value, int fallback) {
  // Unset / empty behaves exactly like an absent variable (CI's
  // default-thread matrix leg sets RS_THREADS=""), silently.
  if (value == nullptr || *value == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value, &end, 10);
  const bool overflowed = errno == ERANGE;
  if (end == value || *end != '\0' || overflowed || v < 1 ||
      v > kMaxWorkers) {
    // Garbage, trailing junk, non-positive, or overflow: warn once per
    // occurrence and keep the default instead of silently misconfiguring
    // the count. (Don't print `fallback` — some callers pass a sentinel
    // meaning "leave the current setting alone".)
    std::fprintf(stderr,
                 "[rs] warning: RS_THREADS=\"%s\" is not a count in [1, %d]; "
                 "falling back to the default\n",
                 value, kMaxWorkers);
    return fallback;
  }
  return static_cast<int>(v);
}

namespace {
std::atomic<int>& worker_count() {
  static std::atomic<int> count{[] {
    // RS_THREADS (if set and valid) wins over the OpenMP default.
    return parse_worker_count(std::getenv("RS_THREADS"),
                              omp_get_max_threads());
  }()};
  return count;
}
}  // namespace

int num_workers() {
  if (omp_get_level() > 0) return 1;
  return worker_count().load(std::memory_order_relaxed);
}

void set_num_workers(int n) {
  if (n < 1) n = 1;
  worker_count().store(n, std::memory_order_relaxed);
  omp_set_num_threads(n);
}

std::int64_t env_int64(const char* name, std::int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<std::int64_t>(v);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* env = std::getenv(name);
  return (env == nullptr || *env == '\0') ? fallback : std::string(env);
}

}  // namespace rs
