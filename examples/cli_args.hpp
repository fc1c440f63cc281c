// Flag parsing shared by the example front ends (sssp_cli, sssp_serve).
#pragma once

#include <cctype>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace rs::examples {

/// Minimal --flag value parser. It records every key get reads, so
/// reject_unread() can refuse a flag the command never looks at (a typo
/// or a removed option) instead of silently ignoring it. Numbers go
/// through get_checked / get_checked_real below.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      const bool is_flag =
          a.size() >= 2 && a[0] == '-' &&
          !std::isdigit(static_cast<unsigned char>(a[1]));
      if (is_flag && i + 1 < argc) {
        kv_[a] = argv[++i];
      } else {
        positional_.push_back(a);
      }
    }
  }
  std::string get(const std::string& key, const std::string& dflt) const {
    read_.insert(key);
    const auto it = kv_.find(key);
    return it == kv_.end() ? dflt : it->second;
  }
  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws std::invalid_argument("unknown flag <key>") for the first
  /// given flag that no get call has read. Call it once the command has
  /// read all of its options.
  void reject_unread() const {
    for (const auto& [key, value] : kv_) {
      if (read_.count(key) == 0) {
        throw std::invalid_argument("unknown flag " + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

/// Strict integer flag: absent -> `dflt`; present -> must parse fully as
/// an integer in [lo, hi]. Rejects what std::stol would let slide —
/// trailing junk ("5x") — and, crucially, negatives where a vertex id is
/// expected: `--source -5` historically cast straight to an unsigned
/// Vertex and queried from vertex 4294967291 without a word.
inline long get_checked(const Args& args, const std::string& key, long dflt,
                        long lo, long hi) {
  const std::string raw = args.get(key, "");
  if (raw.empty()) return dflt;
  std::size_t used = 0;
  long v = 0;
  try {
    v = std::stol(raw, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument(key + " expects an integer, got '" + raw +
                                "'");
  }
  if (used != raw.size()) {
    throw std::invalid_argument(key + " expects an integer, got '" + raw +
                                "'");
  }
  if (v < lo || v > hi) {
    throw std::invalid_argument(key + " out of range [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]: " + raw);
  }
  return v;
}

/// Strict real flag, get_checked's twin: absent -> `dflt`; present ->
/// must parse fully as a number in [lo, hi]. NaN and infinities fail the
/// range test.
inline double get_checked_real(const Args& args, const std::string& key,
                               double dflt, double lo, double hi) {
  const std::string raw = args.get(key, "");
  if (raw.empty()) return dflt;
  std::size_t used = 0;
  double v = 0;
  try {
    v = std::stod(raw, &used);
  } catch (const std::exception&) {
    used = 0;  // not a number, or beyond a double's range
  }
  if (used == 0 || used != raw.size()) {
    throw std::invalid_argument(key + " expects a number, got '" + raw + "'");
  }
  if (!(v >= lo && v <= hi)) {
    char range[64];
    std::snprintf(range, sizeof range, "[%g, %g]", lo, hi);
    throw std::invalid_argument(key + " out of range " + range + ": " + raw);
  }
  return v;
}

/// Upper bound of vertex-id flags and of --rho / --k.
inline constexpr long kMaxVertex =
    static_cast<long>(std::numeric_limits<Vertex>::max());

}  // namespace rs::examples
