// Binary serialization of preprocessing results. Preprocessing costs
// O(m log n + n rho^2) work; persisting it lets a service pay that once and
// reload in O(n + m).
//
// Format (little-endian, version 2):
//   magic "RSPP", u32 version,
//   u32 rho, u32 k, u8 heuristic, u8 settle_ties,
//   u64 added_edges, f64 added_factor,
//   u32 n, u64 m_arcs,
//   offsets[n+1] (u64), targets[m] (u32), weights[m] (u32),
//   radius[n] (u64),
//   u64 s, shortcut_start[s] (u64): s is n for a split graph (see Graph),
//   0 for an unsplit one.
//
// Version 1 lacked the shortcut starts; it is rejected as an unsupported
// version, so files written before the split must be regenerated. Loading
// treats the bytes as untrusted: counts are bounded by the stream size
// before allocating, every shortcut start must lie in its vertex's
// adjacency list, and every shortcut segment must be sorted by weight.
#pragma once

#include <iosfwd>
#include <string>

#include "shortcut/shortcut.hpp"

namespace rs {

void save_preprocessing(const PreprocessResult& pre, std::ostream& out);
void save_preprocessing_file(const PreprocessResult& pre,
                             const std::string& path);

/// Throws std::runtime_error on malformed or version-mismatched input.
PreprocessResult load_preprocessing(std::istream& in);
PreprocessResult load_preprocessing_file(const std::string& path);

}  // namespace rs
