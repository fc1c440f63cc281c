#include "shortcut/serialize.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

namespace rs {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'P', 'P'};
constexpr std::uint32_t kVersion = 2;

template <typename T>
void put(std::ostream& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void put_vec(std::ostream& out, const std::vector<T>& v) {
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
T get(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("load_preprocessing: truncated input");
  return value;
}

template <typename T>
std::vector<T> get_vec(std::istream& in, std::size_t count) {
  std::vector<T> v(count);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) throw std::runtime_error("load_preprocessing: truncated input");
  return v;
}

/// Bytes left in `in` from the current position, or nullopt when the
/// stream is not seekable. Restores the read position.
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::istream::pos_type cur = in.tellg();
  if (cur == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(cur);
  if (!in || end == std::istream::pos_type(-1) || end < cur) {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - cur);
}

}  // namespace

void save_preprocessing(const PreprocessResult& pre, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  put(out, kVersion);
  put(out, pre.options.rho);
  put(out, pre.options.k);
  put(out, static_cast<std::uint8_t>(pre.options.heuristic));
  put(out, static_cast<std::uint8_t>(pre.options.settle_ties));
  put(out, pre.added_edges);
  put(out, pre.added_factor);
  const Graph& g = pre.graph;
  put(out, g.num_vertices());
  put(out, g.num_edges());
  put_vec(out, g.offsets());
  put_vec(out, g.targets());
  put_vec(out, g.weights());
  put_vec(out, pre.radius);
  put(out, static_cast<std::uint64_t>(g.shortcut_starts().size()));
  put_vec(out, g.shortcut_starts());
  if (!out) throw std::runtime_error("save_preprocessing: write failed");
}

void save_preprocessing_file(const PreprocessResult& pre,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_preprocessing: cannot open " + path);
  save_preprocessing(pre, out);
}

PreprocessResult load_preprocessing(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_preprocessing: bad magic");
  }
  if (get<std::uint32_t>(in) != kVersion) {
    throw std::runtime_error("load_preprocessing: unsupported version");
  }
  PreprocessResult pre;
  pre.options.rho = get<Vertex>(in);
  pre.options.k = get<Vertex>(in);
  const auto heuristic = get<std::uint8_t>(in);
  if (heuristic > static_cast<std::uint8_t>(ShortcutHeuristic::kDP)) {
    throw std::runtime_error("load_preprocessing: bad heuristic tag");
  }
  pre.options.heuristic = static_cast<ShortcutHeuristic>(heuristic);
  pre.options.settle_ties = get<std::uint8_t>(in) != 0;
  pre.added_edges = get<EdgeId>(in);
  pre.added_factor = get<double>(in);
  const Vertex n = get<Vertex>(in);
  const EdgeId m = get<EdgeId>(in);
  // The header counts are untrusted: bound them BEFORE allocating. The CSR
  // re-validation below never runs if a corrupt `n`/`m` wraps `n + 1` or
  // requests absurd buffers first (a memory bomb / bad_alloc, not a clean
  // parse error).
  if (n >= kNoVertex) {
    throw std::runtime_error("load_preprocessing: corrupt vertex count");
  }
  constexpr std::uint64_t kArcBytes = sizeof(Vertex) + sizeof(Weight);
  if (m > std::numeric_limits<std::uint64_t>::max() / kArcBytes) {
    throw std::runtime_error("load_preprocessing: corrupt edge count");
  }
  // Every count must fit in the bytes the stream actually has left;
  // checked term by term so the running sum cannot overflow.
  std::optional<std::uint64_t> budget = remaining_bytes(in);
  const auto take = [&budget](std::uint64_t bytes) {
    if (!budget) return;
    if (bytes > *budget) {
      throw std::runtime_error(
          "load_preprocessing: header counts exceed input size");
    }
    *budget -= bytes;
  };
  take((static_cast<std::uint64_t>(n) + 1) * sizeof(EdgeId));
  take(m * sizeof(Vertex));
  take(m * sizeof(Weight));
  take(static_cast<std::uint64_t>(n) * sizeof(Dist));
  take(sizeof(std::uint64_t));  // the shortcut-start count
  auto offsets = get_vec<EdgeId>(in, static_cast<std::size_t>(n) + 1);
  auto targets = get_vec<Vertex>(in, m);
  auto weights = get_vec<Weight>(in, m);
  pre.radius = get_vec<Dist>(in, n);
  const auto num_starts = get<std::uint64_t>(in);
  if (num_starts != 0 && num_starts != n) {
    throw std::runtime_error("load_preprocessing: corrupt shortcut starts");
  }
  take(num_starts * sizeof(EdgeId));
  auto starts = get_vec<EdgeId>(in, num_starts);
  // Graph's constructor re-validates the CSR invariants, that every
  // shortcut start lies inside its vertex's adjacency list, and that every
  // shortcut segment is sorted by weight. An unsorted segment would keep
  // distances exact (original arcs are always relaxed) but void the k + 2
  // substep bound, which relies on the cut-off skipping only arcs that
  // land beyond d_i.
  try {
    pre.graph = Graph(std::move(offsets), std::move(targets),
                      std::move(weights), std::move(starts));
  } catch (const std::invalid_argument& err) {
    throw std::runtime_error(std::string("load_preprocessing: ") + err.what());
  }
  return pre;
}

PreprocessResult load_preprocessing_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_preprocessing: cannot open " + path);
  return load_preprocessing(in);
}

}  // namespace rs
