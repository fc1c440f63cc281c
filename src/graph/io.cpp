#include "graph/io.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"

namespace rs::io {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("graph io: " + what);
}

// Ids and weights are read as 64-bit values and narrowed to 32 bits; one
// past these bounds would wrap into a different, valid-looking edge.
constexpr std::uint64_t kMaxId = kNoVertex - 1;
constexpr std::int64_t kMaxWeight = std::numeric_limits<Weight>::max();

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open " + path);
  return in;
}
}  // namespace

Graph read_dimacs(std::istream& in) {
  std::string line;
  Vertex n = 0;
  bool have_header = false;
  std::vector<EdgeTriple> edges;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char tag = 0;
    ls >> tag;
    if (tag == 'p') {
      std::string kind;
      EdgeId m = 0;
      ls >> kind >> n >> m;
      if (!ls || kind != "sp") {
        fail("bad problem line at " + std::to_string(lineno));
      }
      have_header = true;
      edges.reserve(m);
    } else if (tag == 'a') {
      if (!have_header) fail("arc before problem line");
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      std::int64_t w = 0;
      ls >> u >> v >> w;
      if (!ls || u == 0 || v == 0 || u > n || v > n || w < 0 ||
          w > kMaxWeight) {
        fail("bad arc at line " + std::to_string(lineno));
      }
      edges.push_back({static_cast<Vertex>(u - 1), static_cast<Vertex>(v - 1),
                       static_cast<Weight>(w)});
    } else {
      fail("unknown line tag at " + std::to_string(lineno));
    }
  }
  if (!have_header) fail("missing problem line");
  return build_graph(n, std::move(edges));
}

Graph read_dimacs_file(const std::string& path) {
  auto in = open_in(path);
  return read_dimacs(in);
}

void write_dimacs(const Graph& g, std::ostream& out) {
  out << "c generated by radius-stepping library\n";
  out << "p sp " << g.num_vertices() << ' ' << g.num_undirected_edges() << '\n';
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      if (u < v) {
        out << "a " << (u + 1) << ' ' << (v + 1) << ' ' << g.arc_weight(e)
            << '\n';
      }
    }
  }
}

void write_dimacs_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open " + path + " for writing");
  write_dimacs(g, out);
}

Graph read_edge_list(std::istream& in, Vertex n_hint) {
  std::vector<EdgeTriple> edges;
  Vertex max_id = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    std::int64_t w = 1;
    if (!(ls >> u >> v)) fail("bad edge-list line: " + line);
    ls >> w;  // optional
    if (w < 0) fail("negative weight: " + line);
    if (u > kMaxId || v > kMaxId) fail("vertex id out of range: " + line);
    if (w > kMaxWeight) fail("weight out of range: " + line);
    edges.push_back({static_cast<Vertex>(u), static_cast<Vertex>(v),
                     static_cast<Weight>(w)});
    max_id = std::max<Vertex>(max_id, static_cast<Vertex>(std::max(u, v)));
  }
  const Vertex n = std::max<Vertex>(n_hint, edges.empty() ? 0 : max_id + 1);
  return build_graph(n, std::move(edges));
}

Graph read_edge_list_file(const std::string& path, Vertex n_hint) {
  auto in = open_in(path);
  return read_edge_list(in, n_hint);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (EdgeId e = g.first_arc(u); e < g.last_arc(u); ++e) {
      const Vertex v = g.arc_target(e);
      if (u < v) out << u << ' ' << v << ' ' << g.arc_weight(e) << '\n';
    }
  }
}

}  // namespace rs::io
