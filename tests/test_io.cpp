#include "graph/io.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/weights.hpp"

namespace rs {
namespace {

TEST(Dimacs, ParsesWellFormedInput) {
  std::istringstream in(
      "c a comment\n"
      "p sp 3 2\n"
      "a 1 2 5\n"
      "a 2 3 7\n");
  const Graph g = io::read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 2u);
  EXPECT_EQ(g.arc_weight(g.first_arc(0)), 5u);
}

TEST(Dimacs, RoundTripPreservesGraph) {
  const Graph g = assign_uniform_weights(gen::grid2d(12, 9), 5);
  std::ostringstream out;
  io::write_dimacs(g, out);
  std::istringstream in(out.str());
  const Graph g2 = io::read_dimacs(in);
  EXPECT_EQ(g.with_target_sorted_adjacency(),
            g2.with_target_sorted_adjacency());
}

TEST(Dimacs, RejectsMissingHeader) {
  std::istringstream in("a 1 2 5\n");
  EXPECT_THROW(io::read_dimacs(in), std::runtime_error);
}

TEST(Dimacs, RejectsOutOfRangeVertex) {
  std::istringstream in("p sp 2 1\na 1 3 5\n");
  EXPECT_THROW(io::read_dimacs(in), std::runtime_error);
}

TEST(Dimacs, RejectsZeroBasedVertex) {
  std::istringstream in("p sp 2 1\na 0 1 5\n");
  EXPECT_THROW(io::read_dimacs(in), std::runtime_error);
}

TEST(Dimacs, RejectsUnknownTag) {
  std::istringstream in("p sp 2 1\nx 1 2 5\n");
  EXPECT_THROW(io::read_dimacs(in), std::runtime_error);
}

// The message a reader throws for `text`, or "" if it loads.
template <typename Reader>
std::string read_error(Reader read, const std::string& text) {
  std::istringstream in(text);
  try {
    read(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Dimacs, RejectsWeightBeyond32Bits) {
  // 4294967301 = 2^32 + 5 used to load as weight 5.
  const auto read = [](std::istream& in) { return io::read_dimacs(in); };
  EXPECT_EQ(read_error(read, "p sp 2 1\na 1 2 4294967301\n"),
            "graph io: bad arc at line 2");
  std::istringstream in("p sp 2 1\na 1 2 4294967295\n");  // the max loads
  const Graph g = io::read_dimacs(in);
  EXPECT_EQ(g.arc_weight(g.first_arc(0)), 4294967295u);
}

TEST(Dimacs, EmptyBodyIsValid) {
  std::istringstream in("p sp 4 0\n");
  const Graph g = io::read_dimacs(in);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(EdgeList, ParsesWithAndWithoutWeights) {
  std::istringstream in(
      "# comment\n"
      "% another\n"
      "0 1 5\n"
      "1 2\n");
  const Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.arc_weight(g.first_arc(0)), 5u);
  // Missing weight defaults to 1.
  bool found = false;
  for (EdgeId e = g.first_arc(1); e < g.last_arc(1); ++e) {
    if (g.arc_target(e) == 2) {
      EXPECT_EQ(g.arc_weight(e), 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EdgeList, HonorsVertexCountHint) {
  std::istringstream in("0 1\n");
  const Graph g = io::read_edge_list(in, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
}

TEST(EdgeList, RoundTrip) {
  const Graph g = assign_uniform_weights(gen::road_network(10, 10, 2), 3);
  std::ostringstream out;
  io::write_edge_list(g, out);
  std::istringstream in(out.str());
  const Graph g2 = io::read_edge_list(in, g.num_vertices());
  EXPECT_EQ(g.with_target_sorted_adjacency(),
            g2.with_target_sorted_adjacency());
}

TEST(EdgeList, RejectsGarbageLine) {
  std::istringstream in("zero one\n");
  EXPECT_THROW(io::read_edge_list(in), std::runtime_error);
}

TEST(EdgeList, RejectsIdOrWeightBeyond32Bits) {
  // Each used to wrap: 4294967296 = 2^32 loaded as vertex 0 (so the
  // second edge became (1, 0, 3)), and 4294967295 is kNoVertex.
  const auto read = [](std::istream& in) { return io::read_edge_list(in); };
  EXPECT_EQ(read_error(read, "0 1 5\n1 4294967296 3\n"),
            "graph io: vertex id out of range: 1 4294967296 3");
  EXPECT_EQ(read_error(read, "4294967295 0\n"),
            "graph io: vertex id out of range: 4294967295 0");
  EXPECT_EQ(read_error(read, "0 1 4294967296\n"),
            "graph io: weight out of range: 0 1 4294967296");
  std::istringstream in("0 1 4294967295\n");  // the max weight loads
  const Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.arc_weight(g.first_arc(0)), 4294967295u);
}

TEST(File, MissingFileThrows) {
  EXPECT_THROW(io::read_dimacs_file("/nonexistent/file.gr"),
               std::runtime_error);
  EXPECT_THROW(io::read_edge_list_file("/nonexistent/file.txt"),
               std::runtime_error);
}

TEST(File, WriteReadRoundTrip) {
  const Graph g = assign_uniform_weights(gen::grid2d(6, 6), 8);
  const std::string path = ::testing::TempDir() + "/rs_io_test.gr";
  io::write_dimacs_file(g, path);
  const Graph g2 = io::read_dimacs_file(path);
  EXPECT_EQ(g.with_target_sorted_adjacency(),
            g2.with_target_sorted_adjacency());
}

}  // namespace
}  // namespace rs
