// The three workloads and the layer probes their traced runs share.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "loadgen.hpp"
#include "serve/server.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< Where a traced run writes its spans.
};

/// Names and units of the end-to-end metrics, in EndToEnd field order.
inline constexpr std::array<std::pair<const char*, const char*>, 6> kEndToEndMetrics = {{
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"tail_ms", "ms"},
    {"aux_p50_ms", "ms"},
    {"aux_tail_ms", "ms"},
    {"rate_qps", "1/s"},
}};

/// The end-to-end metrics every workload reports (see README.md for what
/// each one is on each workload).
struct EndToEnd {
  double setup_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double aux_p50_ms = 0.0;
  double aux_tail_ms = 0.0;
  double rate_qps = 0.0;
};

/// Adds the six end-to-end metrics to `report`.
void put_end_to_end(Report& report, const EndToEnd& e);
/// Adds overhead.<metric> = traced - untraced for each end-to-end metric.
void put_overhead(Report& report, const EndToEnd& traced, const EndToEnd& untraced);

/// Work and time of one engine on one graph, measured from outside.
struct EngineProbe {
  std::string graph;
  double arc_inflation = 0.0;
  // RunStats means over full-distance queries at the default worker count.
  double steps = 0.0;
  double substeps = 0.0;
  double settled_per_substep = 0.0;
  double max_substeps_in_step = 0.0;
  double relax_per_settled = 0.0;
  double wasted_relax_frac = 0.0;
  // Medians (ms) of full-distance queries at 1, 2 and 4 workers.
  double full_ms_1t = 0.0;
  double full_ms_2t = 0.0;
  double full_ms_4t = 0.0;
  double dijkstra_ms = 0.0;        ///< Warm-context dijkstra, original graph.
  double delta_stepping_ms = 0.0;  ///< Warm-context delta_stepping.
  double p2p_us = 0.0;             ///< Median warm targeted serve.
  double p2p_touched = 0.0;        ///< Mean RunStats::touched of those.
};

/// Runs full-distance queries from `sources` (default workers, then 1, 2
/// and 4 workers), warm dijkstra and delta_stepping from the same sources
/// on the original graph, and `p2p_count` targeted serves (sources cycling
/// over `sources`, targets from `streams`). Every answer is checked
/// against dijkstra; mismatches and substep-bound violations go to
/// `report` under phase `phase`.
EngineProbe probe_engine(const std::string& graph, const rs::SsspEngine& engine,
                         const std::vector<rs::Vertex>& sources,
                         const RequestStreams& streams, std::size_t p2p_count,
                         SpanLog& log, Report& report, const std::string& phase);

/// Adds the engine.* and baseline.* per-layer metrics for `p`.
void put_engine_probe(Report& report, const EngineProbe& p);

/// Prints the "Measured state" table rows for `probes`.
void print_measured_state(const std::vector<EngineProbe>& probes);

/// Server station percentiles (server.<station>_us_p50/p99) and
/// server.outside_engine_frac over every station span in `log`.
void put_station_metrics(Report& report, const SpanLog& log);

/// Checks RunStats against Theorem 3.2 (max substeps per step <= k + 2).
bool substeps_within_bound(const rs::RunStats& stats, const rs::SsspEngine& engine);

/// Records one request's spans under id `request_id`: the request span
/// itself (due -> done), the wait on its future, and the server's
/// TraceBuffer stations as children.
void record_request(SpanLog& log, std::uint64_t request_id, const rs::QueryResponse& resp,
                    Clock::time_point due, Clock::time_point wait_start,
                    Clock::time_point done);

/// Checks one completed point query; returns false when the answer is
/// wrong. Runs on the collector thread.
using CheckFn =
    std::function<bool(std::uint64_t i, const PointQuery& q, const rs::QueryResponse& resp)>;

/// Offers the point queries query_at(0), query_at(1), ... to `server` open
/// loop per `options`, checks every response, and books the outcome under
/// `counts`. With a non-null `log` each request leaves a request span with
/// its submit, wait and server-station spans as children.
OpenLoopResult offer_point_queries(rs::serve::SsspServer& server,
                                   const OpenLoopOptions& options,
                                   const std::function<PointQuery(std::uint64_t)>& query_at,
                                   const CheckFn& check, PhaseCounts& counts, Report& report,
                                   SpanLog* log);

void run_road_p2p(const RunArgs& args, Report& report, SpanLog& log);
void run_sssp_full(const RunArgs& args, Report& report, SpanLog& log);
void run_road_churn(const RunArgs& args, Report& report, SpanLog& log);

}  // namespace perfbench
