// perfbench: the service benchmark of the radius-stepping library.
//
//   perfbench --workload road-p2p|sssp-full|road-churn --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//
// Drives the library's public API in-process as a user would, checks every
// answer, and prints a report whose last line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics; with --trace 1 the run also makes a
// traced pass and prints the per-layer metrics (the JSON then carries
// those), the reproduced "Measured state" table and the tracing overhead.
// Exits non-zero on any wrong answer or Theorem 3.2 violation.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Report;

// Per-layer metrics and their units; with perfbench::kEndToEndMetrics,
// must match BENCHMARK.json. A workload that does not exercise a
// layer reports 0 for it (e.g. server.* on sssp-full, dyn.* on road-p2p).
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"graph.build_s", "s"},
    {"shortcut.preprocess_s", "s"},
    {"shortcut.arc_inflation", "count"},
    {"engine.steps", "count"},
    {"engine.substeps", "count"},
    {"engine.settled_per_substep", "count"},
    {"engine.max_substeps_in_step", "count"},
    {"engine.relax_per_settled", "count"},
    {"engine.wasted_relax_frac", "frac"},
    {"engine.p2p_us", "us"},
    {"engine.p2p_touched", "count"},
    {"engine.full_ms_1t", "ms"},
    {"engine.full_ms_2t", "ms"},
    {"engine.full_ms_4t", "ms"},
    {"engine.self_speedup_4t", "x"},
    {"engine.speedup_vs_dijkstra", "x"},
    {"engine.p2p_speedup_vs_dijkstra", "x"},
    {"baseline.dijkstra_ms", "ms"},
    {"baseline.delta_stepping_ms", "ms"},
    {"web.preprocess_s", "s"},
    {"web.arc_inflation", "count"},
    {"web.substeps", "count"},
    {"web.wasted_relax_frac", "frac"},
    {"web.full_ms_1t", "ms"},
    {"web.full_ms_4t", "ms"},
    {"web.self_speedup_4t", "x"},
    {"web.dijkstra_ms", "ms"},
    {"web.delta_stepping_ms", "ms"},
    {"web.speedup_vs_dijkstra", "x"},
    {"server.admission_us_p50", "us"},
    {"server.admission_us_p99", "us"},
    {"server.queue_wait_us_p50", "us"},
    {"server.queue_wait_us_p99", "us"},
    {"server.batch_form_us_p50", "us"},
    {"server.batch_form_us_p99", "us"},
    {"server.engine_us_p50", "us"},
    {"server.engine_us_p99", "us"},
    {"server.respond_us_p50", "us"},
    {"server.respond_us_p99", "us"},
    {"server.outside_engine_frac", "frac"},
    {"server.mean_batch", "count"},
    {"server.shed_frac", "frac"},
    {"cache.hit_rate", "frac"},
    {"cache.single_flight_waits", "count"},
    {"cache.hit_us_p50", "us"},
    {"cache.miss_us_p50", "us"},
    {"dyn.flush_ms.b1", "ms"},
    {"dyn.flush_ms.b8", "ms"},
    {"dyn.flush_ms.b64", "ms"},
    {"dyn.dirty_ball_frac.b64", "frac"},
    {"dyn.cold_rebuild_ms", "ms"},
    {"dyn.rebuild_speedup.b1", "x"},
    {"dyn.rebuild_speedup.b8", "x"},
    {"dyn.rebuild_speedup.b64", "x"},
    {"loadgen.lag_ms_p99", "ms"},
    {"overhead.setup_s", "s"},
    {"overhead.p50_ms", "ms"},
    {"overhead.tail_ms", "ms"},
    {"overhead.aux_p50_ms", "ms"},
    {"overhead.aux_tail_ms", "ms"},
    {"overhead.rate_qps", "1/s"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload road-p2p|sssp-full|road-churn "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") usage("bad --trace");
      args.trace = t == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("missing --workload");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d %s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, perfbench::machine_fingerprint().c_str());
  Report report;
  perfbench::SpanLog log;
  try {
    if (args.workload == "road-p2p") {
      perfbench::run_road_p2p(args, report, log);
    } else if (args.workload == "sssp-full") {
      perfbench::run_sssp_full(args, report, log);
    } else if (args.workload == "road-churn") {
      perfbench::run_road_churn(args, report, log);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::vector<std::string> json_metrics;
  for (const auto& [name, unit] : perfbench::kEndToEndMetrics) json_metrics.push_back(name);
  if (args.trace) {
    json_metrics.clear();
    for (const auto& [name, unit] : kPerLayer) {
      if (!report.has(name)) report.metric(name, 0.0, unit);
      json_metrics.push_back(name);
    }
    if (!args.spans_path.empty()) {
      if (log.write_jsonl(args.spans_path)) {
        std::printf("wrote %zu spans to %s\n", log.spans().size(), args.spans_path.c_str());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
      }
    }
  }
  for (const auto& [name, unit] : perfbench::kEndToEndMetrics) {
    if (!report.has(name)) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s missing\n", name);
      return 1;
    }
  }
  report.print(json_metrics);
  return report.correct() ? 0 : 1;
}
