// Open-loop point queries against an SsspServer, shared by road-p2p and
// road-churn.
#include <cmath>

#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

OpenLoopResult offer_point_queries(rs::serve::SsspServer& server,
                                   const OpenLoopOptions& options,
                                   const std::function<PointQuery(std::uint64_t)>& query_at,
                                   const CheckFn& check, PhaseCounts& counts, Report& report,
                                   SpanLog* log) {
  const auto total = static_cast<std::size_t>(std::ceil(options.rate * options.seconds));
  std::vector<PointQuery> queries(total);
  for (std::size_t i = 0; i < total; ++i) queries[i] = query_at(i);
  std::vector<std::uint64_t> span_ids(log != nullptr ? total : 0);
  const rs::Vertex k = server.engine_snapshot()->preprocessing().options.k;

  std::uint64_t wrong = 0;
  std::uint64_t bound_violations = 0;
  SpanLog collector_log;
  const SubmitFn submit = [&](std::uint64_t i, std::future<rs::QueryResponse>& out) {
    rs::QueryRequest req;
    req.source = queries[i].source;
    req.targets = {queries[i].target};
    if (log == nullptr) {
      return server.submit(std::move(req), out) == rs::serve::SubmitStatus::kAccepted;
    }
    span_ids[i] = SpanLog::next_id();
    const Clock::time_point t0 = Clock::now();
    const bool accepted =
        server.submit(std::move(req), out) == rs::serve::SubmitStatus::kAccepted;
    log->add("submit", t0, Clock::now(), span_ids[i], span_ids[i]);
    return accepted;
  };
  const CompleteFn complete = [&](std::uint64_t i, rs::QueryResponse& resp,
                                  Clock::time_point due, Clock::time_point wait_start,
                                  Clock::time_point done) {
    if (!check(i, queries[i], resp)) ++wrong;
    if (resp.stats.max_substeps_in_step > k + 2) ++bound_violations;
    if (log != nullptr) record_request(collector_log, span_ids[i], resp, due, wait_start, done);
  };
  OpenLoopResult r = run_open_loop(options, submit, complete);

  counts.sent += r.sent;
  counts.rejected += r.rejected;
  counts.errors += r.errors;
  counts.wrong += wrong;
  counts.ok += r.accepted - r.errors - wrong;
  if (bound_violations != 0) {
    report.violation(counts.phase + ": " + std::to_string(bound_violations) +
                     " responses with max_substeps_in_step > k+2");
  }
  if (log != nullptr) log->append(collector_log);
  return r;
}

}  // namespace perfbench
