#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "graph/generators.hpp"
#include "graph/weights.hpp"
#include "parallel/primitives.hpp"
#include "parallel/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double median_over_rounds(const std::vector<std::vector<double>>& rounds, double q) {
  std::vector<double> per_round;
  for (const std::vector<double>& r : rounds) {
    if (!r.empty()) per_round.push_back(quantile(r, q));
  }
  return median(per_round);
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

PhaseCounts& Report::phase(const std::string& name) {
  for (PhaseCounts& p : phases_) {
    if (p.phase == name) return p;
  }
  phases_.push_back(PhaseCounts{});
  phases_.back().phase = name;
  return phases_.back();
}

void Report::violation(const std::string& what) { violations_.push_back(what); }

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const PhaseCounts& p : phases_) n += p.sent;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const PhaseCounts& p : phases_) n += p.failed();
  return n;
}

void Report::print(const std::vector<std::string>& json_metrics) const {
  std::printf("\n%-28s %9s %9s %9s %9s %9s\n", "phase", "sent", "ok", "rejected",
              "errors", "wrong");
  for (const PhaseCounts& p : phases_) {
    std::printf("%-28s %9llu %9llu %9llu %9llu %9llu\n", p.phase.c_str(),
                static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.errors),
                static_cast<unsigned long long>(p.wrong));
  }
  const std::uint64_t att = attempted();
  std::printf("fail_frac %.6g (%llu of %llu)\n",
              att == 0 ? 0.0 : static_cast<double>(failed()) / static_cast<double>(att),
              static_cast<unsigned long long>(failed()),
              static_cast<unsigned long long>(att));
  for (const std::string& v : violations_) std::printf("VIOLATION: %s\n", v.c_str());

  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics_) {
    std::printf("%-36s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(att);
  json += ", \"failed\": " + std::to_string(failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_metrics) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics_) {
      if (m.name == name) found = &m;
    }
    if (found == nullptr) continue;
    char buf[96];
    const double v = std::isfinite(found->value) ? found->value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += first ? "" : ", ";
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            found->unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::uint64_t SpanLog::next_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t SpanLog::add(std::string name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::uint64_t request, std::int64_t arg) {
  return add_ns(std::move(name), to_ns(start), to_ns(end), parent, request, arg);
}

std::uint64_t SpanLog::add_ns(std::string name, std::uint64_t start_ns,
                              std::uint64_t end_ns, std::uint64_t parent,
                              std::uint64_t request, std::int64_t arg, std::uint64_t id) {
  Span s;
  s.name = std::move(name);
  s.id = id != 0 ? id : next_id();
  s.parent = parent;
  s.request = request;
  s.start_ns = start_ns;
  s.end_ns = std::max(start_ns, end_ns);
  s.arg = arg;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::append(const SpanLog& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_ms());
  }
  return out;
}

std::vector<double> SpanLog::durations_ms(const std::string& name,
                                          std::int64_t arg) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.arg == arg) out.push_back(s.duration_ms());
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"arg\":" << s.arg << "}\n";
  }
  return static_cast<bool>(out);
}

void fork_join(std::size_t count, unsigned threads,
               const std::function<void(std::size_t)>& body) {
  threads = std::max(1u, std::min<unsigned>(threads, static_cast<unsigned>(
                                                         std::max<std::size_t>(count, 1))));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        body(i);
      }
    });
  }
  for (std::thread& th : pool) th.join();
}

unsigned load_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

rs::Graph road_graph(rs::Vertex side) {
  return rs::assign_uniform_weights(rs::gen::road_network(side, side, 101), 999, 1,
                                    rs::kPaperMaxWeight);
}

rs::Graph web_graph(rs::Vertex n) {
  return rs::assign_uniform_weights(rs::gen::web_graph(n, 10, 404), 999, 1,
                                    rs::kPaperMaxWeight);
}

std::uint64_t hash_dist(const std::vector<rs::Dist>& d) {
  std::uint64_t h = rs::hash64(d.size());
  for (const rs::Dist x : d) h = rs::hash64(h ^ x);
  return h;
}

std::uint64_t hash_weights(const rs::Graph& g) {
  std::uint64_t h = rs::hash64(g.num_edges());
  for (const rs::Weight w : g.weights()) h = rs::hash64(h ^ w);
  return h;
}

std::string machine_fingerprint() {
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " build=" + PERFBENCH_BUILD_TYPE +
         " workers=" + std::to_string(rs::num_workers());
}

}  // namespace perfbench
