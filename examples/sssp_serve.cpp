// sssp_serve — the serving daemon as a binary: wraps SsspServer
// (serve/server.hpp) around a preprocessed graph and answers targeted
// shortest-path requests over stdin or TCP until told to stop.
//
//   sssp_serve                                   # built-in demo (smoke)
//   sssp_serve g.gr g.pre                        # stdin line protocol
//   sssp_serve g.gr g.pre --port 7447            # TCP line protocol
//   sssp_serve g.gr --rho 32 --k 9               # preprocess in-process
//   sssp_serve g.gr --rho 32 --k 9 --dynamic 1   # + live weight updates
//
// The daemon serves one request at a time on each of its worker threads;
// RS_THREADS sets how many. Daemon flags (integer ranges in brackets):
// --port P (TCP listener, [0, 65535]; 0, the default, serves stdin),
// --queue N (admission queue depth, [1, 2^20], default 1024), --cache
// 0|1 (hot-source result cache, default 0),
// --dynamic 0|1 (live weight updates; requires in-process preprocessing,
// default 0), --trace-sample N (trace every Nth request, [0, 2^32 - 1],
// 0 = off; default from the RS_TRACE env var), --slow-query-us N (log
// traced spans of requests slower than N us to stderr, >= 0, 0 = off),
// --flush-ms N / --flush-dirty F (with --dynamic 1: background flush
// every N ms, [0, 2^32 - 1] / once staged updates would dirty fraction F
// of all balls), --rho R / --k K (in-process preprocessing, each in
// [1, 4294967295]; default PreprocessOptions{}). An integer flag outside
// its range fails with "error: --<flag> out of range [lo, hi]: <value>",
// and any other flag with "error: unknown flag <flag>", both before the
// graph is loaded.
//
// Line protocol v2 (one request per line, stdin and TCP alike) —
// verb-prefixed commands:
//
//   q <source> <t1>[,<t2>,...]     targeted distances, e.g. "q 0 143,77,5"
//   topk <source> <k>              the k nearest vertices, e.g. "topk 0 5"
//   stats                          one-line serving counters snapshot
//   metrics [json]                 full registry export — Prometheus text
//                                  exposition (MULTI-line answer), or
//                                  single-line JSON with the `json` arg
//   epoch                          the engine's current graph epoch
//
// and, with --dynamic 1, the live-update verbs:
//
//   update <u> <v> <w>[;<u> <v> <w>...]   apply + re-preprocess + swap
//   stage <u> <v> <w>[;<u> <v> <w>...]    buffer updates, no swap yet
//   flush                                 re-preprocess staged, swap epoch
//
// plus the bare legacy form, still accepted verbatim:
//
//   <source> <t1>[,<t2>,...]       == "q <source> <t1>[,...]"
//
// `q` lines are answered with the per-target distances in input order,
// space-separated, `inf` for unreachable; staged updates stay invisible
// to them until a `flush`. `topk` lines are answered with k
// space-separated `vertex:dist` pairs, nearest first.
// `update`/`flush` answer "ok epoch=E updated=A dirty=D/T ms=X"; `stage`
// answers "staged epoch=E updated=A pending=N". Any malformed or
// rejected line gets `error: <reason>` (bad ids and out-of-range vertices
// are rejected by admission control without touching the engine). A line
// longer than 1 MiB (kMaxLineBytes) gets `error: line too long`; a TCP
// connection then closes, and stdin skips to the next newline. EOF (or
// SIGINT/SIGTERM for TCP) drains in-flight requests and prints the
// serving stats before exiting; under TCP the signal also ends idle
// connections. A TCP client that hangs up closes only its own connection.
//
// With no arguments, runs a self-contained demo: preprocesses a small
// road network, fires concurrent clients through the daemon, verifies
// every answer against direct engine.serve() calls, then churns weights
// through the dynamic service verifying against Dijkstra (staged weights
// unseen until a flush, flushed weights served), and exits non-zero on
// any mismatch — which is exactly what the CTest smoke run executes.
#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <iostream>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/dijkstra.hpp"
#include "cli_args.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/update.hpp"
#include "graph/weights.hpp"
#include "obs/trace.hpp"
#include "serve/dynamic.hpp"
#include "serve/server.hpp"
#include "shortcut/serialize.hpp"

namespace {

using namespace rs;
using namespace rs::serve;
using namespace rs::examples;

/// Strict vertex-id parse: digits only, fits a Vertex. Negative numbers,
/// garbage, and overflow all throw — admission must never mangle an id.
Vertex parse_vertex(const std::string& item) {
  if (item.empty() || item[0] == '-') {
    throw std::invalid_argument("bad vertex id: '" + item + "'");
  }
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(item, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad vertex id: '" + item + "'");
  }
  if (used != item.size() || v > std::numeric_limits<Vertex>::max()) {
    throw std::invalid_argument("bad vertex id: '" + item + "'");
  }
  return static_cast<Vertex>(v);
}

/// "<source> <t1>[,<t2>,...]" -> request. Throws on any malformed piece.
QueryRequest parse_line(const std::string& line) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) {
    throw std::invalid_argument("expected '<source> <t1>[,<t2>,...]'");
  }
  QueryRequest req;
  req.source = parse_vertex(line.substr(0, space));
  std::size_t pos = space + 1;
  while (pos <= line.size()) {
    std::size_t comma = line.find(',', pos);
    if (comma == std::string::npos) comma = line.size();
    const std::string item = line.substr(pos, comma - pos);
    if (!item.empty()) req.targets.push_back(parse_vertex(item));
    pos = comma + 1;
  }
  if (req.targets.empty()) {
    throw std::invalid_argument("at least one target required");
  }
  return req;
}

/// "<source> <k>" -> kTopK request. Throws on any malformed piece.
QueryRequest parse_topk(const std::string& rest) {
  const std::size_t space = rest.find(' ');
  if (space == std::string::npos) {
    throw std::invalid_argument("expected 'topk <source> <k>'");
  }
  QueryRequest req;
  req.kind = RequestKind::kTopK;
  req.source = parse_vertex(rest.substr(0, space));
  // parse_vertex's strict digits-and-range contract fits k as well.
  req.k = parse_vertex(rest.substr(space + 1));
  return req;
}

/// "<u> <v> <w>[;<u> <v> <w>...]" -> weight updates. Throws on any
/// malformed piece; weights share parse_vertex's strict digits contract.
std::vector<WeightUpdate> parse_updates(const std::string& rest) {
  std::vector<WeightUpdate> updates;
  std::size_t pos = 0;
  while (pos <= rest.size()) {
    std::size_t semi = rest.find(';', pos);
    if (semi == std::string::npos) semi = rest.size();
    const std::string item = rest.substr(pos, semi - pos);
    pos = semi + 1;
    if (item.empty()) continue;
    const std::size_t s1 = item.find(' ');
    const std::size_t s2 =
        s1 == std::string::npos ? std::string::npos : item.find(' ', s1 + 1);
    if (s2 == std::string::npos) {
      throw std::invalid_argument("expected '<u> <v> <w>[;...]'");
    }
    WeightUpdate up;
    up.u = parse_vertex(item.substr(0, s1));
    up.v = parse_vertex(item.substr(s1 + 1, s2 - s1 - 1));
    up.w = static_cast<Weight>(parse_vertex(item.substr(s2 + 1)));
    updates.push_back(up);
  }
  if (updates.empty()) {
    throw std::invalid_argument("expected '<u> <v> <w>[;...]'");
  }
  return updates;
}

std::string format_update_report(const rs::serve::UpdateReport& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ok epoch=%llu updated=%llu dirty=%llu/%llu ms=%.2f",
                static_cast<unsigned long long>(r.epoch),
                static_cast<unsigned long long>(r.updated_arcs),
                static_cast<unsigned long long>(r.dirty_balls),
                static_cast<unsigned long long>(r.total_balls),
                r.incremental_ms);
  return buf;
}

std::string format_targets(const QueryResponse& resp, bool topk) {
  std::string out;
  for (const TargetResult& tr : resp.targets) {
    if (!out.empty()) out += ' ';
    if (topk) {
      out += std::to_string(tr.target);
      out += ':';
    }
    out += tr.dist == kInfDist ? "inf" : std::to_string(tr.dist);
  }
  if (out.empty()) out = topk ? "none" : "";
  return out;
}

/// Serves one protocol line; always returns exactly one response line.
/// Recognizes the v2 verbs (q / topk / stats / epoch, plus the dynamic
/// update / stage / flush when `dyn` is non-null) and falls back to the
/// bare legacy "<source> <targets>" form for anything else.
std::string answer_line(SsspServer& server, rs::serve::DynamicSsspService* dyn,
                        const std::string& line) {
  const std::size_t sp = line.find(' ');
  const std::string verb = line.substr(0, sp);
  const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);

  if (verb == "stats") return format_stats_line(server);
  if (verb == "metrics") {
    std::string out = server.export_metrics(rest == "json"
                                                ? MetricsFormat::kJson
                                                : MetricsFormat::kPrometheus);
    // The front-ends append the terminating newline themselves.
    while (!out.empty() && out.back() == '\n') out.pop_back();
    return out;
  }
  if (verb == "epoch") {
    return std::to_string(server.engine_snapshot()->graph_epoch());
  }
  if (verb == "update" || verb == "stage" || verb == "flush") {
    if (dyn == nullptr) {
      return "error: dynamic verbs need --dynamic 1 (in-process "
             "preprocessing)";
    }
    try {
      if (verb == "update") {
        return format_update_report(dyn->apply_updates(parse_updates(rest)));
      }
      if (verb == "stage") {
        const rs::serve::UpdateReport r = dyn->stage(parse_updates(rest));
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "staged epoch=%llu updated=%llu pending=%llu",
                      static_cast<unsigned long long>(r.epoch),
                      static_cast<unsigned long long>(r.updated_arcs),
                      static_cast<unsigned long long>(r.staged));
        return buf;
      }
      return format_update_report(dyn->flush());
    } catch (const std::exception& e) {
      return std::string("error: ") + e.what();
    }
  }

  QueryRequest req;
  try {
    if (verb == "q") {
      req = parse_line(rest);
    } else if (verb == "topk") {
      req = parse_topk(rest);
    } else {
      req = parse_line(line);  // legacy bare form
    }
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
  const bool topk = req.kind == RequestKind::kTopK;
  std::future<QueryResponse> fut;
  const SubmitStatus status = server.submit(std::move(req), fut);
  if (status != SubmitStatus::kAccepted) {
    return std::string("error: ") + to_string(status);
  }
  return format_targets(fut.get(), topk);
}

/// Shutdown print: the SAME registry-backed line the `stats` verb answers
/// with, so the two can never drift apart.
void print_stats(const SsspServer& server) {
  std::fprintf(stderr, "sssp_serve: %s\n",
               format_stats_line(server).c_str());
}

volatile std::sig_atomic_t g_stop = 0;
int g_listen_fd = -1;

void on_signal(int) {
  g_stop = 1;
  // Closing the listener unblocks accept() so the main loop can drain.
  if (g_listen_fd >= 0) ::close(g_listen_fd);
}

/// Writes all of `reply` to a socket, looping on short writes and retrying
/// on EINTR. MSG_NOSIGNAL turns a write to a peer that hung up into an
/// EPIPE error instead of a SIGPIPE that would kill the whole daemon.
/// False on a write error.
bool send_all(int fd, const std::string& reply) {
  std::size_t sent = 0;
  while (sent < reply.size()) {
    const ssize_t n = ::send(fd, reply.data() + sent, reply.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Longest request line either front end accepts, newline excluded: a
/// client that never sends a newline cannot grow a buffer past it.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
constexpr const char* kLineTooLong = "error: line too long";

/// One connection's line loop: answers each complete line of at most
/// kMaxLineBytes, and returns on EOF, a read error, a failed write or a
/// longer line (answered with kLineTooLong first).
void serve_connection(int client, SsspServer& server,
                      rs::serve::DynamicSsspService* dyn) {
  std::string buf;  // the unanswered line so far, then newly read bytes
  char chunk[4096];
  for (;;) {
    const ssize_t got = ::read(client, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return;
    // The bytes already buffered hold no newline: search only the new ones.
    std::size_t from = buf.size();
    buf.append(chunk, static_cast<std::size_t>(got));
    std::size_t start = 0;
    bool too_long = false;
    for (std::size_t nl; (nl = buf.find('\n', from)) != std::string::npos;
         start = from = nl + 1) {
      too_long = nl - start > kMaxLineBytes;
      if (too_long) break;
      std::string line = buf.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!send_all(client, answer_line(server, dyn, line) + "\n")) return;
    }
    buf.erase(0, start);
    if (too_long || buf.size() > kMaxLineBytes) {
      send_all(client, std::string(kLineTooLong) + "\n");
      return;
    }
  }
}

/// Blocking TCP front-end: line protocol, one thread per connection. All
/// connections feed the same server, whose workers serve requests from
/// every client side by side.
int tcp_serve(SsspServer& server, rs::serve::DynamicSsspService* dyn,
              int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("sssp_serve: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    std::perror("sssp_serve: bind/listen");
    ::close(fd);
    return 1;
  }
  g_listen_fd = fd;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::fprintf(stderr, "sssp_serve: listening on port %d\n", port);

  // One entry per connection thread not yet joined. A thread marks itself
  // done before it closes its socket, so the shutdown below never reaches
  // a closed (or reused) descriptor. Each accept joins the threads that
  // are done: a finished thread keeps its stack mapped until it is
  // joined, and a long-lived daemon serves any number of connections.
  struct Conn {
    int fd = -1;
    bool done = false;
    std::thread thread;
  };
  std::mutex conns_mu;
  std::list<Conn> conns;  // a thread holds its own entry by reference
  while (g_stop == 0) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) break;  // listener closed by the signal handler
    const std::lock_guard<std::mutex> lock(conns_mu);
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->done) {
        it->thread.join();  // past its last lock: only close() is left
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
    Conn& conn = conns.emplace_back();
    conn.fd = client;
    conn.thread = std::thread([client, &conn, &server, dyn, &conns_mu] {
      serve_connection(client, server, dyn);
      {
        const std::lock_guard<std::mutex> done_lock(conns_mu);
        conn.done = true;
      }
      ::close(client);
    });
  }
  // An idle client would keep its thread in read() forever. SHUT_RD makes
  // that read return 0; a line being answered still gets its reply.
  {
    const std::lock_guard<std::mutex> lock(conns_mu);
    for (const Conn& conn : conns) {
      if (!conn.done) ::shutdown(conn.fd, SHUT_RD);
    }
  }
  for (Conn& conn : conns) conn.thread.join();
  if (g_stop == 0) ::close(fd);
  return 0;
}

/// Reads the next line of `in` into `line`, without its newline. Returns
/// false at the end of input with nothing read. A line longer than
/// kMaxLineBytes is consumed through its newline and comes back empty
/// with `too_long` set.
bool read_line(std::istream& in, std::string& line, bool& too_long) {
  line.clear();
  too_long = false;
  std::streambuf& sb = *in.rdbuf();
  for (int c = sb.sbumpc(); c != std::char_traits<char>::eof();
       c = sb.sbumpc()) {
    if (c == '\n') return true;
    if (too_long) continue;
    if (line.size() == kMaxLineBytes) {
      too_long = true;
      line.clear();
      continue;
    }
    line.push_back(static_cast<char>(c));
  }
  return too_long || !line.empty();
}

/// Stdin front-end: one request line in, one response line out.
int stdio_serve(SsspServer& server, rs::serve::DynamicSsspService* dyn) {
  std::string line;
  bool too_long = false;
  while (read_line(std::cin, line, too_long)) {
    if (too_long) {
      std::printf("%s\n", kLineTooLong);
      std::fflush(stdout);
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::printf("%s\n", answer_line(server, dyn, line).c_str());
    std::fflush(stdout);
  }
  return 0;
}

/// No-argument mode: a self-verifying concurrent demo of the daemon.
int demo() {
  Graph g = gen::road_network(24, 24, /*seed=*/3);
  g = assign_uniform_weights(g, /*seed=*/10, 1, 1000);
  PreprocessOptions popts;
  popts.rho = 16;
  popts.k = 2;
  const SsspEngine engine(g, popts);

  ServerOptions opts;
  opts.queue_capacity = 256;
  opts.enable_cache = true;  // demo doubles as a cache-coherence smoke
  SsspServer server(engine, opts);

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // Sources cycle through a pool of 8, so the cache both misses
        // (first touch) and hits (revisits) under concurrency; cached
        // answers must still match direct engine serves bit for bit.
        QueryRequest req;
        req.source = static_cast<Vertex>((c * 131 + i * 17) % 8);
        req.targets = {static_cast<Vertex>((c * 7 + i * 53) %
                                           engine.original_graph()
                                               .num_vertices())};
        const QueryResponse got = server.serve_sync(req);
        const QueryResponse want = engine.serve(req);
        if (got.targets[0].dist != want.targets[0].dist) {
          mismatches.fetch_add(1);
        }
        // Every 8th request doubles as a top-k probe.
        if (i % 8 == 0) {
          QueryRequest tk;
          tk.kind = RequestKind::kTopK;
          tk.source = req.source;
          tk.k = 5;
          const QueryResponse got_k = server.serve_sync(tk);
          const QueryResponse want_k = engine.serve(tk);
          if (got_k.targets.size() != want_k.targets.size()) {
            mismatches.fetch_add(1);
          } else {
            for (std::size_t j = 0; j < got_k.targets.size(); ++j) {
              if (got_k.targets[j].target != want_k.targets[j].target ||
                  got_k.targets[j].dist != want_k.targets[j].dist) {
                mismatches.fetch_add(1);
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.drain();
  print_stats(server);
  server.shutdown();

  const ServerStats s = server.stats();
  constexpr int kTotal =
      kClients * kPerClient + kClients * (kPerClient / 8);  // + topk probes
  const bool counters_ok = s.accepted == kTotal && s.in_flight() == 0;
  // 8 hot sources under 72 eligible-or-probe requests: the cache must
  // have produced hits (misses alone would mean the keying is broken).
  const bool cache_ok = s.cache_hits > 0;
  if (mismatches.load() != 0 || !counters_ok || !cache_ok) {
    std::fprintf(stderr,
                 "sssp_serve demo: FAILED (%d mismatches, hits=%llu)\n",
                 mismatches.load(),
                 static_cast<unsigned long long>(s.cache_hits));
    return 1;
  }
  std::printf("sssp_serve demo: %d requests across %d clients, all "
              "verified (%llu cache hits)\n",
              kTotal, kClients,
              static_cast<unsigned long long>(s.cache_hits));

  // Dynamic segment: churn weights through the live-update service. Each
  // round stages a batch (the daemon must keep answering from the
  // published weights), then flushes (the swapped epoch must answer from
  // the mutated ones).
  rs::serve::DynamicSsspService::Options dopts;
  dopts.preprocess = popts;
  dopts.server = opts;
  rs::serve::DynamicSsspService dyn(g, dopts);
  Graph shadow = g;
  std::mt19937 rng(77);
  std::uniform_int_distribution<Weight> wdist(1, 1000);
  int dyn_mismatches = 0;
  // Counts the answers to `reqs` that differ from Dijkstra on `truth`.
  const auto count_mismatches = [&dyn](const std::vector<QueryRequest>& reqs,
                                       const Graph& truth) {
    int wrong = 0;
    for (const QueryRequest& req : reqs) {
      const std::vector<Dist> want = dijkstra(truth, req.source);
      const QueryResponse got = dyn.server().serve_sync(req);
      for (std::size_t j = 0; j < req.targets.size(); ++j) {
        if (got.targets[j].dist != want[req.targets[j]]) ++wrong;
      }
    }
    return wrong;
  };
  for (int round = 0; round < 3; ++round) {
    std::uniform_int_distribution<EdgeId> adist(0, shadow.num_edges() - 1);
    std::vector<WeightUpdate> batch;
    for (int i = 0; i < 4; ++i) {
      const EdgeId e = adist(rng);
      Vertex u = 0;
      while (shadow.last_arc(u) <= e) ++u;
      batch.push_back(WeightUpdate{u, shadow.arc_target(e), wdist(rng)});
    }
    const Graph published = std::move(shadow);
    shadow = apply_weight_updates(published, batch).graph;
    dyn.stage(batch);
    const std::vector<Vertex> sources = {0, 99};
    std::vector<QueryRequest> reqs;
    for (const Vertex source : sources) {
      QueryRequest req;
      req.source = source;
      req.targets.push_back(static_cast<Vertex>(round * 37 + 11));
      req.targets.push_back(static_cast<Vertex>(shadow.num_vertices() - 1));
      reqs.push_back(std::move(req));
    }
    // Staged but not flushed: the published epoch still answers.
    dyn_mismatches += count_mismatches(reqs, published);
    dyn.flush();
    // Swapped epoch: the daemon serves the new weights natively.
    dyn_mismatches += count_mismatches(reqs, shadow);
  }
  const std::uint64_t final_epoch = dyn.server().stats().epoch;
  if (dyn_mismatches != 0 || final_epoch < 2) {
    std::fprintf(stderr,
                 "sssp_serve demo: dynamic FAILED (%d mismatches, "
                 "epoch=%llu)\n",
                 dyn_mismatches,
                 static_cast<unsigned long long>(final_epoch));
    return 1;
  }
  std::printf("sssp_serve demo: dynamic churn verified across %llu "
              "epoch swaps\n",
              static_cast<unsigned long long>(final_epoch - 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv, 1);
  if (args.positional().empty()) return demo();

  try {
    // Every integer flag is range-checked before it is narrowed: a
    // negative or oversized value is refused, never wrapped.
    constexpr long kMaxDepth = 1L << 20;
    constexpr long kMaxU32 = std::numeric_limits<std::uint32_t>::max();
    constexpr long kMaxLong = std::numeric_limits<long>::max();
    ServerOptions opts;
    opts.queue_capacity = static_cast<std::size_t>(
        get_checked(args, "--queue", 1024, 1, kMaxDepth));
    opts.enable_cache = get_checked(args, "--cache", 0, 0, 1) != 0;
    const long trace_env = rs::obs::trace_sample_from_env();
    opts.trace_sample = static_cast<std::uint32_t>(
        get_checked(args, "--trace-sample", trace_env, 0, kMaxU32));
    opts.slow_query_us = static_cast<std::uint64_t>(
        get_checked(args, "--slow-query-us", 0, 0, kMaxLong));

    PreprocessOptions popts;
    popts.rho = static_cast<Vertex>(
        get_checked(args, "--rho", popts.rho, 1, kMaxVertex));
    popts.k =
        static_cast<Vertex>(get_checked(args, "--k", popts.k, 1, kMaxVertex));

    rs::serve::DynamicSsspService::Options dopts;
    dopts.preprocess = popts;
    dopts.server = opts;
    dopts.flush_interval_ms = static_cast<std::uint32_t>(
        get_checked(args, "--flush-ms", 0, 0, kMaxU32));
    dopts.flush_dirty_fraction =
        get_checked_real(args, "--flush-dirty", 0, 0, 1);
    const bool dynamic = get_checked(args, "--dynamic", 0, 0, 1) != 0;
    const int port = static_cast<int>(get_checked(args, "--port", 0, 0, 65535));
    args.reject_unread();

    const std::string graph_path = args.positional()[0];
    Graph g = graph_path.size() > 3 &&
                      graph_path.substr(graph_path.size() - 3) == ".gr"
                  ? io::read_dimacs_file(graph_path)
                  : io::read_edge_list_file(graph_path);

    // --dynamic needs the preprocessor's warm state, so it is only
    // available on the in-process preprocessing path; a loaded .pre file
    // serves the static flow unchanged.
    std::unique_ptr<rs::serve::DynamicSsspService> dyn;
    std::unique_ptr<SsspServer> static_server;
    if (dynamic) {
      if (args.positional().size() >= 2) {
        throw std::invalid_argument(
            "--dynamic 1 requires in-process preprocessing (omit the "
            ".pre file)");
      }
      dyn = std::make_unique<rs::serve::DynamicSsspService>(std::move(g),
                                                            dopts);
    } else {
      auto engine = args.positional().size() >= 2
                        ? std::make_shared<const SsspEngine>(
                              std::move(g),
                              load_preprocessing_file(args.positional()[1]))
                        : std::make_shared<const SsspEngine>(std::move(g),
                                                             popts);
      static_server =
          std::make_unique<SsspServer>(std::move(engine), opts);
    }
    SsspServer& server = dyn != nullptr ? dyn->server() : *static_server;

    const int rc = port > 0 ? tcp_serve(server, dyn.get(), port)
                            : stdio_serve(server, dyn.get());
    server.drain();
    print_stats(server);
    server.shutdown();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
