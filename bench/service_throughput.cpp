// Load generator for the composition daemon (src/service): N concurrent
// sessions fire randomized edit streams (moves, swaps, skews) interleaved
// with timing queries over the daemon's unix socket -- the transport real
// clients use -- and the bench reports aggregate edits/sec plus
// p50/p95/p99 query latency per client model.
//
// Client models:
//   serial_baseline:  one session, one synchronous client -- every request
//                     is a blocking socket round-trip (send one line, wait
//                     for its response). This is the "serial single-session
//                     baseline" the concurrent configurations must beat.
//   pipelined_*:      clients write a burst of requests in one send() and
//                     then read the burst's responses, so per-request
//                     syscalls and thread wakeups are amortized.
//
// Every configuration talks to an identically configured daemon (same
// `jobs`), runs the same total number of rounds (split across its
// sessions, so every run covers a comparable wall-time window), and every
// session opens the same design. Edit streams are constructed to be always
// valid (absolute moves clamped by the largest footprint in the swap
// family, swaps within the same function/bits/scan family), and the bench
// fails if any request errors.
//
// The host's background load drifts on a seconds timescale, so a single
// pass per config confounds configuration effects with noise windows.
// Repetitions are interleaved (every config samples every window) and each
// config reports its best repetition.
//
// A second study, the design-size axis, holds the traffic fixed and grows
// the design: one session per size (3k, 30k and 300k registers by default,
// --sizes to override) replays the same local-edit transcript shape, and
// the bench reports query_timing and recompose_region p50/p99 per size. A
// recompose runs on the session's kept compatibility graph, so its latency
// should follow the edited region, not the design. A query repairs the
// edited cones and re-files the endpoints whose failing slack moved (an
// exact TNS update and a min-tree path each), so its latency follows the
// cones, not the failing endpoints; the point records both endpoint counts
// and the endpoints re-filed and min-tree nodes folded per query.
//
// Results go to BENCH_service_throughput.json (or argv[1]) with
// "schema": 1.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "geom/rect.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "service/daemon.hpp"
#include "service/socket_server.hpp"
#include "util/rng.hpp"

using namespace mbrc;

namespace {

using Clock = std::chrono::steady_clock;

double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Settings {
  std::string out_path = "BENCH_service_throughput.json";
  int registers = 32;       // per-session design size (custom profile)
  // Rounds per repetition, SPLIT across a config's sessions (1 round =
  // 1 edit batch + 1 timing query). Holding the total constant makes every
  // configuration run the same amount of work over a comparable wall-time
  // window, so best-of-repetition selection cannot favor a config merely
  // because its repetitions were shorter.
  int rounds = 2400;
  // Small batches keep rounds light (interactive-editor shaped): per-round
  // compute stays comparable to the transport cost being measured.
  int edits_per_batch = 2;
  int daemon_jobs = 4;      // identical for every configuration
  int repetitions = 4;      // interleaved; best repetition per config wins
  std::uint64_t design_seed = 1905;
  // CI smoke runs are short and share noisy runners: --advisory-speedup
  // reports the concurrent-vs-serial comparison without gating the exit
  // code on it (request errors always gate).
  bool advisory_speedup = false;
  // Design-size axis: registers per point.
  std::vector<int> sizes = {3000, 30000, 300000};
};

struct BenchConfig {
  std::string name;
  int sessions = 1;
  bool pipelined = false;
};

/// Static facts an edit-stream generator needs about the design every
/// session opens: movable register ids with their dimensions and legal
/// swap variants, plus the core box. No evolving state is tracked because
/// every generated edit is valid regardless of history.
struct Workload {
  geom::Rect core;
  struct Reg {
    std::int32_t id = 0;
    double width = 0.0;
    double height = 0.0;
    std::vector<std::string> variants;
  };
  std::vector<Reg> regs;
};

Workload make_workload(const lib::Library& library, const Settings& settings) {
  benchgen::DesignProfile profile;
  profile.name = "svcbench";
  profile.seed = settings.design_seed;
  profile.register_cells = settings.registers;
  const benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  const netlist::Design& design = generated.design;

  Workload w;
  w.core = design.core();
  for (netlist::CellId reg : design.registers()) {
    const netlist::Cell& cell = design.cell(reg);
    if (cell.fixed) continue;
    Workload::Reg r;
    r.id = reg.index;
    // Clamp moves by the LARGEST footprint in the swap family: a swap can
    // widen the cell mid-stream, and a later move must stay valid against
    // whatever variant the session currently holds.
    r.width = cell.width();
    r.height = cell.height();
    for (const lib::RegisterCell* v :
         design.library().drive_variants(*cell.reg)) {
      r.variants.push_back(v->name);
      r.width = std::max(r.width, v->width);
      r.height = std::max(r.height, v->height);
    }
    w.regs.push_back(std::move(r));
  }
  return w;
}

std::string open_request(const std::string& session,
                         const Settings& settings) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", 0).kv("cmd", "open_design").kv("session", session);
  w.kv("profile", "svcbench")
      .kv("registers", static_cast<std::int64_t>(settings.registers))
      .kv("seed", static_cast<std::int64_t>(settings.design_seed));
  w.end_object();
  return os.str();
}

std::string query_request(std::int64_t id, const std::string& session) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", "query_timing");
  w.kv("session", session).end_object();
  return os.str();
}

std::string edits_request(std::int64_t id, const std::string& session,
                          const Workload& w, util::Rng& rng, int batch) {
  std::ostringstream os;
  obs::JsonWriter jw(os, 0);
  jw.begin_object().kv("id", id).kv("cmd", "apply_edits");
  jw.kv("session", session);
  jw.key("edits").begin_array();
  for (int b = 0; b < batch; ++b) {
    const Workload::Reg& reg = w.regs[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.regs.size()) - 1))];
    const double roll = rng.uniform_real(0.0, 1.0);
    jw.begin_object();
    if (roll < 0.35) {
      jw.kv("op", "move").kv("cell", static_cast<std::int64_t>(reg.id));
      jw.kv("x", rng.uniform_real(w.core.xlo, w.core.xhi - reg.width));
      jw.kv("y", rng.uniform_real(w.core.ylo, w.core.yhi - reg.height));
    } else if (roll < 0.9 || reg.variants.empty()) {
      jw.kv("op", "skew").kv("cell", static_cast<std::int64_t>(reg.id));
      jw.kv("skew", rng.uniform_real(-0.08, 0.08));
    } else {
      jw.kv("op", "swap").kv("cell", static_cast<std::int64_t>(reg.id));
      jw.kv("variant",
            reg.variants[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(reg.variants.size()) - 1))]);
    }
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  return os.str();
}

bool response_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// A blocking NDJSON client connection to the daemon's unix socket.
class Connection {
public:
  ~Connection() { close_fd(); }

  bool connect_to(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      close_fd();
      return false;
    }
    return true;
  }

  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool send_line(const std::string& line) { return send_all(line + "\n"); }

  /// Next response line (without the newline); empty on EOF/error.
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = inbuf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = inbuf_.substr(0, nl);
        inbuf_.erase(0, nl + 1);
        return line;
      }
      char buffer[4096];
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) return {};
      inbuf_.append(buffer, static_cast<std::size_t>(n));
    }
  }

  /// One synchronous round-trip.
  std::string request(const std::string& line) {
    if (!send_line(line)) return {};
    return recv_line();
  }

  void close_fd() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

private:
  int fd_ = -1;
  std::string inbuf_;
};

/// All clients (and the coordinator) rendezvous here so wall-clock starts
/// when every session is open and warmed up.
class Latch {
public:
  explicit Latch(int count) : count_(count) {}
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--count_ == 0) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [&] { return count_ == 0; });
  }

private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int count_;
};

struct ClientResult {
  std::int64_t edits_applied = 0;
  std::int64_t queries = 0;
  std::int64_t errors = 0;
  std::vector<double> query_latency_us;
};

/// Rounds per burst for pipelined clients (2 requests per round).
constexpr int kBurstRounds = 16;

// Both models use the same connection; the only variable is burst depth.
//
//   synchronous: send each request alone and block for its response
//                (burst depth 1 -- a full socket round-trip per request)
//   pipelined:   write kBurstRounds rounds in one send(), then read the
//                burst's responses; query latency is measured from the
//                burst's send to that query's response, i.e. it includes
//                queueing behind the burst
ClientResult run_client(Connection& conn, const std::string& session,
                        const Workload& w, const Settings& settings,
                        int rounds, bool pipelined,
                        std::uint64_t stream_seed) {
  ClientResult result;
  result.query_latency_us.reserve(static_cast<std::size_t>(rounds));
  util::Rng rng(stream_seed);
  std::int64_t next_id = 1;

  const auto score = [&](const std::string& response, bool is_query,
                         Clock::time_point t0) {
    if (is_query)
      result.query_latency_us.push_back(micros_between(t0, Clock::now()));
    if (!response_ok(response)) {
      ++result.errors;
      return;
    }
    if (is_query)
      ++result.queries;
    else
      result.edits_applied += settings.edits_per_batch;
  };

  if (!pipelined) {
    for (int r = 0; r < rounds; ++r) {
      const Clock::time_point t_apply = Clock::now();
      score(conn.request(edits_request(next_id++, session, w, rng,
                                       settings.edits_per_batch)),
            false, t_apply);
      const Clock::time_point t_query = Clock::now();
      score(conn.request(query_request(next_id++, session)), true, t_query);
    }
    return result;
  }

  std::string burst;
  for (int begin = 0; begin < rounds; begin += kBurstRounds) {
    const int count = std::min(rounds - begin, kBurstRounds);
    burst.clear();
    for (int r = 0; r < count; ++r) {
      burst += edits_request(next_id++, session, w, rng,
                             settings.edits_per_batch);
      burst += '\n';
      burst += query_request(next_id++, session);
      burst += '\n';
    }
    const Clock::time_point t0 = Clock::now();
    if (!conn.send_all(burst)) {
      result.errors += 2 * count;
      return result;
    }
    for (int r = 0; r < count; ++r) {
      score(conn.recv_line(), false, t0);
      score(conn.recv_line(), true, t0);
    }
  }
  return result;
}

struct ConfigResult {
  BenchConfig config;
  double wall_seconds = 0.0;
  std::int64_t edits_applied = 0;
  std::int64_t queries = 0;
  std::int64_t errors = 0;
  double edits_per_second = 0.0;
  double queries_per_second = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  // Daemon-side pool.queue_depth_peak read via the stats verb at teardown:
  // how deep the request backlog got behind this configuration's load.
  std::int64_t queue_depth_max = 0;
  std::vector<double> samples_edits_per_second;  // one per repetition
};

/// pool.queue_depth_peak from a stats response; 0 on any parse miss (an
/// inline-serial daemon reports all-zero pool gauges, so 0 is also the
/// honest floor).
std::int64_t parse_queue_depth_peak(const std::string& stats_response) {
  const obs::JsonParseResult parsed = obs::parse_json(stats_response);
  if (!parsed.ok) return 0;
  const obs::JsonValue* pool = parsed.value.find("pool");
  if (pool == nullptr) return 0;
  return pool->int_or("queue_depth_peak", 0);
}

ConfigResult run_config(const lib::Library& library, const Workload& workload,
                        const Settings& settings, const BenchConfig& config,
                        const std::string& socket_path) {
  ConfigResult out;
  out.config = config;

  service::DaemonOptions daemon_options;
  daemon_options.jobs = settings.daemon_jobs;
  service::Daemon daemon(library, daemon_options);
  service::SocketServerOptions server_options;
  server_options.path = socket_path;
  server_options.poll_interval_ms = 5;
  service::SocketServer server(daemon, server_options);
  if (!server.start()) {
    std::fprintf(stderr, "socket server: %s\n", server.error().c_str());
    return out;
  }
  std::thread server_thread([&server] { server.run(); });

  const int rounds_per_session =
      std::max(1, settings.rounds / config.sessions);
  std::vector<ClientResult> results(
      static_cast<std::size_t>(config.sessions));
  Latch start(config.sessions + 1);
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(config.sessions));
  for (int s = 0; s < config.sessions; ++s) {
    clients.emplace_back([&, s] {
      // Session setup (connect, open, engine warm-up) happens before the
      // rendezvous: the bench measures steady-state edit/query throughput,
      // not benchgen or the first full timing build.
      const std::string session = "s" + std::to_string(s);
      Connection conn;
      ClientResult& result = results[static_cast<std::size_t>(s)];
      if (!conn.connect_to(socket_path) ||
          !response_ok(conn.request(open_request(session, settings))) ||
          !response_ok(conn.request(query_request(0, session)))) {
        ++result.errors;
        start.arrive_and_wait();
        return;
      }
      start.arrive_and_wait();
      result = run_client(conn, session, workload, settings,
                          rounds_per_session, config.pipelined,
                          0xbe9c'0000u + static_cast<std::uint64_t>(s));
    });
  }

  const Clock::time_point t0 = Clock::now();
  start.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  out.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Teardown (untimed): grab the daemon's pool gauges over the same wire
  // the load used, then ask it to shut down so the accept loop and the
  // per-connection threads exit, and join the server.
  {
    Connection conn;
    if (conn.connect_to(socket_path)) {
      out.queue_depth_max =
          parse_queue_depth_peak(conn.request("{\"id\":0,\"cmd\":\"stats\"}"));
      conn.request("{\"id\":0,\"cmd\":\"shutdown\"}");
    }
  }
  server_thread.join();

  std::vector<double> latencies;
  for (const ClientResult& r : results) {
    out.edits_applied += r.edits_applied;
    out.queries += r.queries;
    out.errors += r.errors;
    latencies.insert(latencies.end(), r.query_latency_us.begin(),
                     r.query_latency_us.end());
  }
  std::sort(latencies.begin(), latencies.end());
  out.p50_us = obs::Histogram::percentile(latencies, 0.50);
  out.p95_us = obs::Histogram::percentile(latencies, 0.95);
  out.p99_us = obs::Histogram::percentile(latencies, 0.99);
  if (out.wall_seconds > 0.0) {
    out.edits_per_second =
        static_cast<double>(out.edits_applied) / out.wall_seconds;
    out.queries_per_second =
        static_cast<double>(out.queries) / out.wall_seconds;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Design-size axis.
// ---------------------------------------------------------------------------

/// Timed rounds per size point, and edits per round (mbrcbench's round
/// shape: one round = a batch of local edits, a timing query and a
/// recompose).
constexpr int kSizeRounds = 100;
constexpr int kSizeEditsPerRound = 10;
/// Subgraph bound of the size axis, as in mbrcbench: at the paper's 30 a
/// single dense subgraph's enumeration can take seconds, and the
/// percentiles would measure which subgraphs the edits hit, not the size.
constexpr int kSizeSubgraphBound = 20;

struct SizePoint {
  int registers = 0;
  double open_seconds = 0.0;  // generation + first full timing build
  double query_p50_ms = 0.0;
  double query_p99_ms = 0.0;
  // From the last query: the failing endpoints and all of them.
  std::int64_t failing_endpoints = 0;
  std::int64_t total_endpoints = 0;
  // Per timed query: sta.engine.endpoints_refiled and
  // sta.engine.summary_nodes_folded.
  double endpoints_refiled_per_query = 0.0;
  double summary_nodes_per_query = 0.0;
  double recompose_p50_ms = 0.0;
  double recompose_p99_ms = 0.0;
  std::int64_t compat_full_builds = 0;
  std::int64_t compat_incremental_updates = 0;
  std::int64_t errors = 0;
};

/// One session on a `registers`-sized design, in-process (no transport, so
/// the latency is the request's own). The transcript is the same at every
/// size: rounds of kSizeEditsPerRound local edits on random movable
/// registers -- 35% moves of up to 6 um per axis, 55% skews in +-0.08 ns,
/// 10% swaps within the family -- then one query_timing and one implicit
/// recompose_region, the two timed requests. One untimed warm-up round
/// builds the session's compatibility graph first.
SizePoint run_size_point(const lib::Library& library, const Settings& settings,
                         int registers) {
  SizePoint point;
  point.registers = registers;
  service::DaemonOptions options;
  options.session_defaults.composition.partition.max_nodes = kSizeSubgraphBound;
  service::Daemon daemon(library, options);
  const auto request = [&](const std::string& line) {
    std::string response = daemon.handle_sync(line);
    if (!response_ok(response)) ++point.errors;
    return response;
  };

  Settings sized = settings;
  sized.registers = registers;
  const Clock::time_point t_open = Clock::now();
  const obs::JsonParseResult opened =
      obs::parse_json(request(open_request("s", sized)));
  request(query_request(0, "s"));
  point.open_seconds =
      std::chrono::duration<double>(Clock::now() - t_open).count();
  const obs::JsonParseResult listed = obs::parse_json(
      request(R"({"id":0,"cmd":"list_registers","session":"s"})"));
  const obs::JsonValue* core = opened.ok ? opened.value.find("core") : nullptr;
  const obs::JsonValue* list = listed.ok ? listed.value.find("registers") : nullptr;
  if (core == nullptr || !core->is_array() || core->array().size() != 4 ||
      list == nullptr || !list->is_array()) {
    ++point.errors;
    return point;
  }
  const geom::Rect box{core->array()[0].as_number(),
                       core->array()[1].as_number(),
                       core->array()[2].as_number(),
                       core->array()[3].as_number()};

  struct Reg {
    std::int64_t id;
    double x, y, width, height;
    std::vector<std::string> variants;
  };
  std::vector<Reg> regs;
  for (const obs::JsonValue& r : list->array()) {
    if (r.bool_or("fixed", true)) continue;
    const lib::RegisterCell* cell =
        library.register_by_name(r.string_or("variant", ""));
    if (cell == nullptr) continue;
    Reg reg{r.int_or("cell", -1), r.number_or("x", 0.0), r.number_or("y", 0.0),
            cell->width, cell->height, {}};
    for (const lib::RegisterCell* v : library.drive_variants(*cell)) {
      reg.variants.push_back(v->name);
      reg.width = std::max(reg.width, v->width);
      reg.height = std::max(reg.height, v->height);
    }
    regs.push_back(std::move(reg));
  }
  if (regs.empty()) {
    ++point.errors;
    return point;
  }

  util::Rng rng(0x512e'0000u);
  std::int64_t next_id = 1;
  std::vector<double> recompose_ms;
  std::vector<double> query_ms;
  const obs::Counter& refiled = obs::counter("sta.engine.endpoints_refiled");
  const obs::Counter& folded = obs::counter("sta.engine.summary_nodes_folded");
  std::int64_t refiled_by_queries = 0;
  std::int64_t folded_by_queries = 0;
  for (int round = -1; round < kSizeRounds; ++round) {
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", next_id++).kv("cmd", "apply_edits");
    w.kv("session", "s").key("edits").begin_array();
    for (int k = 0; k < kSizeEditsPerRound; ++k) {
      Reg& reg = regs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(regs.size()) - 1))];
      w.begin_object().kv("cell", reg.id);
      const double roll = rng.uniform_real(0.0, 1.0);
      if (roll < 0.35) {
        reg.x = std::clamp(reg.x + rng.uniform_real(-6.0, 6.0), box.xlo,
                           box.xhi - reg.width);
        reg.y = std::clamp(reg.y + rng.uniform_real(-6.0, 6.0), box.ylo,
                           box.yhi - reg.height);
        w.kv("op", "move").kv("x", reg.x).kv("y", reg.y);
      } else if (roll < 0.9 || reg.variants.size() < 2) {
        w.kv("op", "skew").kv("skew", rng.uniform_real(-0.08, 0.08));
      } else {
        w.kv("op", "swap").kv(
            "variant", reg.variants[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(reg.variants.size()) -
                                  1))]);
      }
      w.end_object();
    }
    w.end_array().end_object();
    request(os.str());
    const std::int64_t refiled_before = refiled.value();
    const std::int64_t folded_before = folded.value();
    const Clock::time_point tq = Clock::now();
    const std::string answer = request(query_request(next_id++, "s"));
    if (round >= 0) {
      query_ms.push_back(1e-3 * micros_between(tq, Clock::now()));
      refiled_by_queries += refiled.value() - refiled_before;
      folded_by_queries += folded.value() - folded_before;
    }
    if (round + 1 == kSizeRounds) {
      const obs::JsonParseResult parsed = obs::parse_json(answer);
      if (parsed.ok) {
        point.failing_endpoints = parsed.value.int_or("failing_endpoints", 0);
        point.total_endpoints = parsed.value.int_or("total_endpoints", 0);
      }
    }

    std::ostringstream recompose;
    obs::JsonWriter rw(recompose, 0);
    rw.begin_object().kv("id", next_id++).kv("cmd", "recompose_region");
    rw.kv("session", "s").end_object();
    const Clock::time_point t0 = Clock::now();
    request(recompose.str());
    if (round >= 0)  // round -1 is the warm-up that builds the graph
      recompose_ms.push_back(1e-3 * micros_between(t0, Clock::now()));
  }

  const obs::JsonParseResult stats =
      obs::parse_json(request(R"({"id":0,"cmd":"stats"})"));
  const obs::JsonValue* sessions =
      stats.ok ? stats.value.find("sessions") : nullptr;
  const obs::JsonValue* session =
      sessions != nullptr ? sessions->find("s") : nullptr;
  const obs::JsonValue* compat =
      session != nullptr ? session->find("compat") : nullptr;
  if (compat != nullptr) {
    point.compat_full_builds = compat->int_or("full_builds", 0);
    point.compat_incremental_updates = compat->int_or("incremental_updates", 0);
  }
  request(R"({"id":0,"cmd":"close","session":"s"})");

  std::sort(query_ms.begin(), query_ms.end());
  point.query_p50_ms = obs::Histogram::percentile(query_ms, 0.50);
  point.query_p99_ms = obs::Histogram::percentile(query_ms, 0.99);
  point.endpoints_refiled_per_query =
      static_cast<double>(refiled_by_queries) / kSizeRounds;
  point.summary_nodes_per_query =
      static_cast<double>(folded_by_queries) / kSizeRounds;
  std::sort(recompose_ms.begin(), recompose_ms.end());
  point.recompose_p50_ms = obs::Histogram::percentile(recompose_ms, 0.50);
  point.recompose_p99_ms = obs::Histogram::percentile(recompose_ms, 0.99);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto int_flag = [&](const char* name, int& slot) {
      if (arg == name && i + 1 < argc) {
        slot = std::atoi(argv[++i]);
        return true;
      }
      return false;
    };
    if (int_flag("--rounds", settings.rounds)) continue;
    if (int_flag("--registers", settings.registers)) continue;
    if (int_flag("--batch", settings.edits_per_batch)) continue;
    if (int_flag("--jobs", settings.daemon_jobs)) continue;
    if (int_flag("--reps", settings.repetitions)) continue;
    if (arg == "--advisory-speedup") {
      settings.advisory_speedup = true;
      continue;
    }
    if (arg == "--sizes" && i + 1 < argc) {
      settings.sizes.clear();
      std::istringstream list(argv[++i]);
      for (std::string item; std::getline(list, item, ',');)
        settings.sizes.push_back(std::atoi(item.c_str()));
      continue;
    }
    settings.out_path = arg;
  }

  const lib::Library library = lib::make_default_library();
  const Workload workload = make_workload(library, settings);
  const std::string socket_path =
      "/tmp/mbrc-bench-" + std::to_string(::getpid()) + ".sock";

  const std::vector<BenchConfig> configs = {
      {"serial_baseline", 1, false},
      {"pipelined_single", 1, true},
      {"concurrent_4", 4, true},
      {"concurrent_8", 8, true},
  };

  std::printf(
      "service_throughput: %d registers, %d total rounds x %d edits, daemon "
      "jobs=%d, best of %d, socket transport\n",
      settings.registers, settings.rounds, settings.edits_per_batch,
      settings.daemon_jobs, settings.repetitions);

  std::vector<ConfigResult> rows(configs.size());
  std::vector<std::vector<double>> samples(configs.size());
  for (int rep = 0; rep < settings.repetitions; ++rep) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      ConfigResult result =
          run_config(library, workload, settings, configs[c], socket_path);
      samples[c].push_back(result.edits_per_second);
      rows[c].errors += result.errors;  // errors from EVERY repetition count
      // Deepest backlog seen across ALL repetitions, not just the best one:
      // the gauge answers "how far behind did this config get", and the
      // worst window is the interesting answer.
      const std::int64_t depth =
          std::max(rows[c].queue_depth_max, result.queue_depth_max);
      if (rep == 0 || result.edits_per_second > rows[c].edits_per_second) {
        const std::int64_t errors = rows[c].errors;
        rows[c] = std::move(result);
        rows[c].errors = errors;
      }
      rows[c].queue_depth_max = depth;
    }
  }
  for (std::size_t c = 0; c < configs.size(); ++c)
    rows[c].samples_edits_per_second = std::move(samples[c]);

  std::printf("%18s %9s %8s %12s %10s %9s %9s %9s %7s\n", "config", "sessions",
              "wall_s", "edits/sec", "query/sec", "p50_us", "p95_us", "p99_us",
              "errors");
  for (const ConfigResult& r : rows)
    std::printf("%18s %9d %8.3f %12.0f %10.0f %9.1f %9.1f %9.1f %7lld\n",
                r.config.name.c_str(), r.config.sessions, r.wall_seconds,
                r.edits_per_second, r.queries_per_second, r.p50_us, r.p95_us,
                r.p99_us, static_cast<long long>(r.errors));

  std::vector<SizePoint> points;
  std::printf("\ndesign-size axis: %d rounds of %d local edits + query + "
              "recompose_region per size, in-process daemon\n",
              kSizeRounds, kSizeEditsPerRound);
  std::printf("%10s %10s %13s %13s %9s %9s %16s %16s %12s %7s\n",
              "registers", "open_s", "query_p50_ms", "query_p99_ms", "failing",
              "endpoints", "recompose_p50_ms", "recompose_p99_ms",
              "graph_builds", "errors");
  for (int registers : settings.sizes) {
    points.push_back(run_size_point(library, settings, registers));
    const SizePoint& p = points.back();
    std::printf("%10d %10.2f %13.3f %13.3f %9lld %9lld %16.3f %16.3f %12lld "
                "%7lld\n",
                p.registers, p.open_seconds, p.query_p50_ms, p.query_p99_ms,
                static_cast<long long>(p.failing_endpoints),
                static_cast<long long>(p.total_endpoints), p.recompose_p50_ms,
                p.recompose_p99_ms, static_cast<long long>(p.compat_full_builds),
                static_cast<long long>(p.errors));
  }
  const double size_ratio =
      points.size() >= 2 && points.front().recompose_p50_ms > 0.0
          ? points.back().recompose_p50_ms / points.front().recompose_p50_ms
          : 0.0;

  const ConfigResult& serial = rows[0];
  const ConfigResult& concurrent4 = rows[2];
  const double speedup =
      serial.edits_per_second > 0.0
          ? concurrent4.edits_per_second / serial.edits_per_second
          : 0.0;

  std::ofstream out(settings.out_path);
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", 1).kv("bench", "service_throughput");
  w.kv("hardware_threads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("transport", "unix socket");
  w.key("design").begin_object();
  w.kv("profile", "svcbench")
      .kv("registers", static_cast<std::int64_t>(settings.registers))
      .kv("seed", static_cast<std::int64_t>(settings.design_seed));
  w.end_object();
  w.kv("daemon_jobs", static_cast<std::int64_t>(settings.daemon_jobs));
  w.kv("rounds_total", static_cast<std::int64_t>(settings.rounds));
  w.kv("edits_per_batch",
       static_cast<std::int64_t>(settings.edits_per_batch));
  w.kv("repetitions", static_cast<std::int64_t>(settings.repetitions));
  w.kv("selection", "best repetition per config, interleaved");
  w.key("configs").begin_array();
  for (const ConfigResult& r : rows) {
    w.begin_object()
        .kv("name", r.config.name)
        .kv("sessions", static_cast<std::int64_t>(r.config.sessions))
        .kv("pipelined", r.config.pipelined)
        .kv("wall_seconds", r.wall_seconds)
        .kv("edits_applied", r.edits_applied)
        .kv("edits_per_second", r.edits_per_second)
        .kv("queries", r.queries)
        .kv("queries_per_second", r.queries_per_second);
    w.key("query_latency_us")
        .begin_object()
        .kv("p50", r.p50_us)
        .kv("p95", r.p95_us)
        .kv("p99", r.p99_us)
        .end_object();
    w.kv("queue_depth_max", r.queue_depth_max);
    w.key("samples_edits_per_second").begin_array();
    for (double s : r.samples_edits_per_second) w.value(s);
    w.end_array();
    w.kv("errors", r.errors).end_object();
  }
  w.end_array();
  w.kv("concurrent_4_vs_serial_speedup", speedup);
  w.key("size_axis").begin_object();
  w.kv("profile", "svcbench")
      .kv("seed", static_cast<std::int64_t>(settings.design_seed));
  w.kv("rounds", static_cast<std::int64_t>(kSizeRounds));
  w.kv("edits_per_round", static_cast<std::int64_t>(kSizeEditsPerRound));
  w.key("points").begin_array();
  for (const SizePoint& p : points) {
    w.begin_object()
        .kv("name", "regs_" + std::to_string(p.registers))
        .kv("registers", static_cast<std::int64_t>(p.registers))
        .kv("open_seconds", p.open_seconds);
    w.key("query_timing_ms")
        .begin_object()
        .kv("p50", p.query_p50_ms)
        .kv("p99", p.query_p99_ms)
        .end_object();
    w.kv("failing_endpoints", p.failing_endpoints)
        .kv("total_endpoints", p.total_endpoints)
        .kv("endpoints_refiled_per_query", p.endpoints_refiled_per_query)
        .kv("summary_nodes_per_query", p.summary_nodes_per_query);
    w.key("recompose_region_ms")
        .begin_object()
        .kv("p50", p.recompose_p50_ms)
        .kv("p99", p.recompose_p99_ms)
        .end_object();
    w.kv("compat_full_builds", p.compat_full_builds);
    w.kv("compat_incremental_updates", p.compat_incremental_updates);
    w.kv("errors", p.errors).end_object();
  }
  w.end_array();
  w.kv("recompose_p50_largest_over_smallest", size_ratio);
  w.end_object();
  w.end_object();
  out << '\n';
  std::printf("wrote %s (concurrent_4 vs serial: %.2fx)\n",
              settings.out_path.c_str(), speedup);

  std::int64_t errors = 0;
  for (const ConfigResult& r : rows) errors += r.errors;
  for (const SizePoint& p : points) errors += p.errors;
  const bool beats_serial =
      concurrent4.edits_per_second > serial.edits_per_second;
  const bool ok =
      errors == 0 && (beats_serial || settings.advisory_speedup);
  if (!beats_serial && settings.advisory_speedup && errors == 0)
    std::printf(
        "note: concurrent_4 did not beat serial this run "
        "(advisory under --advisory-speedup)\n");
  if (!ok)
    std::printf(
        "FAIL: expected zero errors and concurrent_4 edits/sec above the "
        "serial baseline\n");
  return ok ? 0 : 1;
}
