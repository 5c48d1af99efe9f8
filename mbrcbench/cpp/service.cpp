// service_d1x10: the live service as an interactive user drives it.
//
// An in-process service::Daemon (jobs 2, no socket transport) holds two
// sessions, each a D1 design at 29,400 registers with its own seed. Each
// session is one closed-loop client with one outstanding request: the
// response handler of request i sends request i+1. A round is ten
// (apply_edits of a local move, skew or swap on one register, then
// query_timing of that register) pairs followed by one implicit
// recompose_region. The incremental engine serves the reads, the planner
// runs in region mode; legalize, useful skew and sizing are not exercised.
//
// A pass is a fixed transcript of rounds from the "base" snapshot, so its
// responses are a pure function of the seed; passes repeat (after a
// rollback to base) until the run's seconds are used, and every pass must
// reproduce the first pass's response digest.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "benchgen/generator.hpp"
#include "common.hpp"
#include "gates.hpp"
#include "mbr/cliques.hpp"
#include "mbr/compatibility.hpp"
#include "metrics.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "service/daemon.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mbrcbench {

namespace {

using namespace mbrc;

constexpr int kRegisters = 29400;
constexpr int kSessions = 2;
constexpr int kDaemonJobs = 2;
constexpr int kEditsPerRound = 10;
/// Rounds per pass. registers_saved_pct and neg_tns_after_ns come from the
/// first pass, so its recomposes (2 x 100) set how steady they are across
/// seeds; at 25 rounds their spread was twice as wide.
constexpr int kRoundsPerPass = 100;
constexpr int kSetups = 3;

// ---------------------------------------------------------------------------
// Transcript: the fixed request sequence of one pass of one session.
// ---------------------------------------------------------------------------

struct Step {
  service::Edit edit;
  std::string edit_line;
  std::string query_line;
};

struct Round {
  std::vector<Step> steps;
  std::string recompose_line;
};

struct Transcript {
  std::string session;
  std::vector<Round> rounds;
};

service::SessionOptions session_options() {
  service::SessionOptions options;
  options.composition.partition.max_nodes = kSubgraphBound;
  return options;
}

std::string session_name(int s) { return "s" + std::to_string(s); }

std::uint64_t session_seed(const Args& args, int s) {
  return design_seed(args.seed + 7919u * static_cast<std::uint64_t>(s));
}

std::string open_line(const Args& args, int s) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", 0).kv("cmd", "open_design");
  w.kv("session", session_name(s)).kv("profile", "D1");
  w.kv("registers", static_cast<std::int64_t>(kRegisters));
  w.kv("seed", static_cast<std::int64_t>(session_seed(args, s)));
  w.end_object();
  return os.str();
}

std::string simple_line(std::int64_t id, const std::string& cmd,
                        const std::string& session,
                        const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", cmd).kv("session", session);
  if (!extra_key.empty()) w.kv(extra_key, extra_value);
  w.end_object();
  return os.str();
}

std::string query_line(std::int64_t id, const std::string& session,
                       std::int64_t cell) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", "query_timing");
  w.kv("session", session);
  w.key("registers").begin_array().value(cell).end_array();
  w.end_object();
  return os.str();
}

std::string edit_line(std::int64_t id, const std::string& session,
                      const service::Edit& e) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", "apply_edits");
  w.kv("session", session);
  w.key("edits").begin_array().begin_object();
  w.kv("cell", static_cast<std::int64_t>(e.cell.index));
  switch (e.op) {
    case service::Edit::Op::kMove:
      w.kv("op", "move").kv("x", e.x).kv("y", e.y);
      break;
    case service::Edit::Op::kSwap:
      w.kv("op", "swap").kv("variant", e.variant);
      break;
    case service::Edit::Op::kSkew:
      w.kv("op", "skew").kv("skew", e.skew);
      break;
  }
  w.end_object().end_array();
  w.end_object();
  return os.str();
}

/// Builds one session's transcript from its list_registers response. The
/// edit mix (35% move, 55% skew, 10% swap) and the skew range (+-0.08 ns)
/// are those of bench/service_throughput.cpp, so the two service studies
/// drive the same traffic; neither comes from a recorded user session.
/// Moves are local: a nudge of up to 6 um on each axis, the amplitude of the
/// session edit generator in tests/service_test.cpp, clamped so that the
/// widest variant of the register's family still fits the core. Swaps stay
/// within the family. Every edit is valid whatever came before it.
std::optional<Transcript> make_transcript(const lib::Library& library,
                                          const std::string& session,
                                          const obs::JsonValue& registers,
                                          const geom::Rect& core,
                                          std::uint64_t seed) {
  struct Reg {
    std::int64_t id;
    double x, y, max_width, max_height;
    std::vector<std::string> variants;
  };
  std::vector<Reg> regs;
  const obs::JsonValue* list = registers.find("registers");
  if (list == nullptr || !list->is_array()) return std::nullopt;
  for (const obs::JsonValue& r : list->array()) {
    if (r.bool_or("fixed", true)) continue;
    const lib::RegisterCell* cell =
        library.register_by_name(r.string_or("variant", ""));
    if (cell == nullptr) return std::nullopt;
    Reg reg{r.int_or("cell", -1), r.number_or("x", 0.0), r.number_or("y", 0.0),
            cell->width, cell->height, {}};
    for (const lib::RegisterCell* v :
         library.cells_for(cell->function, cell->bits))
      if (v->scan_style == cell->scan_style) {
        reg.variants.push_back(v->name);
        reg.max_width = std::max(reg.max_width, v->width);
        reg.max_height = std::max(reg.max_height, v->height);
      }
    regs.push_back(std::move(reg));
  }
  if (regs.empty()) return std::nullopt;

  util::Rng rng(seed);
  Transcript t;
  t.session = session;
  for (int r = 0; r < kRoundsPerPass; ++r) {
    Round round;
    for (int k = 0; k < kEditsPerRound; ++k) {
      Reg& reg = regs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(regs.size()) - 1))];
      service::Edit e;
      e.cell = netlist::CellId{static_cast<std::int32_t>(reg.id)};
      const double roll = rng.uniform_real(0.0, 1.0);
      if (roll < 0.35) {
        e.op = service::Edit::Op::kMove;
        const double x = reg.x + rng.uniform_real(-6.0, 6.0);
        const double y = reg.y + rng.uniform_real(-6.0, 6.0);
        e.x = std::clamp(x, core.xlo, core.xhi - reg.max_width);
        e.y = std::clamp(y, core.ylo, core.yhi - reg.max_height);
        reg.x = e.x;
        reg.y = e.y;
      } else if (roll < 0.9 || reg.variants.size() < 2) {
        e.op = service::Edit::Op::kSkew;
        e.skew = rng.uniform_real(-0.08, 0.08);
      } else {
        e.op = service::Edit::Op::kSwap;
        e.variant = reg.variants[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(reg.variants.size()) - 1))];
      }
      const std::int64_t id = 1000 * r + 2 * k + 1;
      round.steps.push_back({e, edit_line(id, session, e),
                             query_line(id + 1, session, reg.id)});
    }
    round.recompose_line =
        simple_line(1000 * r + 999, "recompose_region", session);
    t.rounds.push_back(std::move(round));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Response digests: the non-timing content of each answer, built the same
// way from daemon response lines and from direct Session results.
// ---------------------------------------------------------------------------

void digest_apply(Digest& d, bool ok, std::int64_t applied,
                  std::int64_t journal_length) {
  d.add(std::string_view("apply"));
  d.add(static_cast<std::int64_t>(ok));
  d.add(applied);
  d.add(journal_length);
}

struct QueryFields {
  double wns = 0.0, tns = 0.0, hold_wns = 0.0;
  std::int64_t failing = 0, total = 0;
  std::vector<std::tuple<std::int64_t, double, double>> registers;
};

void digest_query(Digest& d, const QueryFields& q) {
  d.add(std::string_view("query"));
  d.add(q.wns);
  d.add(q.tns);
  d.add(q.hold_wns);
  d.add(q.failing);
  d.add(q.total);
  for (const auto& [cell, ds, qs] : q.registers) {
    d.add(cell);
    d.add(ds);
    d.add(qs);
  }
}

struct RecomposeFields {
  std::int64_t region_registers = 0, subgraphs = 0, candidates = 0,
               ilp_nodes = 0, planned_mbrs = 0, merged_registers = 0;
  double objective = 0.0;
};

void digest_recompose(Digest& d, const RecomposeFields& r) {
  d.add(std::string_view("recompose"));
  for (std::int64_t v : {r.region_registers, r.subgraphs, r.candidates,
                         r.ilp_nodes, r.planned_mbrs, r.merged_registers})
    d.add(v);
  d.add(r.objective);
}

std::int64_t int_field(const obs::JsonValue& v, const char* key) {
  return static_cast<std::int64_t>(v.number_or(key, 0.0));
}

QueryFields query_fields(const obs::JsonValue& v) {
  QueryFields q;
  q.wns = v.number_or("wns", 0.0);
  q.tns = v.number_or("tns", 0.0);
  q.hold_wns = v.number_or("hold_wns", 0.0);
  q.failing = int_field(v, "failing_endpoints");
  q.total = int_field(v, "total_endpoints");
  if (const obs::JsonValue* regs = v.find("registers"); regs && regs->is_array())
    for (const obs::JsonValue& r : regs->array())
      q.registers.emplace_back(int_field(r, "cell"), r.number_or("d_slack", 0.0),
                               r.number_or("q_slack", 0.0));
  return q;
}

/// A number as the wire carries it: the JSON writer sends non-finite
/// values (an unconstrained slack is +inf) as null, which reads back as 0.
double on_wire(double v) { return std::isfinite(v) ? v : 0.0; }

QueryFields query_fields(const service::TimingAnswer& a) {
  QueryFields q;
  q.wns = on_wire(a.wns);
  q.tns = on_wire(a.tns);
  q.hold_wns = on_wire(a.hold_wns);
  q.failing = a.failing_endpoints;
  q.total = a.total_endpoints;
  for (const auto& r : a.registers)
    q.registers.emplace_back(r.cell.index, on_wire(r.d_slack),
                             on_wire(r.q_slack));
  return q;
}

RecomposeFields recompose_fields(const obs::JsonValue& v) {
  RecomposeFields r;
  r.region_registers = int_field(v, "region_registers");
  r.subgraphs = int_field(v, "subgraphs");
  r.candidates = int_field(v, "candidates");
  r.ilp_nodes = int_field(v, "ilp_nodes");
  r.planned_mbrs = int_field(v, "planned_mbrs");
  r.merged_registers = int_field(v, "merged_registers");
  r.objective = v.number_or("objective", 0.0);
  return r;
}

RecomposeFields recompose_fields(const service::RecomposeAnswer& a) {
  return {a.region_registers, a.subgraphs,    a.candidates,
          a.ilp_nodes,        a.planned_mbrs, a.merged_registers,
          on_wire(a.objective)};
}

/// What one pass of one session produced, from either path.
struct PassOutcome {
  std::uint64_t digest = 0;
  double tns_after = 0.0;          // from the pass's last query
  std::int64_t planned_mbrs = 0;   // summed over the pass's recomposes
  std::int64_t merged_registers = 0;
  std::int64_t candidates = 0;
  std::int64_t ilp_nodes = 0;
  // Engine counts from the pass's last query answer (cumulative).
  std::int64_t full_builds = 0;
  std::int64_t incremental_updates = 0;
};

// ---------------------------------------------------------------------------
// The daemon path: closed-loop clients chained through response handlers.
// ---------------------------------------------------------------------------

enum class Kind { kApply, kQuery, kRecompose };

struct Client {
  const Transcript* transcript = nullptr;
  std::size_t round = 0;
  std::size_t step = 0;  // 2k: edit k, 2k+1: query k, 2*kEdits: recompose
  Clock::time_point sent;
  Clock::time_point round_start;
  // Written only by this client's strand jobs; read after Daemon::drain().
  std::vector<std::pair<Kind, std::string>> responses;
  std::vector<double> apply_ms, query_ms, recompose_ms, round_s;
  // CPU seconds of the thread serving the strand, per round. A strand's
  // chained requests run on one thread (each response handler queues the
  // next request before its job returns), so consecutive readings at the
  // end of each round bracket that round's work.
  std::vector<double> round_cpu_s;
  double last_cpu_s = -1.0;
  std::thread::id last_thread;
};

void send_next(service::Daemon& daemon, Client& c) {
  const Round& round = c.transcript->rounds[c.round];
  const std::size_t edits = round.steps.size();
  const std::string& line = c.step == 2 * edits
                                ? round.recompose_line
                                : (c.step % 2 == 0
                                       ? round.steps[c.step / 2].edit_line
                                       : round.steps[c.step / 2].query_line);
  c.sent = Clock::now();
  if (c.step == 0) c.round_start = c.sent;
  daemon.handle(line, [&daemon, &c](std::string response) {
    const double ms = 1e3 * seconds_since(c.sent);
    const std::size_t edits = c.transcript->rounds[c.round].steps.size();
    Kind kind;
    if (c.step == 2 * edits) {
      kind = Kind::kRecompose;
      c.recompose_ms.push_back(ms);
      c.round_s.push_back(seconds_since(c.round_start));
      const double cpu = thread_cpu_seconds();
      if (c.last_cpu_s >= 0.0 && c.last_thread == std::this_thread::get_id())
        c.round_cpu_s.push_back(cpu - c.last_cpu_s);
      c.last_cpu_s = cpu;
      c.last_thread = std::this_thread::get_id();
      c.step = 0;
      ++c.round;
    } else {
      kind = c.step % 2 == 0 ? Kind::kApply : Kind::kQuery;
      (kind == Kind::kApply ? c.apply_ms : c.query_ms).push_back(ms);
      ++c.step;
    }
    c.responses.emplace_back(kind, std::move(response));
    if (c.round < c.transcript->rounds.size()) send_next(daemon, c);
  });
}

/// Scores and digests one pass's responses (untimed).
PassOutcome score_pass(const Client& c, ResponseTally& tally, Result& result) {
  PassOutcome out;
  Digest d;
  for (const auto& [kind, response] : c.responses) {
    if (!tally.score(response)) {
      result.fail("service response not ok: " + response);
      continue;
    }
    const obs::JsonParseResult parsed = obs::parse_json(response);
    if (!parsed.ok) {
      result.fail("unparseable service response: " + response);
      continue;
    }
    const obs::JsonValue& v = parsed.value;
    if (kind == Kind::kApply) {
      digest_apply(d, true, int_field(v, "applied"),
                   int_field(v, "journal_length"));
    } else if (kind == Kind::kQuery) {
      const QueryFields q = query_fields(v);
      out.tns_after = q.tns;
      digest_query(d, q);
      if (const obs::JsonValue* engine = v.find("engine")) {
        out.full_builds = int_field(*engine, "full_builds");
        out.incremental_updates = int_field(*engine, "incremental_updates");
      }
    } else {
      const RecomposeFields r = recompose_fields(v);
      out.planned_mbrs += r.planned_mbrs;
      out.merged_registers += r.merged_registers;
      out.candidates += r.candidates;
      out.ilp_nodes += r.ilp_nodes;
      digest_recompose(d, r);
    }
  }
  out.digest = d.value();
  return out;
}

/// A daemon with every session open and warmed up (its first query is the
/// full engine build), plus each session's transcript.
struct Service {
  std::unique_ptr<service::Daemon> daemon;
  std::vector<Transcript> transcripts;
  std::vector<double> setup_seconds;
};

std::string sync(service::Daemon& daemon, const std::string& line,
                 ResponseTally& tally, Result& result) {
  std::string response = daemon.handle_sync(line);
  if (!tally.score(response))
    result.fail("service request failed: " + line + " -> " + response);
  return response;
}

/// Sends one request per session concurrently and waits for all of them.
std::vector<std::string> fan_out(service::Daemon& daemon,
                                 const std::vector<std::string>& lines,
                                 ResponseTally& tally, Result& result) {
  std::vector<std::string> responses(lines.size());
  {
    service::DrainGuard drain(daemon);
    for (std::size_t i = 0; i < lines.size(); ++i)
      daemon.handle(lines[i], [&responses, i](std::string r) {
        responses[i] = std::move(r);
      });
  }
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (!tally.score(responses[i]))
      result.fail("service request failed: " + lines[i] + " -> " +
                  responses[i]);
  return responses;
}

template <class Fn>
std::vector<std::string> per_session(Fn line) {
  std::vector<std::string> lines;
  for (int s = 0; s < kSessions; ++s) lines.push_back(line(s));
  return lines;
}

std::vector<std::string> warm_up_queries() {
  return per_session(
      [](int s) { return simple_line(0, "query_timing", session_name(s)); });
}

Service set_up(const Args& args, const lib::Library& library,
               ResponseTally& tally, Result& result) {
  Service svc;
  service::DaemonOptions options;
  options.jobs = kDaemonJobs;
  options.session_defaults = session_options();
  std::vector<std::string> opened;
  for (int i = 0; i < kSetups; ++i) {
    svc.daemon.reset();  // one daemon's designs in memory at a time
    const Clock::time_point t0 = Clock::now();
    svc.daemon = std::make_unique<service::Daemon>(library, options);
    opened = fan_out(*svc.daemon,
                     per_session([&](int s) { return open_line(args, s); }),
                     tally, result);
    fan_out(*svc.daemon, warm_up_queries(), tally, result);
    svc.setup_seconds.push_back(seconds_since(t0));
  }
  for (int s = 0; s < kSessions; ++s) {
    const std::string name = session_name(s);
    const obs::JsonParseResult open = obs::parse_json(opened[s]);
    const obs::JsonValue* core = open.ok ? open.value.find("core") : nullptr;
    const obs::JsonParseResult regs = obs::parse_json(sync(
        *svc.daemon, simple_line(0, "list_registers", name), tally, result));
    if (core == nullptr || !core->is_array() || core->array().size() != 4 ||
        !regs.ok)
      throw std::runtime_error("unexpected open_design/list_registers reply");
    const auto& c = core->array();
    const geom::Rect box{c[0].as_number(), c[1].as_number(), c[2].as_number(),
                         c[3].as_number()};
    std::optional<Transcript> t = make_transcript(
        library, name, regs.value, box, session_seed(args, s) ^ 0x7472616e73ull);
    if (!t) throw std::runtime_error("cannot build the edit transcript");
    svc.transcripts.push_back(std::move(*t));
    sync(*svc.daemon, simple_line(0, "snapshot", name, "name", "base"), tally,
         result);
  }
  return svc;
}

struct Pass {
  std::vector<Client> clients;
  double wall_s = 0.0;
};

/// One pass of every session's transcript, from the current state.
Pass run_pass(Service& svc) {
  Pass pass;
  pass.clients.resize(kSessions);
  const Clock::time_point t0 = Clock::now();
  {
    service::DrainGuard drain(*svc.daemon);
    for (int s = 0; s < kSessions; ++s) {
      pass.clients[s].transcript = &svc.transcripts[s];
      send_next(*svc.daemon, pass.clients[s]);
    }
  }
  pass.wall_s = seconds_since(t0);
  return pass;
}

/// Back to the base snapshot, then the (untimed) full rebuild query.
void rewind(Service& svc, ResponseTally& tally, Result& result) {
  fan_out(*svc.daemon, per_session([](int s) {
            return simple_line(0, "rollback", session_name(s), "name", "base");
          }),
          tally, result);
  fan_out(*svc.daemon, warm_up_queries(), tally, result);
}

/// Latency samples of every pass, pooled over sessions.
struct Samples {
  std::vector<double> apply_ms, query_ms, recompose_ms, round_s, round_cpu_s;
  double wall_s = 0.0;
  std::int64_t rounds = 0;
  int passes = 0;

  void add(const Pass& pass) {
    for (const Client& c : pass.clients) {
      apply_ms.insert(apply_ms.end(), c.apply_ms.begin(), c.apply_ms.end());
      query_ms.insert(query_ms.end(), c.query_ms.begin(), c.query_ms.end());
      recompose_ms.insert(recompose_ms.end(), c.recompose_ms.begin(),
                          c.recompose_ms.end());
      round_s.insert(round_s.end(), c.round_s.begin(), c.round_s.end());
      round_cpu_s.insert(round_cpu_s.end(), c.round_cpu_s.begin(),
                         c.round_cpu_s.end());
      rounds += static_cast<std::int64_t>(c.round_s.size());
    }
    wall_s += pass.wall_s;
    ++passes;
  }
};

/// Runs passes until `seconds` of pass time (at least `min_passes`),
/// checking that each pass reproduces the first pass's digests.
std::vector<PassOutcome> run_passes(Service& svc, double seconds,
                                    int min_passes, Samples& samples,
                                    ResponseTally& tally, Result& result) {
  std::vector<PassOutcome> first;
  for (int p = 0; p < min_passes || samples.wall_s < seconds; ++p) {
    if (p > 0) rewind(svc, tally, result);
    const Pass pass = run_pass(svc);
    samples.add(pass);
    for (int s = 0; s < kSessions; ++s) {
      const PassOutcome outcome = score_pass(pass.clients[s], tally, result);
      std::printf("pass %d %s: %.3f s, digest %016llx\n", p + 1,
                  session_name(s).c_str(), pass.wall_s,
                  static_cast<unsigned long long>(outcome.digest));
      if (p == 0) {
        first.push_back(outcome);
      } else if (outcome.digest != first[s].digest) {
        ++tally.failed;
        result.fail("pass digest differs from the first pass");
      }
    }
  }
  return first;
}

/// Every session ends with a passing design check.
void final_checks(Service& svc, ResponseTally& tally, Result& result) {
  for (int s = 0; s < kSessions; ++s)
    sync(*svc.daemon, simple_line(0, "check", session_name(s)), tally, result);
}

void report_untraced(const Args& args, const lib::Library& library,
                     Result& result) {
  ResponseTally tally;
  Service svc = set_up(args, library, tally, result);
  Samples samples;
  const std::vector<PassOutcome> first =
      run_passes(svc, args.seconds, 2, samples, tally, result);
  final_checks(svc, tally, result);
  result.attempt(tally.attempted);
  result.failed_op(tally.failed);

  // Registers one region plan would remove (a merge of n registers removes
  // n - 1), as a share of the session's registers, averaged over the
  // recomposes of a pass. The plans are not applied, so each one starts
  // from the same design size.
  double tns = 0.0;
  std::int64_t planned = 0, merged = 0;
  for (const PassOutcome& o : first) {
    tns += o.tns_after / kSessions;
    planned += o.planned_mbrs;
    merged += o.merged_registers;
  }
  const double offered = double(kSessions) * kRoundsPerPass * kRegisters;
  std::map<std::string, double> v;
  v["setup_s"] = median(svc.setup_seconds);
  v["flow_wall_s"] = median(samples.round_s);
  v["cpu_s"] = median(samples.round_cpu_s);
  v["peak_rss_mb"] = peak_rss_mb();
  v["success_pct"] = 100.0 * (1.0 - result.error_rate());
  v["registers_saved_pct"] =
      100.0 * double(merged - planned) / offered;
  v["neg_tns_after_ns"] = -tns;
  std::printf(
      "service: %lld rounds, query p50 %.3f ms p99 %.3f ms (%zu samples), "
      "recompose p50 %.3f ms p95 %.3f ms (%zu samples)\n",
      static_cast<long long>(samples.rounds),
      percentile(samples.query_ms, 0.5), percentile(samples.query_ms, 0.99),
      samples.query_ms.size(), percentile(samples.recompose_ms, 0.5),
      percentile(samples.recompose_ms, 0.95), samples.recompose_ms.size());
  emit(end_to_end_metrics(), v, result);
}

// ---------------------------------------------------------------------------
// Traced replay: the same transcripts straight into Session objects.
// ---------------------------------------------------------------------------

struct SessionReplay {
  double generate_s = 0.0;
  double wall_s = 0.0;         // replay wall minus out-of-band graph builds
  double out_of_band_s = 0.0;
  std::vector<double> apply_us, query_us, recompose_ms, graph_s;
  PassOutcome outcome;
  std::int64_t graph_edges = 0;
  std::int64_t subgraphs = 0;
  std::int64_t max_subgraph_nodes = 0;
  std::string error;
};

std::unique_ptr<service::Session> open_session(const Args& args,
                                               const lib::Library& library,
                                               int s, double& generate_s) {
  benchgen::DesignProfile profile;
  for (const benchgen::DesignProfile& p : benchgen::standard_profiles())
    if (p.name == "D1") profile = p;
  profile.register_cells = kRegisters;
  profile.seed = session_seed(args, s);
  const Clock::time_point t0 = Clock::now();
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  generate_s = seconds_since(t0);
  service::SessionOptions options = session_options();
  options.timing.clock_period = generated.calibrated_clock_period;
  return std::make_unique<service::Session>(library,
                                            std::move(generated.design),
                                            options);
}

void replay_session(service::Session& session, const Transcript& transcript,
                    SessionReplay& out) {
  obs::Tracer::set_thread_label("bench-" + transcript.session);
  {
    obs::Span span("bench:sta.full_build");
    session.query({});
  }
  // A second engine on the same design feeds the compatibility graph that
  // recompose rebuilds internally, so its cost can be timed on its own.
  sta::TimingEngine side(session.design(), session.options().timing);
  {
    obs::Span span("bench:sta.side_build");
    side.update();
  }

  mbr::CompatibilityOptions compatibility =
      session.options().composition.compatibility;
  compatibility.jobs = session.options().composition.jobs;
  Digest d;
  const Clock::time_point t0 = Clock::now();
  for (const Round& round : transcript.rounds) {
    for (const Step& step : round.steps) {
      Clock::time_point c0 = Clock::now();
      service::EditOutcome applied;
      {
        obs::Span span("bench:session.apply");
        applied = session.apply({step.edit});
      }
      out.apply_us.push_back(1e6 * seconds_since(c0));
      digest_apply(d, applied.ok(), applied.applied,
                   static_cast<std::int64_t>(applied.journal_length));
      service::TimingQuery query;
      query.registers.push_back(step.edit.cell);
      c0 = Clock::now();
      service::TimingAnswer answer;
      {
        obs::Span span("bench:session.query");
        answer = session.query(query);
      }
      out.query_us.push_back(1e6 * seconds_since(c0));
      const QueryFields q = query_fields(answer);
      out.outcome.tns_after = q.tns;
      digest_query(d, q);
    }
    Clock::time_point c0 = Clock::now();
    service::RecomposeAnswer answer;
    {
      obs::Span span("bench:session.recompose");
      answer = session.recompose({});
    }
    out.recompose_ms.push_back(1e3 * seconds_since(c0));
    digest_recompose(d, recompose_fields(answer));

    c0 = Clock::now();
    {
      obs::Span span("bench:sta.side_update");
      side.update();
    }
    const Clock::time_point g0 = Clock::now();
    mbr::CompatibilityGraph graph;
    {
      obs::Span span("bench:mbr.graph_build");
      graph = mbr::build_compatibility_graph(session.design(), side.report(),
                                             compatibility);
    }
    std::vector<std::vector<int>> subgraphs;
    {
      obs::Span span("bench:mbr.partition");
      subgraphs = mbr::partition_graph(graph, session.design(),
                                       session.options().composition.partition);
    }
    out.graph_s.push_back(seconds_since(g0));
    out.graph_edges = graph.edge_count();
    out.subgraphs = static_cast<std::int64_t>(subgraphs.size());
    out.max_subgraph_nodes = 0;
    for (const auto& sg : subgraphs)
      out.max_subgraph_nodes = std::max<std::int64_t>(
          out.max_subgraph_nodes, static_cast<std::int64_t>(sg.size()));
    out.out_of_band_s += seconds_since(c0);
  }
  out.wall_s = seconds_since(t0) - out.out_of_band_s;
  out.outcome.digest = d.value();
}

void report_traced(const Args& args, const lib::Library& library,
                   Result& result) {
  ResponseTally tally;
  std::map<std::string, double> v;
  std::vector<PassOutcome> daemon_outcomes;
  std::vector<Transcript> transcripts;
  Samples samples;
  {
    Service svc = set_up(args, library, tally, result);
    daemon_outcomes = run_passes(svc, args.seconds, 2, samples, tally, result);
    final_checks(svc, tally, result);
    const obs::JsonParseResult stats = obs::parse_json(
        sync(*svc.daemon, "{\"id\":0,\"cmd\":\"stats\"}", tally, result));
    if (stats.ok) {
      if (const obs::JsonValue* pool = stats.value.find("pool"))
        v["service.queue_depth_max"] =
            double(pool->int_or("queue_depth_peak", 0));
      if (const obs::JsonValue* counters = stats.value.find("counters"))
        v["sta.early_stops"] =
            double(counters->int_or("sta.engine.early_stops", 0));
    }
    transcripts = svc.transcripts;
  }  // the daemon's sessions are released before the replay opens its own

  std::vector<std::unique_ptr<service::Session>> sessions(kSessions);
  std::vector<SessionReplay> replays(kSessions);
  {
    std::vector<std::jthread> openers;
    for (int s = 0; s < kSessions; ++s)
      openers.emplace_back([&, s] {
        try {
          sessions[s] = open_session(args, library, s, replays[s].generate_s);
        } catch (const std::exception& e) {
          replays[s].error = e.what();
        }
      });
  }
  obs::Tracer tracer;
  tracer.install();
  {
    std::vector<std::jthread> drivers;
    for (int s = 0; s < kSessions; ++s)
      drivers.emplace_back([&, s] {
        if (!replays[s].error.empty()) return;
        try {
          replay_session(*sessions[s], transcripts[s], replays[s]);
        } catch (const std::exception& e) {
          replays[s].error = e.what();
        }
      });
  }
  tracer.uninstall();
  const obs::TraceData trace = tracer.take();
  const std::string path = write_trace(
      trace, args.trace_out,
      args.workload + "-" + std::to_string(args.seed) + ".trace.json");
  std::printf("trace: %zu events -> %s\n", trace.events.size(),
              path.empty() ? "(not written)" : path.c_str());
  if (path.empty()) result.fail("cannot write the trace file");

  bool matches = true;
  std::vector<double> generate_s, apply_us, query_us, recompose_ms;
  double graph_s = 0.0, recompose_s = 0.0, replay_wall = 0.0;
  for (int s = 0; s < kSessions; ++s) {
    const SessionReplay& r = replays[s];
    if (!r.error.empty()) {
      ++tally.attempted;
      ++tally.failed;
      result.fail("session replay failed: " + r.error);
      matches = false;
      continue;
    }
    matches = matches && r.outcome.digest == daemon_outcomes[s].digest;
    generate_s.push_back(r.generate_s);
    apply_us.insert(apply_us.end(), r.apply_us.begin(), r.apply_us.end());
    query_us.insert(query_us.end(), r.query_us.begin(), r.query_us.end());
    recompose_ms.insert(recompose_ms.end(), r.recompose_ms.begin(),
                        r.recompose_ms.end());
    for (double g : r.graph_s) graph_s += g;
    for (double ms : r.recompose_ms) recompose_s += 1e-3 * ms;
    replay_wall = std::max(replay_wall, r.wall_s);
    v["mbr.graph_edges"] = double(r.graph_edges);
    v["mbr.subgraphs"] = double(r.subgraphs);
    v["mbr.max_subgraph_nodes"] = double(r.max_subgraph_nodes);
  }
  if (!matches)
    std::printf(
        "STALE ATTRIBUTION: the direct Session replay answered differently "
        "from the daemon; per-layer numbers describe different work\n");
  result.attempt(tally.attempted);
  result.failed_op(tally.failed);

  const std::map<std::string, SpanTotals> spans = attribute(trace);
  const auto per_call = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() || it->second.count == 0
               ? 0.0
               : std::max(0.0, it->second.self_s) / double(it->second.count);
  };
  std::int64_t candidates = 0, ilp_nodes = 0, full_builds = 0,
               incremental = 0;
  for (const PassOutcome& o : daemon_outcomes) {
    candidates += o.candidates;
    ilp_nodes += o.ilp_nodes;
    full_builds += o.full_builds;
    incremental += o.incremental_updates;
  }
  const double query_p50_ms = percentile(samples.query_ms, 0.5);
  v["benchgen.generate_s"] = median(generate_s);
  v["sta.full_build_s"] = per_call("sta.full_build");
  v["sta.full_builds"] = double(full_builds);
  v["sta.incremental_updates"] = double(incremental);
  v["mbr.graph_build_s"] = per_call("mbr.graph_build");
  v["mbr.partition_s"] = per_call("mbr.partition");
  v["mbr.candidates"] = double(candidates);
  v["ilp.nodes"] = double(ilp_nodes);
  v["session.apply_us"] = median(apply_us);
  v["session.query_us"] = median(query_us);
  v["session.recompose_ms"] = median(recompose_ms);
  v["session.region_graph_share"] =
      recompose_s > 0.0 ? graph_s / recompose_s : 0.0;
  v["service.dispatch_us"] = 1e3 * query_p50_ms - median(query_us);
  v["service.query_timing_p50_ms"] = query_p50_ms;
  v["service.query_timing_p99_ms"] = percentile(samples.query_ms, 0.99);
  v["service.recompose_region_p50_ms"] = percentile(samples.recompose_ms, 0.5);
  v["service.recompose_region_p95_ms"] =
      percentile(samples.recompose_ms, 0.95);
  v["service.apply_edits_p50_ms"] = percentile(samples.apply_ms, 0.5);
  v["service.rounds_per_s"] =
      samples.wall_s > 0.0 ? double(samples.rounds) / samples.wall_s : 0.0;
  // The replay covers one pass; compare it with the daemon's mean pass.
  const double pass_wall = samples.wall_s / std::max(1, samples.passes);
  v["trace.overhead_pct"] =
      pass_wall > 0.0 ? 100.0 * (replay_wall - pass_wall) / pass_wall : 0.0;
  v["trace.replay_matches"] = matches ? 1.0 : 0.0;
  emit(per_layer_metrics(), v, result);
}

}  // namespace

bool is_service_workload(const std::string& name) {
  return name == "service_d1x10";
}

void run_service(const Args& args, Result& result) {
  const lib::Library library = lib::make_default_library();
  if (args.trace)
    report_traced(args, library, result);
  else
    report_untraced(args, library, result);
}

}  // namespace mbrcbench
