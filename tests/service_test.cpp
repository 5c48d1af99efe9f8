// Composition-service contract tests.
//
// The acceptance bar (ISSUE/ROADMAP): a recorded edit stream replayed
// through the daemon yields responses bit-identical to applying the same
// edits serially through a TimingEngine directly, and the daemon's
// responses are byte-identical at jobs = 1 and jobs = 4 (per-session FIFO
// strands make each session's responses a pure function of its own request
// order). Protocol behavior -- session lifecycle, snapshot/rollback,
// incremental query stats, error reporting, the serve loop -- is pinned
// here too.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "service/daemon.hpp"
#include "service/socket_server.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

constexpr int kRegisters = 140;
constexpr std::uint64_t kSeed = 11;
constexpr const char* kProfile = "svc";

// The same design the daemon's open_design builds for
// {"profile": "svc", "registers": 140, "seed": 11} -- benchgen is
// deterministic, so the test can maintain a bit-identical reference copy.
benchgen::GeneratedDesign reference_design(const lib::Library& library) {
  benchgen::DesignProfile profile;
  profile.name = kProfile;
  profile.register_cells = kRegisters;
  profile.seed = kSeed;
  return benchgen::generate_design(library, profile);
}

std::string open_request(std::int64_t id, const std::string& session) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", "open_design");
  w.kv("session", session).kv("profile", kProfile);
  w.kv("registers", kRegisters);
  w.kv("seed", static_cast<std::int64_t>(kSeed));
  w.end_object();
  return os.str();
}

/// One recorded edit, mirrored into both the daemon request stream and the
/// direct-TimingEngine reference application.
struct RecordedEdit {
  enum class Op { kMove, kSwap, kSkew, kClearSkew } op;
  netlist::CellId cell;
  double x = 0.0, y = 0.0;
  std::string variant;
  double skew = 0.0;
};

std::string edits_request(std::int64_t id, const std::string& session,
                          const std::vector<RecordedEdit>& edits) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", "apply_edits");
  w.kv("session", session);
  w.key("edits").begin_array();
  for (const RecordedEdit& e : edits) {
    w.begin_object();
    switch (e.op) {
      case RecordedEdit::Op::kMove:
        w.kv("op", "move").kv("cell", e.cell.index).kv("x", e.x).kv("y", e.y);
        break;
      case RecordedEdit::Op::kSwap:
        w.kv("op", "swap").kv("cell", e.cell.index).kv("variant", e.variant);
        break;
      case RecordedEdit::Op::kSkew:
        w.kv("op", "skew").kv("cell", e.cell.index).kv("skew", e.skew);
        break;
      case RecordedEdit::Op::kClearSkew:
        w.kv("op", "skew").kv("cell", e.cell.index).kv("clear", true);
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return os.str();
}

std::string query_request(std::int64_t id, const std::string& session,
                          const std::vector<netlist::PinId>& pins,
                          const std::vector<netlist::CellId>& registers) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", "query_timing");
  w.kv("session", session);
  w.key("pins").begin_array();
  for (netlist::PinId pin : pins) w.value(pin.index);
  w.end_array();
  w.key("registers").begin_array();
  for (netlist::CellId reg : registers) w.value(reg.index);
  w.end_array();
  w.end_object();
  return os.str();
}

std::string simple_request(std::int64_t id, const std::string& cmd,
                           const std::string& session,
                           const std::string& name = {}) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("cmd", cmd);
  if (!session.empty()) w.kv("session", session);
  if (!name.empty()) w.kv("name", name);
  w.end_object();
  return os.str();
}

/// Feeds every line without waiting, then drains: at jobs > 1 different
/// sessions' requests genuinely race. Responses keyed by request id.
std::map<std::int64_t, std::string> run_transcript(
    service::Daemon& daemon, const std::vector<std::string>& lines) {
  std::map<std::int64_t, std::string> responses;
  std::mutex mutex;
  for (const std::string& line : lines) {
    daemon.handle(line, [&](std::string response) {
      const obs::JsonParseResult parsed = obs::parse_json(response);
      ASSERT_TRUE(parsed.ok) << response;
      const std::int64_t id = parsed.value.int_or("id", -1);
      std::lock_guard<std::mutex> lock(mutex);
      ASSERT_FALSE(responses.contains(id)) << "duplicate response id " << id;
      responses[id] = std::move(response);
    });
  }
  daemon.drain();
  return responses;
}

obs::JsonValue parse_ok(const std::string& response) {
  const obs::JsonParseResult parsed = obs::parse_json(response);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.value.bool_or("ok", false)) << response;
  return parsed.value;
}

/// Generates one topology-preserving edit burst, applying it to the
/// reference design/skew as it goes (the recorded stream is replayed
/// through the daemon afterwards).
std::vector<RecordedEdit> mutate_reference(netlist::Design& design,
                                           sta::SkewMap& skew,
                                           util::Rng& rng) {
  const auto registers = design.registers();
  const auto pick = [&] {
    return registers[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(registers.size()) - 1))];
  };
  std::vector<RecordedEdit> edits;

  const int nudges = static_cast<int>(rng.uniform_int(1, 5));
  for (int i = 0; i < nudges; ++i) {
    const netlist::CellId reg = pick();
    if (design.cell(reg).fixed) continue;
    if (rng.chance(0.2)) {
      skew.erase(reg);
      edits.push_back({RecordedEdit::Op::kClearSkew, reg});
    } else {
      const double value = rng.uniform_real(-0.1, 0.1);
      skew[reg] = value;
      RecordedEdit e{RecordedEdit::Op::kSkew, reg};
      e.skew = value;
      edits.push_back(e);
    }
  }

  if (rng.chance(0.7)) {
    const netlist::CellId reg = pick();
    netlist::Cell& cell = design.cell(reg);
    if (!cell.fixed) {
      const geom::Rect& core = design.core();
      const double x =
          std::clamp(cell.position.x + rng.uniform_real(-6.0, 6.0), core.xlo,
                     core.xhi - cell.width());
      const double y =
          std::clamp(cell.position.y + rng.uniform_real(-6.0, 6.0), core.ylo,
                     core.yhi - cell.height());
      cell.position = {x, y};
      design.notify_moved(reg);
      RecordedEdit e{RecordedEdit::Op::kMove, reg};
      e.x = x;
      e.y = y;
      edits.push_back(e);
    }
  }

  if (rng.chance(0.5)) {
    const netlist::CellId reg = pick();
    const netlist::Cell& cell = design.cell(reg);
    if (!cell.fixed) {
      const auto variants = design.library().drive_variants(*cell.reg);
      if (variants.size() > 1) {
        const auto* variant =
            variants[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(variants.size()) - 1))];
        if (variant != cell.reg) design.swap_register_cell(reg, variant);
        RecordedEdit e{RecordedEdit::Op::kSwap, reg};
        e.variant = variant->name;
        edits.push_back(e);
      }
    }
  }
  return edits;
}

struct ExpectedQuery {
  std::int64_t id = 0;
  double wns = 0.0;
  double tns = 0.0;
  std::vector<netlist::PinId> pins;
  std::vector<double> pin_slack;
  std::vector<netlist::CellId> regs;
  std::vector<double> d_slack;
};

void expect_double(const obs::JsonValue& object, const char* key,
                   double want) {
  const obs::JsonValue* got = object.find(key);
  ASSERT_NE(got, nullptr) << key;
  if (std::isfinite(want)) {
    ASSERT_TRUE(got->is_number()) << key;
    // Bit-exact: JsonWriter emits shortest-round-trip doubles and the
    // reader parses them back to the same bits.
    EXPECT_EQ(got->as_number(), want) << key;
  } else {
    EXPECT_TRUE(got->is_null()) << key;  // JSON has no infinities
  }
}

// --- the acceptance test ---------------------------------------------------
//
// Build one recorded edit stream. Apply it (a) directly: reference design +
// TimingEngine, serially; (b) through a jobs=1 daemon; (c) through a jobs=4
// daemon. (b) must report exactly the direct engine's numbers and (c) must
// produce byte-identical response lines to (b).
TEST(ServiceTest, DaemonBitIdenticalToDirectEngineAtAnyJobs) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = reference_design(library);
  netlist::Design& reference = generated.design;

  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  sta::TimingEngine engine(reference, timing);
  sta::SkewMap skew;
  util::Rng rng(0x5e11ce);

  const auto registers = reference.registers();
  ASSERT_GT(registers.size(), 20u);

  std::vector<std::string> transcript;
  std::vector<ExpectedQuery> expected;
  // The daemon's open_design calibrates the same clock period benchgen
  // handed the reference engine (same profile, same seed).
  transcript.push_back(open_request(1, "s"));
  std::int64_t next_id = 2;
  for (int round = 0; round < 8; ++round) {
    const std::vector<RecordedEdit> edits =
        mutate_reference(reference, skew, rng);
    transcript.push_back(edits_request(next_id++, "s", edits));

    const sta::TimingReport& report = engine.update(skew);
    ExpectedQuery q;
    q.id = next_id++;
    q.wns = report.wns();
    q.tns = report.tns();
    for (int i = 0; i < 5; ++i) {
      const netlist::CellId reg = registers[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(registers.size()) - 1))];
      const netlist::PinId pin = reference.register_d_pin(reg, 0);
      q.pins.push_back(pin);
      q.pin_slack.push_back(report.slack(pin));
      q.regs.push_back(reg);
      q.d_slack.push_back(report.register_d_slack(reference, reg));
    }
    transcript.push_back(query_request(q.id, "s", q.pins, q.regs));
    expected.push_back(std::move(q));
  }

  service::Daemon serial(library, {.jobs = 1});
  const auto serial_responses = run_transcript(serial, transcript);
  ASSERT_EQ(serial_responses.size(), transcript.size());

  // (b) vs (a): every query reports exactly the direct engine's numbers.
  for (const ExpectedQuery& q : expected) {
    ASSERT_TRUE(serial_responses.contains(q.id));
    const obs::JsonValue response = parse_ok(serial_responses.at(q.id));
    expect_double(response, "wns", q.wns);
    expect_double(response, "tns", q.tns);
    const obs::JsonValue* pins = response.find("pins");
    ASSERT_NE(pins, nullptr);
    ASSERT_EQ(pins->array().size(), q.pins.size());
    for (std::size_t i = 0; i < q.pins.size(); ++i) {
      const obs::JsonValue& entry = pins->array()[i];
      EXPECT_EQ(entry.int_or("pin", -1), q.pins[i].index);
      expect_double(entry, "slack", q.pin_slack[i]);
    }
    const obs::JsonValue* regs = response.find("registers");
    ASSERT_NE(regs, nullptr);
    ASSERT_EQ(regs->array().size(), q.regs.size());
    for (std::size_t i = 0; i < q.regs.size(); ++i) {
      const obs::JsonValue& entry = regs->array()[i];
      EXPECT_EQ(entry.int_or("cell", -1), q.regs[i].index);
      expect_double(entry, "d_slack", q.d_slack[i]);
    }
  }

  // (c) vs (b): byte-identical responses at jobs = 4.
  service::Daemon parallel(library, {.jobs = 4});
  const auto parallel_responses = run_transcript(parallel, transcript);
  ASSERT_EQ(parallel_responses.size(), serial_responses.size());
  for (const auto& [id, response] : serial_responses)
    EXPECT_EQ(parallel_responses.at(id), response) << "request id " << id;
}

// Concurrent independent sessions: the full request mix (edits, queries,
// snapshots, rollbacks, recompose, check, list_registers) interleaved
// across three sessions must produce byte-identical per-request responses
// at jobs = 1 and jobs = 4, regardless of cross-session scheduling.
TEST(ServiceTest, ConcurrentSessionsAreByteIdenticalAcrossJobs) {
  const lib::Library library = lib::make_default_library();
  std::vector<std::string> transcript;
  std::int64_t id = 1;
  const std::vector<std::string> sessions = {"a", "b", "c"};
  for (const std::string& s : sessions) transcript.push_back(open_request(id++, s));

  // Per-session reference copies only to *author* valid edits; responses
  // themselves are compared daemon-vs-daemon.
  std::map<std::string, benchgen::GeneratedDesign> refs;
  std::map<std::string, sta::SkewMap> skews;
  for (const std::string& s : sessions) refs.emplace(s, reference_design(library));
  util::Rng rng(0xc0ffee);

  for (int round = 0; round < 5; ++round) {
    for (const std::string& s : sessions) {
      auto& design = refs.at(s).design;
      const std::vector<RecordedEdit> edits =
          mutate_reference(design, skews[s], rng);
      transcript.push_back(edits_request(id++, s, edits));
      if (round == 1)
        transcript.push_back(simple_request(id++, "snapshot", s, "r1"));
      if (round == 3) {
        transcript.push_back(simple_request(id++, "rollback", s, "r1"));
        // Mirror the rollback in the reference author copy so later edits
        // stay valid (positions/variants exist in both worlds).
        // Rollback restores the session to its round-1 state; the author
        // copy diverges, but only in ways that do not invalidate edits
        // (moves clamp to the core; swaps list variants by function).
      }
      transcript.push_back(query_request(id++, s, {}, {}));
      if (round == 4) {
        transcript.push_back(simple_request(id++, "recompose_region", s));
        transcript.push_back(simple_request(id++, "check", s));
      }
    }
  }
  for (const std::string& s : sessions) {
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id++).kv("cmd", "list_registers");
    w.kv("session", s).kv("limit", 10).end_object();
    transcript.push_back(os.str());
  }

  service::Daemon serial(library, {.jobs = 1});
  service::Daemon parallel(library, {.jobs = 4});
  const auto serial_responses = run_transcript(serial, transcript);
  const auto parallel_responses = run_transcript(parallel, transcript);
  ASSERT_EQ(serial_responses.size(), transcript.size());
  ASSERT_EQ(parallel_responses.size(), transcript.size());
  for (const auto& [rid, response] : serial_responses)
    EXPECT_EQ(parallel_responses.at(rid), response) << "request id " << rid;
}

// Forced session-interleaving: one request per session per step, so at
// jobs = 4 the three FIFO strands race each other on every round, with
// snapshot/apply_edits/rollback churn landing between the racing queries.
// This is the invariant mbrc-analyze rule A3 (strand discipline) guards
// statically: Session state is only ever touched on its own strand, so
// cross-session scheduling can never leak into response bytes.
TEST(ServiceTest, StrandsStayDeterministicUnderForcedRollbackInterleaving) {
  const lib::Library library = lib::make_default_library();
  std::vector<std::string> transcript;
  std::int64_t id = 1;
  const std::vector<std::string> sessions = {"a", "b", "c"};
  std::map<std::string, benchgen::GeneratedDesign> refs;
  std::map<std::string, sta::SkewMap> skews;
  for (const std::string& s : sessions) {
    transcript.push_back(open_request(id++, s));
    refs.emplace(s, reference_design(library));
  }
  util::Rng rng(0x57a9d);
  for (int round = 0; round < 6; ++round) {
    const std::string tag = "r" + std::to_string(round);
    for (const std::string& s : sessions)
      transcript.push_back(simple_request(id++, "snapshot", s, tag));
    for (const std::string& s : sessions)
      transcript.push_back(edits_request(
          id++, s, mutate_reference(refs.at(s).design, skews[s], rng)));
    for (const std::string& s : sessions)
      transcript.push_back(query_request(id++, s, {}, {}));
    if (round % 2 == 1) {
      // Roll every session back one round while the other strands are
      // mid-query; the author copies diverge but stay edit-compatible
      // (moves clamp to the core, swaps list variants by function).
      const std::string back = "r" + std::to_string(round - 1);
      for (const std::string& s : sessions)
        transcript.push_back(simple_request(id++, "rollback", s, back));
    }
    for (const std::string& s : sessions)
      transcript.push_back(query_request(id++, s, {}, {}));
  }

  service::Daemon serial(library, {.jobs = 1});
  service::Daemon parallel(library, {.jobs = 4});
  const auto serial_responses = run_transcript(serial, transcript);
  const auto parallel_responses = run_transcript(parallel, transcript);
  ASSERT_EQ(serial_responses.size(), transcript.size());
  ASSERT_EQ(parallel_responses.size(), transcript.size());
  for (const auto& [rid, response] : serial_responses)
    EXPECT_EQ(parallel_responses.at(rid), response) << "request id " << rid;
}

// Dirty-cone repair, visible through the protocol: topology-preserving
// edits must never trigger a second full build, and repairs must touch a
// strict subset of the pins.
TEST(ServiceTest, QueriesAreServedIncrementally) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  parse_ok(daemon.handle_sync(open_request(1, "s")));

  const obs::JsonValue first = parse_ok(
      daemon.handle_sync(query_request(2, "s", {}, {})));
  EXPECT_EQ(first.find("engine")->int_or("full_builds", -1), 1);

  // Pick a movable register via the protocol itself.
  const obs::JsonValue regs = parse_ok(daemon.handle_sync(
      simple_request(3, "list_registers", "s")));
  std::int64_t cell = -1;
  for (const obs::JsonValue& entry : regs.find("registers")->array())
    if (!entry.bool_or("fixed", true)) {
      cell = entry.int_or("cell", -1);
      break;
    }
  ASSERT_GE(cell, 0);

  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", 4).kv("cmd", "apply_edits").kv("session", "s");
  w.key("edits").begin_array().begin_object();
  w.kv("op", "skew").kv("cell", cell).kv("skew", 0.02);
  w.end_object().end_array().end_object();
  parse_ok(daemon.handle_sync(os.str()));

  const obs::JsonValue second = parse_ok(
      daemon.handle_sync(query_request(5, "s", {}, {})));
  const obs::JsonValue* engine = second.find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->int_or("full_builds", -1), 1) << "skew edit forced a rebuild";
  EXPECT_EQ(engine->int_or("incremental_updates", -1), 1);
  EXPECT_GT(engine->int_or("repaired_pins", -1), 0);
}

// snapshot -> edits -> rollback -> the query reports exactly the
// pre-edit timing numbers (engine stats legitimately differ: rollback
// forces a rebuild).
TEST(ServiceTest, RollbackRestoresTimingExactly) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  parse_ok(daemon.handle_sync(open_request(1, "s")));
  const obs::JsonValue before = parse_ok(
      daemon.handle_sync(query_request(2, "s", {}, {})));
  parse_ok(daemon.handle_sync(simple_request(3, "snapshot", "s", "base")));

  const obs::JsonValue regs = parse_ok(daemon.handle_sync(
      simple_request(4, "list_registers", "s")));
  std::vector<RecordedEdit> edits;
  for (const obs::JsonValue& entry : regs.find("registers")->array()) {
    if (entry.bool_or("fixed", true)) continue;
    RecordedEdit e{RecordedEdit::Op::kSkew,
                   netlist::CellId(static_cast<std::int32_t>(
                       entry.int_or("cell", -1)))};
    e.skew = 0.07;
    edits.push_back(e);
    if (edits.size() >= 6) break;
  }
  ASSERT_FALSE(edits.empty());
  parse_ok(daemon.handle_sync(edits_request(5, "s", edits)));

  const obs::JsonValue changed = parse_ok(
      daemon.handle_sync(query_request(6, "s", {}, {})));
  EXPECT_NE(changed.number_or("tns", 0.0), before.number_or("tns", 1.0));

  parse_ok(daemon.handle_sync(simple_request(7, "rollback", "s", "base")));
  const obs::JsonValue after = parse_ok(
      daemon.handle_sync(query_request(8, "s", {}, {})));
  EXPECT_EQ(after.number_or("wns", -1), before.number_or("wns", -2));
  EXPECT_EQ(after.number_or("tns", -1), before.number_or("tns", -2));
  EXPECT_EQ(after.int_or("failing_endpoints", -1),
            before.int_or("failing_endpoints", -2));
}

// The engine owns the session's skew and journals its edits: each query
// adds to sta.engine.skew_entries_scanned exactly the skew edits since the
// last sync (0 after a batch of moves and swaps), never a scan of the skew
// map, and every answer still equals run_sta under the same skew. After a
// rollback the rebuild must run under the restored skew, not the engine's
// last one. A query's summary costs the endpoints its sync re-filed, never
// the endpoint list: a query with no edit folds no node of the report's
// min-tree, and one after k re-filed endpoints at most
// k * (ceil(log2 endpoints) + 1).
TEST(ServiceTest, QueriesAfterMovesAndSwapsSkipTheSkewDiff) {
  const lib::Library library = lib::make_default_library();
  const benchgen::GeneratedDesign generated = reference_design(library);
  service::SessionOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  service::Session session(library, generated.design, options);
  netlist::Design reference = generated.design;
  sta::SkewMap skew;
  const obs::Counter& scanned =
      obs::counter("sta.engine.skew_entries_scanned");
  const obs::Counter& folded = obs::counter("sta.engine.summary_nodes_folded");
  const obs::Counter& refiled = obs::counter("sta.engine.endpoints_refiled");
  std::int64_t refiled_by_queries = 0;

  std::vector<netlist::CellId> movable;
  for (const netlist::CellId reg : reference.registers())
    if (!reference.cell(reg).fixed) movable.push_back(reg);
  ASSERT_GE(movable.size(), 8u);

  // Skews on a few registers, mirrored into `skew`.
  const auto skew_round = [&](int round) {
    std::vector<service::Edit> edits;
    for (int k = 0; k < 4; ++k) {
      service::Edit e;
      e.op = service::Edit::Op::kSkew;
      e.cell = movable[static_cast<std::size_t>(round + 2 * k) % movable.size()];
      e.skew = 0.01 * (round + k + 1);
      skew[e.cell] = e.skew;
      edits.push_back(e);
    }
    ASSERT_TRUE(session.apply(edits).ok());
  };
  // A move and a drive-variant swap, mirrored into `reference`.
  const auto motion_round = [&](int round) {
    const netlist::CellId reg =
        movable[static_cast<std::size_t>(3 * round + 1) % movable.size()];
    netlist::Cell& cell = reference.cell(reg);
    service::Edit move;
    move.op = service::Edit::Op::kMove;
    move.cell = reg;
    move.x = std::clamp(cell.position.x + 2.5, reference.core().xlo,
                        reference.core().xhi - cell.width());
    move.y = cell.position.y;
    cell.position = {move.x, move.y};
    reference.notify_moved(reg);
    std::vector<service::Edit> edits{move};
    const auto variants = library.drive_variants(*cell.reg);
    for (const lib::RegisterCell* variant : variants) {
      if (variant == cell.reg) continue;
      service::Edit swap;
      swap.op = service::Edit::Op::kSwap;
      swap.cell = reg;
      swap.variant = variant->name;
      reference.swap_register_cell(reg, variant);
      edits.push_back(swap);
      break;
    }
    ASSERT_TRUE(session.apply(edits).ok());
  };
  const auto expect_answer = [&](const std::string& context) {
    SCOPED_TRACE(context);
    service::TimingQuery query;
    query.registers = movable;
    const std::int64_t folded_before = folded.value();
    const std::int64_t refiled_before = refiled.value();
    const service::TimingAnswer answer = session.query(query);
    const std::int64_t folded_by_query = folded.value() - folded_before;
    const std::int64_t refiled_by_query = refiled.value() - refiled_before;
    ASSERT_TRUE(answer.ok()) << answer.error;
    const sta::TimingReport want = sta::run_sta(reference, options.timing, skew);
    const auto depth = static_cast<std::int64_t>(std::bit_width(
        static_cast<std::uint64_t>(want.total_endpoints()) - 1));
    EXPECT_LE(folded_by_query, refiled_by_query * (depth + 1));
    if (refiled_by_query > 0) {
      EXPECT_GT(folded_by_query, 0);
    }
    refiled_by_queries += refiled_by_query;
    // The same query again has no edit to sync.
    const std::int64_t folded_after = folded.value();
    EXPECT_TRUE(session.query(query).ok());
    EXPECT_EQ(folded.value(), folded_after) << "a query with no edit folded";
    EXPECT_EQ(answer.wns, want.wns());
    EXPECT_EQ(answer.tns, want.tns());
    EXPECT_EQ(answer.hold_wns, want.hold_wns());
    EXPECT_EQ(answer.failing_endpoints, want.failing_endpoints());
    ASSERT_EQ(answer.registers.size(), movable.size());
    for (std::size_t i = 0; i < movable.size(); ++i) {
      EXPECT_EQ(answer.registers[i].d_slack,
                want.register_d_slack(reference, movable[i]));
      EXPECT_EQ(answer.registers[i].q_slack,
                want.register_q_slack(reference, movable[i]));
    }
  };

  expect_answer("first query");
  for (int round = 0; round < 4; ++round) {
    skew_round(round);
    std::int64_t before = scanned.value();
    expect_answer("after skew edits " + std::to_string(round));
    EXPECT_EQ(scanned.value() - before, 4) << "one entry per skew edit";

    motion_round(round);
    before = scanned.value();
    expect_answer("after moves and swaps " + std::to_string(round));
    EXPECT_EQ(scanned.value(), before) << "no skew edit, yet skews were scanned";
  }
  EXPECT_EQ(session.engine_stats().full_builds, 1u);

  // Snapshot, change skews and placement, roll back: the rebuild after the
  // restore must use the snapshot's skew.
  ASSERT_TRUE(session.snapshot("base").ok());
  const netlist::Design saved_reference = reference;
  const sta::SkewMap saved_skew = skew;
  skew_round(7);
  motion_round(7);
  expect_answer("before rollback");
  ASSERT_TRUE(session.rollback("base").ok());
  reference = saved_reference;
  skew = saved_skew;
  expect_answer("after rollback");
  motion_round(9);
  const std::int64_t before = scanned.value();
  expect_answer("moves after rollback");
  EXPECT_EQ(scanned.value(), before);
  EXPECT_GT(refiled_by_queries, 0) << "no query re-filed an endpoint";
}

// A rollback restores the engine's skew from the snapshot. A session
// that skews and moves registers, snapshots, then skews, clears and moves
// others, and rolls back must answer query_timing as a fresh session that
// replays only the edits before the snapshot: byte for byte when the
// rollback's rebuild is the session's first sync, and apart from the
// engine's build counters when the later edits were synced first.
TEST(ServiceTest, RollbackToSkewedSnapshotAnswersAsAFreshReplay) {
  const lib::Library library = lib::make_default_library();
  const benchgen::GeneratedDesign generated = reference_design(library);
  std::vector<netlist::CellId> movable;
  for (const netlist::CellId reg : generated.design.registers())
    if (!generated.design.cell(reg).fixed) movable.push_back(reg);
  ASSERT_GE(movable.size(), 12u);

  const auto skew = [](netlist::CellId cell, double value) {
    RecordedEdit e{RecordedEdit::Op::kSkew, cell};
    e.skew = value;
    return e;
  };
  const auto move = [&](netlist::CellId cell, double dx) {
    const netlist::Cell& c = generated.design.cell(cell);
    RecordedEdit e{RecordedEdit::Op::kMove, cell};
    e.x = std::clamp(c.position.x + dx, generated.design.core().xlo,
                     generated.design.core().xhi - c.width());
    e.y = c.position.y;
    return e;
  };
  std::vector<RecordedEdit> kept;
  for (std::size_t k = 0; k < 6; ++k)
    kept.push_back(skew(movable[k], 0.015 * static_cast<double>(k + 1)));
  kept.push_back(move(movable[6], 3.0));
  std::vector<RecordedEdit> undone{
      skew(movable[0], -0.06), skew(movable[8], 0.05), skew(movable[9], 0.04),
      RecordedEdit{RecordedEdit::Op::kClearSkew, movable[1]},
      move(movable[10], -4.0)};

  std::vector<netlist::CellId> queried(movable.begin(), movable.begin() + 12);
  const std::string query = query_request(100, "s", {}, queried);
  // The response without its trailing engine counters.
  const auto timing_part = [](const std::string& response) {
    return response.substr(0, response.find(",\"engine\":"));
  };

  service::Daemon fresh(library, {.jobs = 1});
  parse_ok(fresh.handle_sync(open_request(1, "s")));
  parse_ok(fresh.handle_sync(edits_request(2, "s", kept)));
  const std::string want = fresh.handle_sync(query);
  parse_ok(want);

  service::Daemon rolled(library, {.jobs = 1});
  parse_ok(rolled.handle_sync(open_request(1, "s")));
  parse_ok(rolled.handle_sync(edits_request(2, "s", kept)));
  parse_ok(rolled.handle_sync(simple_request(3, "snapshot", "s", "k")));
  parse_ok(rolled.handle_sync(edits_request(4, "s", undone)));
  parse_ok(rolled.handle_sync(simple_request(5, "rollback", "s", "k")));
  EXPECT_EQ(rolled.handle_sync(query), want) << "rollback before any sync";

  parse_ok(rolled.handle_sync(edits_request(6, "s", undone)));
  const std::string synced = rolled.handle_sync(query);
  EXPECT_NE(timing_part(synced), timing_part(want)) << "a vacuous edit batch";
  parse_ok(rolled.handle_sync(simple_request(7, "rollback", "s", "k")));
  EXPECT_EQ(timing_part(rolled.handle_sync(query)), timing_part(want))
      << "rollback after the later edits were synced";
}

TEST(ServiceTest, ProtocolErrorsAreReported) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});

  const auto expect_error = [&](const std::string& line,
                                const std::string& fragment) {
    const obs::JsonParseResult parsed =
        obs::parse_json(daemon.handle_sync(line));
    ASSERT_TRUE(parsed.ok);
    EXPECT_FALSE(parsed.value.bool_or("ok", true));
    EXPECT_NE(parsed.value.string_or("error", "").find(fragment),
              std::string::npos)
        << parsed.value.string_or("error", "");
  };

  expect_error("this is not json", "parse error");
  expect_error("[1,2,3]", "must be a JSON object");
  expect_error(R"({"id":1,"cmd":"query_timing","session":"nope"})",
               "unknown session");
  expect_error(R"({"id":2,"cmd":"open_design","session":"s"})",
               "profile or a path");
  // The failed open vacated the name; a real open now succeeds.
  parse_ok(daemon.handle_sync(open_request(3, "s")));
  expect_error(open_request(4, "s"), "already open");
  expect_error(R"({"id":5,"cmd":"frobnicate","session":"s"})", "unknown cmd");
  expect_error(
      R"({"id":6,"cmd":"apply_edits","session":"s","edits":[{"op":"move","cell":0,"x":1}]})",
      "numeric x and y");
  expect_error(
      R"({"id":7,"cmd":"apply_edits","session":"s","edits":[{"op":"swap","cell":0,"variant":"NOPE"}]})",
      "");
  expect_error(R"({"id":8,"cmd":"rollback","session":"s","name":"ghost"})",
               "unknown snapshot");
  parse_ok(daemon.handle_sync(simple_request(9, "close", "s")));
  expect_error(query_request(10, "s", {}, {}), "unknown session");
}

// open_design's numeric inputs are bounded before anything is generated:
// 2^32 + 5 registers must not wrap to 5, 10^8 registers must not start a
// minutes-long generation, and max_snapshots has a ceiling. Each gets an
// error response and leaves no session behind.
TEST(ServiceTest, OpenDesignRejectsOutOfRangeNumbers) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  const auto expect_refused = [&](const std::string& line,
                                  const std::string& fragment) {
    const obs::JsonParseResult parsed =
        obs::parse_json(daemon.handle_sync(line));
    ASSERT_TRUE(parsed.ok);
    EXPECT_FALSE(parsed.value.bool_or("ok", true)) << line;
    EXPECT_NE(parsed.value.string_or("error", "").find(fragment),
              std::string::npos)
        << parsed.value.string_or("error", "");
    EXPECT_EQ(daemon.session_count(), 0u) << line;
  };

  expect_refused(
      R"({"id":1,"cmd":"open_design","session":"s","profile":"svc","registers":4294967301})",
      "registers must be");
  expect_refused(
      R"({"id":2,"cmd":"open_design","session":"s","profile":"svc","registers":100000000})",
      "registers must be");
  expect_refused(
      R"({"id":3,"cmd":"open_design","session":"s","profile":"svc","registers":40,"max_snapshots":1000000000000})",
      "max_snapshots must be");
  expect_refused(
      R"({"id":4,"cmd":"open_design","session":"s","profile":"svc","registers":40,"max_snapshots":1e300})",
      "max_snapshots must be");

  // The refusals vacated the name; in-range values open normally.
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", 5).kv("cmd", "open_design").kv("session", "s");
  w.kv("profile", kProfile).kv("registers", service::kMaxOpenRegisters / 50000);
  w.kv("max_snapshots", service::kMaxSessionSnapshots).end_object();
  parse_ok(daemon.handle_sync(os.str()));
  EXPECT_EQ(daemon.session_count(), 1u);
}

// Every open_design parameter outside its range gets an error that names
// the key, and so do list_registers' limit, check's placement and a skew
// edit's clear: none is silently replaced by a default. A refused request
// leaves the open session as it was.
TEST(ServiceTest, RefusedParametersNameTheirKeyAndChangeNothing) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  parse_ok(daemon.handle_sync(open_request(1, "s")));
  std::vector<netlist::CellId> probes;
  const obs::JsonValue listed = parse_ok(daemon.handle_sync(
      R"({"id":1,"cmd":"list_registers","session":"s","limit":3})"));
  for (const obs::JsonValue& entry : listed.find("registers")->array())
    probes.emplace_back(static_cast<std::int32_t>(entry.int_or("cell", -1)));
  ASSERT_EQ(probes.size(), 3u);
  // The timing payload of a query_timing answer; the trailing "engine"
  // member counts the queries themselves.
  const auto timing_answer = [&] {
    const std::string response =
        daemon.handle_sync(query_request(2, "s", {}, probes));
    const obs::JsonValue parsed = parse_ok(response);
    EXPECT_EQ(parsed.find("engine")->int_or("repaired_pins", -1), 0);
    return response.substr(0, response.find(",\"engine\":"));
  };
  const std::string before = timing_answer();

  const auto open_line = [](const std::string& params) {
    return R"({"id":3,"cmd":"open_design","session":"t","profile":"svc")" +
           params + "}";
  };
  const std::vector<std::pair<std::string, std::string>> refused = {
      {open_line(R"(,"seed":0)"), "seed must be"},
      {open_line(R"(,"seed":-3)"), "seed must be"},
      {open_line(R"(,"seed":"7")"), "seed must be"},
      {open_line(R"(,"seed":2.5)"), "seed must be"},
      {open_line(R"(,"clock_period":"0.5")"), "clock_period must be"},
      {open_line(R"(,"clock_period":0)"), "clock_period must be"},
      {open_line(R"(,"clock_period":-0.4)"), "clock_period must be"},
      {open_line(R"(,"clock_period":true)"), "clock_period must be"},
      {open_line(R"(,"registers":1)"), "registers must be"},
      {open_line(R"(,"registers":3)"), "registers must be"},
      {open_line(R"(,"registers":31)"), "registers must be"},
      {open_line(R"(,"registers":0)"), "registers must be"},
      {open_line(R"(,"max_snapshots":-2)"), "max_snapshots must be"},
      {R"({"id":4,"cmd":"list_registers","session":"s","limit":-1})",
       "limit must be"},
      {R"({"id":4,"cmd":"list_registers","session":"s","limit":"10"})",
       "limit must be"},
      {R"({"id":4,"cmd":"list_registers","session":"s","limit":2.5})",
       "limit must be"},
      {R"({"id":5,"cmd":"check","session":"s","placement":"yes"})",
       "placement must be"},
      {R"({"id":5,"cmd":"check","session":"s","placement":1})",
       "placement must be"},
      {R"({"id":6,"cmd":"apply_edits","session":"s","edits":[{"op":"skew","cell":0,"skew":0.05,"clear":"true"}]})",
       "clear must be"},
      {R"({"id":6,"cmd":"apply_edits","session":"s","edits":[{"op":"skew","cell":0,"clear":1}]})",
       "clear must be"},
  };
  for (const auto& [line, fragment] : refused) {
    const obs::JsonParseResult parsed =
        obs::parse_json(daemon.handle_sync(line));
    ASSERT_TRUE(parsed.ok) << line;
    EXPECT_FALSE(parsed.value.bool_or("ok", true)) << line;
    EXPECT_NE(parsed.value.string_or("error", "").find(fragment),
              std::string::npos)
        << line << " -> " << parsed.value.string_or("error", "");
    EXPECT_EQ(daemon.session_count(), 1u) << line;
    EXPECT_EQ(timing_answer(), before) << line;
  }
}

// The register floor is buildable: every standard profile, and a custom
// one, opens at exactly kMinOpenRegisters.
TEST(ServiceTest, OpenDesignBuildsEveryProfileAtTheRegisterFloor) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  std::vector<std::string> names = {kProfile};
  for (const benchgen::DesignProfile& p : benchgen::standard_profiles())
    names.push_back(p.name);
  std::int64_t id = 1;
  for (const std::string& name : names) {
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id++).kv("cmd", "open_design");
    w.kv("session", name).kv("profile", name);
    w.kv("registers", service::kMinOpenRegisters).end_object();
    const obs::JsonValue opened = parse_ok(daemon.handle_sync(os.str()));
    EXPECT_GT(opened.int_or("registers", 0), 0) << name;
    parse_ok(daemon.handle_sync(simple_request(id++, "close", name)));
  }
}

// A batch stopping at its first invalid edit reports the prefix applied
// and the failing index; earlier edits stay applied.
TEST(ServiceTest, EditBatchStopsAtFirstInvalidEdit) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  parse_ok(daemon.handle_sync(open_request(1, "s")));
  const obs::JsonValue regs = parse_ok(daemon.handle_sync(
      simple_request(2, "list_registers", "s")));
  std::int64_t movable = -1;
  for (const obs::JsonValue& entry : regs.find("registers")->array())
    if (!entry.bool_or("fixed", true)) {
      movable = entry.int_or("cell", -1);
      break;
    }
  ASSERT_GE(movable, 0);

  std::vector<RecordedEdit> edits;
  RecordedEdit good{RecordedEdit::Op::kSkew,
                    netlist::CellId(static_cast<std::int32_t>(movable))};
  good.skew = 0.01;
  edits.push_back(good);
  RecordedEdit bad{RecordedEdit::Op::kSwap,
                   netlist::CellId(static_cast<std::int32_t>(movable))};
  bad.variant = "NO_SUCH_CELL";
  edits.push_back(bad);

  const obs::JsonParseResult parsed =
      obs::parse_json(daemon.handle_sync(edits_request(3, "s", edits)));
  ASSERT_TRUE(parsed.ok);
  EXPECT_FALSE(parsed.value.bool_or("ok", true));
  EXPECT_EQ(parsed.value.int_or("applied", -1), 1);
  EXPECT_EQ(parsed.value.int_or("error_index", -1), 1);
}

// The NDJSON serve loop: requests in, one response line each, shutdown
// stops the loop.
TEST(ServiceTest, ServeLoopSpeaksNdjson) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});

  std::istringstream in(open_request(1, "s") + "\n" +
                        query_request(2, "s", {}, {}) + "\n" +
                        R"({"id":3,"cmd":"shutdown"})" "\n" +
                        R"({"id":4,"cmd":"ping"})" "\n");
  std::ostringstream out;
  const std::size_t served = daemon.serve(in, out);
  EXPECT_EQ(served, 3u);  // the post-shutdown line is never read
  EXPECT_TRUE(daemon.shutdown_requested());

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::int64_t> ids;
  while (std::getline(lines, line)) {
    const obs::JsonParseResult parsed = obs::parse_json(line);
    ASSERT_TRUE(parsed.ok) << line;
    EXPECT_TRUE(parsed.value.bool_or("ok", false)) << line;
    ids.push_back(parsed.value.int_or("id", -1));
  }
  EXPECT_EQ(ids, (std::vector<std::int64_t>{1, 2, 3}));
}

std::int64_t bad_requests() {
  return obs::counter("service.requests.bad").value();
}

void expect_line_too_long(const std::string& response) {
  const obs::JsonParseResult parsed = obs::parse_json(response);
  ASSERT_TRUE(parsed.ok) << response.substr(0, 200);
  EXPECT_EQ(parsed.value.int_or("id", 0), -1);
  EXPECT_FALSE(parsed.value.bool_or("ok", true));
  EXPECT_NE(parsed.value.string_or("error", "").find("exceeds"),
            std::string::npos)
      << parsed.value.string_or("error", "");
}

// A request line over kMaxRequestLineBytes is answered with an error, not
// buffered; the stdio loop skips to the next newline and keeps serving. A
// line of exactly the cap is still a request.
TEST(ServiceTest, ServeLoopRejectsOversizedLine) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  const std::string ping = R"({"id":2,"cmd":"ping"})";
  const std::string at_cap =
      std::string(service::kMaxRequestLineBytes - ping.size(), ' ') + ping;
  std::istringstream in(std::string(service::kMaxRequestLineBytes + 1, 'x') +
                        "\n" + at_cap + "\n");
  std::ostringstream out;
  const std::int64_t bad_before = bad_requests();
  EXPECT_EQ(daemon.serve(in, out), 2u);
  EXPECT_EQ(bad_requests() - bad_before, 1);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  expect_line_too_long(line);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(parse_ok(line).int_or("id", -1), 2);
  EXPECT_FALSE(std::getline(lines, line));
}

/// A blocking test client on the daemon's unix socket; reads time out so
/// a server that never answers fails the test instead of hanging it.
class SocketClient {
public:
  explicit SocketClient(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~SocketClient() { ::close(fd_); }
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  bool connected() const { return connected_; }

  void send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;  // the server closed the connection
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next line without its '\n'; empty on EOF, error or timeout.
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

private:
  int fd_ = -1;
  bool connected_ = false;
  std::string inbuf_;
};

// The socket transport answers a client that sends an oversized line with
// no newline, then closes that connection; other clients keep being served.
TEST(ServiceTest, SocketServerRejectsOversizedLine) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 2});
  service::SocketServerOptions server_options;
  server_options.path = testing::TempDir() + "service_line_cap.sock";
  server_options.poll_interval_ms = 5;
  service::SocketServer server(daemon, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  std::thread serving([&server] { server.run(); });

  const std::int64_t bad_before = bad_requests();
  {
    SocketClient hostile(server_options.path);
    ASSERT_TRUE(hostile.connected());
    hostile.send_all(std::string(service::kMaxRequestLineBytes + 1, 'x'));
    expect_line_too_long(hostile.recv_line());
    EXPECT_EQ(hostile.recv_line(), "");  // closed by the server
  }
  EXPECT_EQ(bad_requests() - bad_before, 1);

  SocketClient polite(server_options.path);
  ASSERT_TRUE(polite.connected());
  polite.send_all(R"({"id":1,"cmd":"ping"})" "\n");
  EXPECT_EQ(parse_ok(polite.recv_line()).int_or("id", -1), 1);
  polite.send_all(R"({"id":2,"cmd":"shutdown"})" "\n");
  EXPECT_EQ(parse_ok(polite.recv_line()).int_or("id", -1), 2);
  serving.join();
}

// recompose_region consumes the touched set: edits -> plan over the edited
// neighborhood only; a second recompose with nothing touched is empty.
TEST(ServiceTest, RecomposePlansTouchedSubgraphsOnly) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  parse_ok(daemon.handle_sync(open_request(1, "s")));

  const obs::JsonValue empty = parse_ok(
      daemon.handle_sync(simple_request(2, "recompose_region", "s")));
  EXPECT_EQ(empty.int_or("region_registers", -1), 0);
  EXPECT_EQ(empty.int_or("subgraphs", -1), 0);

  const obs::JsonValue regs = parse_ok(daemon.handle_sync(
      simple_request(3, "list_registers", "s")));
  std::vector<RecordedEdit> edits;
  for (const obs::JsonValue& entry : regs.find("registers")->array()) {
    if (entry.bool_or("fixed", true)) continue;
    RecordedEdit e{RecordedEdit::Op::kSkew,
                   netlist::CellId(static_cast<std::int32_t>(
                       entry.int_or("cell", -1)))};
    e.skew = 0.005;
    edits.push_back(e);
    if (edits.size() >= 4) break;
  }
  ASSERT_FALSE(edits.empty());
  parse_ok(daemon.handle_sync(edits_request(4, "s", edits)));

  const obs::JsonValue touched = parse_ok(
      daemon.handle_sync(simple_request(5, "recompose_region", "s")));
  EXPECT_EQ(touched.int_or("region_registers", -1),
            static_cast<std::int64_t>(edits.size()));
  EXPECT_GE(touched.int_or("subgraphs", -1), 1);

  const obs::JsonValue drained = parse_ok(
      daemon.handle_sync(simple_request(6, "recompose_region", "s")));
  EXPECT_EQ(drained.int_or("region_registers", -1), 0);
}

// recompose_region plans under the session's allocator: a heuristic
// session solves no ILP, on the same subgraphs an ILP session plans.
TEST(ServiceTest, RecomposeRunsTheSessionAllocator) {
  const lib::Library library = lib::make_default_library();
  const auto full_plan = [&](mbr::Allocator allocator) {
    service::DaemonOptions options;
    options.session_defaults.composition.allocator = allocator;
    service::Daemon daemon(library, options);
    parse_ok(daemon.handle_sync(open_request(1, "s")));
    const obs::JsonValue regs =
        parse_ok(daemon.handle_sync(simple_request(2, "list_registers", "s")));
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", 3).kv("cmd", "recompose_region");
    w.kv("session", "s").key("region").begin_array();
    for (const obs::JsonValue& entry : regs.find("registers")->array())
      w.value(entry.int_or("cell", -1));
    w.end_array().end_object();
    return parse_ok(daemon.handle_sync(os.str()));
  };
  const obs::JsonValue ilp = full_plan(mbr::Allocator::kIlp);
  const obs::CountersSnapshot before = obs::counters_snapshot();
  const obs::JsonValue greedy = full_plan(mbr::Allocator::kHeuristic);
  // The delta drops zero entries.
  EXPECT_EQ(obs::counters_delta(before, obs::counters_snapshot())
                .counters.count("ilp.set_partition.solves"),
            0u);

  EXPECT_GT(ilp.int_or("ilp_nodes", -1), 0);
  EXPECT_EQ(greedy.int_or("ilp_nodes", -1), 0);
  EXPECT_EQ(greedy.number_or("objective", -1.0), 0.0);
  EXPECT_GT(greedy.int_or("planned_mbrs", -1), 0);
  EXPECT_EQ(greedy.int_or("subgraphs", -1), ilp.int_or("subgraphs", -2));
  EXPECT_EQ(greedy.int_or("region_registers", -1),
            ilp.int_or("region_registers", -2));
}

// Per-request cost knobs: absent knobs echo the session's model (the
// paper default), present knobs override for that plan only and the
// response echoes the effective values.
TEST(ServiceTest, RecomposeCostKnobsEchoEffectiveModel) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {.jobs = 1});
  parse_ok(daemon.handle_sync(open_request(1, "s")));

  const obs::JsonValue plain = parse_ok(
      daemon.handle_sync(simple_request(2, "recompose_region", "s")));
  const obs::JsonValue* defaults = plain.find("cost");
  ASSERT_NE(defaults, nullptr);
  EXPECT_EQ(defaults->number_or("alpha", -1.0), 1.0);
  EXPECT_EQ(defaults->number_or("beta", -1.0), 0.0);
  EXPECT_EQ(defaults->number_or("gamma", -1.0), 0.0);

  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", 3).kv("cmd", "recompose_region");
  w.kv("session", "s").kv("beta", 0.25).kv("gamma", 0.125);
  w.end_object();
  const obs::JsonValue priced = parse_ok(daemon.handle_sync(os.str()));
  const obs::JsonValue* cost = priced.find("cost");
  ASSERT_NE(cost, nullptr);
  // alpha was absent, so the session default survives the override.
  EXPECT_EQ(cost->number_or("alpha", -1.0), 1.0);
  EXPECT_EQ(cost->number_or("beta", -1.0), 0.25);
  EXPECT_EQ(cost->number_or("gamma", -1.0), 0.125);

  // The override is per request: the next plain plan is back on defaults.
  const obs::JsonValue again = parse_ok(
      daemon.handle_sync(simple_request(4, "recompose_region", "s")));
  EXPECT_EQ(again.find("cost")->number_or("beta", -1.0), 0.0);

  // A present knob must be a number in [0, kMaxCostWeight]: a string or a
  // bool is not silently replaced by the default, and a negative or huge
  // weight is refused before it reaches the solver. Every request plans
  // the whole design, so a knob that got through would reach the solver.
  std::string region = "[";
  const obs::JsonValue regs =
      parse_ok(daemon.handle_sync(simple_request(5, "list_registers", "s")));
  for (const obs::JsonValue& entry : regs.find("registers")->array()) {
    if (region.size() > 1) region += ",";
    region += std::to_string(entry.int_or("cell", -1));
  }
  region += "]";
  const auto full_plan = [&](const std::string& knobs) {
    return daemon.handle_sync(
        R"({"id":6,"cmd":"recompose_region","session":"s","region":)" +
        region + knobs + "}");
  };
  const std::string before = full_plan("");
  EXPECT_GT(parse_ok(before).int_or("region_registers", -1), 0);
  for (const char* knobs :
       {R"(,"alpha":"2")", R"(,"gamma":true)", R"(,"alpha":-1)",
        R"(,"beta":-5)", R"(,"beta":1000001)",
        R"(,"alpha":1e308,"beta":1e308)"}) {
    const obs::JsonParseResult parsed = obs::parse_json(full_plan(knobs));
    ASSERT_TRUE(parsed.ok);
    EXPECT_FALSE(parsed.value.bool_or("ok", true)) << knobs;
    EXPECT_NE(parsed.value.string_or("error", "").find(
                  "must be a number in [0, 1000000]"),
              std::string::npos)
        << parsed.value.string_or("error", "");
  }
  // The refused requests left the session as it was.
  EXPECT_EQ(full_plan(""), before);
}

// --- live telemetry (DESIGN.md §11) ----------------------------------------

std::vector<std::string> member_keys(const obs::JsonValue& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.members()) keys.push_back(key);
  return keys;
}

// Pins the stats verb's byte layout the way FlowReport's options echo is
// pinned: top-level key order and every gauge subtree are load-bearing for
// dashboards, so adding a metric somewhere else must show up as a diff
// here. The "counters"/"histograms" subtrees are the process-global obs
// registry -- their key SET depends on what else this process ran, so only
// their presence is pinned.
TEST(ServiceTest, StatsVerbPinsKeyLayout) {
  const lib::Library library = lib::make_default_library();
  service::Daemon daemon(library, {});
  parse_ok(daemon.handle_sync(open_request(1, "s")));
  parse_ok(daemon.handle_sync(
      query_request(2, "s", {}, {})));
  parse_ok(daemon.handle_sync(simple_request(3, "snapshot", "s", "base")));

  const obs::JsonValue stats =
      parse_ok(daemon.handle_sync("{\"id\":4,\"cmd\":\"stats\"}"));
  EXPECT_EQ(member_keys(stats),
            (std::vector<std::string>{"id", "ok", "service", "verbs", "pool",
                                      "sessions", "counters", "histograms",
                                      "trace"}));

  const obs::JsonValue* service = stats.find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(member_keys(*service),
            (std::vector<std::string>{"jobs", "sessions_open", "shutdown"}));
  EXPECT_EQ(service->int_or("jobs", -1), 1);
  EXPECT_EQ(service->int_or("sessions_open", -1), 1);

  const obs::JsonValue* verbs = stats.find("verbs");
  ASSERT_NE(verbs, nullptr);
  for (const char* verb : {"open_design", "query_timing", "snapshot"}) {
    const obs::JsonValue* entry = verbs->find(verb);
    ASSERT_NE(entry, nullptr) << verb;
    EXPECT_EQ(member_keys(*entry),
              (std::vector<std::string>{"count", "p50_us", "p95_us", "p99_us",
                                        "max_us"}))
        << verb;
    EXPECT_GE(entry->int_or("count", 0), 1) << verb;
  }

  const obs::JsonValue* pool = stats.find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(member_keys(*pool),
            (std::vector<std::string>{"workers", "queue_depth",
                                      "queue_depth_peak", "active_workers"}));

  const obs::JsonValue* sessions = stats.find("sessions");
  ASSERT_NE(sessions, nullptr);
  const obs::JsonValue* gauges = sessions->find("s");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(member_keys(*gauges),
            (std::vector<std::string>{"requests", "journal_length",
                                      "snapshots", "topology_version",
                                      "engine", "compat"}));
  EXPECT_EQ(gauges->int_or("requests", -1), 3);
  EXPECT_EQ(gauges->int_or("snapshots", -1), 1);
  const obs::JsonValue* engine = gauges->find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(member_keys(*engine),
            (std::vector<std::string>{"full_builds", "incremental_updates"}));
  EXPECT_EQ(engine->int_or("full_builds", -1), 1);
  // No recompose yet: the session's compatibility graph is built lazily.
  const obs::JsonValue* compat = gauges->find("compat");
  ASSERT_NE(compat, nullptr);
  EXPECT_EQ(member_keys(*compat),
            (std::vector<std::string>{"full_builds", "incremental_updates"}));
  EXPECT_EQ(compat->int_or("full_builds", -1), 0);
  EXPECT_EQ(compat->int_or("incremental_updates", -1), 0);

  EXPECT_NE(stats.find("counters"), nullptr);
  EXPECT_NE(stats.find("histograms"), nullptr);
  const obs::JsonValue* trace = stats.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(member_keys(*trace), (std::vector<std::string>{"active", "path"}));
  EXPECT_FALSE(trace->bool_or("active", true));
}

std::map<std::string, std::int64_t> counters_of(const obs::JsonValue& stats) {
  const obs::JsonValue* counters = stats.find("counters");
  EXPECT_NE(counters, nullptr);
  std::map<std::string, std::int64_t> values;
  if (counters != nullptr)
    for (const auto& [key, value] : counters->members())
      values[key] = static_cast<std::int64_t>(value.as_number());
  return values;
}

// The determinism split the stats verb promises: its latency/gauge fields
// are measurement-only, but the obs counter DELTAS a transcript produces
// are part of the determinism contract -- identical at jobs=1 and jobs=4
// even with stats requests racing mid-transcript.
TEST(ServiceTest, StatsCounterDeltasBitIdenticalAcrossJobs) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = reference_design(library);
  sta::SkewMap skew;
  util::Rng rng(404);

  std::vector<std::string> transcript;
  std::int64_t id = 1;
  for (const char* session : {"a", "b"})
    transcript.push_back(open_request(id++, session));
  for (int burst = 0; burst < 6; ++burst) {
    for (const char* session : {"a", "b"}) {
      transcript.push_back(edits_request(
          id++, session, mutate_reference(generated.design, skew, rng)));
      transcript.push_back(query_request(id++, session, {}, {}));
      if (burst % 2 == 1)  // the kept compatibility graph's counters too
        transcript.push_back(simple_request(id++, "recompose_region", session));
    }
    if (burst == 3)  // stats racing mid-transcript must not perturb deltas
      transcript.push_back("{\"id\":" + std::to_string(id++) +
                           ",\"cmd\":\"stats\"}");
  }

  const auto run_at = [&](int jobs) {
    service::DaemonOptions options;
    options.jobs = jobs;
    service::Daemon daemon(library, options);
    const std::map<std::string, std::int64_t> before =
        counters_of(parse_ok(daemon.handle_sync("{\"id\":0,\"cmd\":\"stats\"}")));
    run_transcript(daemon, transcript);
    const std::map<std::string, std::int64_t> after =
        counters_of(parse_ok(daemon.handle_sync("{\"id\":0,\"cmd\":\"stats\"}")));
    std::map<std::string, std::int64_t> delta;
    for (const auto& [key, value] : after)
      delta[key] = value - (before.contains(key) ? before.at(key) : 0);
    return delta;
  };

  const auto serial = run_at(1);
  const auto pooled = run_at(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_GT(serial.at("service.edits.applied"), 0);
  EXPECT_EQ(serial.at("mbr.compat.full_builds"), 2);  // one per session
  EXPECT_EQ(serial.at("mbr.compat.incremental_updates"), 4);
}

// A live-traced run that ends via shutdown (not trace_stop) must keep the
// tail of the trace: shutdown flushes the tracer before the daemon dies.
TEST(ServiceTest, ShutdownFlushesActiveTrace) {
  const std::string trace_path =
      testing::TempDir() + "service_trace_shutdown.json";
  std::remove(trace_path.c_str());
  const lib::Library library = lib::make_default_library();
  {
    service::DaemonOptions options;
    options.jobs = 4;
    service::Daemon daemon(library, options);
    parse_ok(daemon.handle_sync(open_request(1, "s")));
    parse_ok(daemon.handle_sync("{\"id\":2,\"cmd\":\"trace_start\",\"path\":\"" +
                                trace_path + "\"}"));
    parse_ok(daemon.handle_sync(query_request(3, "s", {}, {})));
    parse_ok(daemon.handle_sync("{\"id\":4,\"cmd\":\"shutdown\"}"));
    // Flushed by the shutdown request itself, not the destructor: the
    // file is complete before the daemon object goes away.
    EXPECT_FALSE(daemon.finish_trace());
  }

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonParseResult parsed = obs::parse_json(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const obs::JsonValue* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->array().empty());
  std::remove(trace_path.c_str());
}

// Same contract when the transport tears the daemon down: a socket server
// whose accept loop exits on idle timeout flushes the live trace too.
TEST(ServiceTest, IdleTimeoutTeardownFlushesActiveTrace) {
  const std::string trace_path =
      testing::TempDir() + "service_trace_idle.json";
  std::remove(trace_path.c_str());
  const lib::Library library = lib::make_default_library();
  service::DaemonOptions options;
  options.jobs = 2;
  service::Daemon daemon(library, options);
  parse_ok(daemon.handle_sync(open_request(1, "s")));
  parse_ok(daemon.handle_sync("{\"id\":2,\"cmd\":\"trace_start\",\"path\":\"" +
                              trace_path + "\"}"));
  parse_ok(daemon.handle_sync(query_request(3, "s", {}, {})));

  service::SocketServerOptions server_options;
  server_options.path = testing::TempDir() + "service_trace_idle.sock";
  server_options.poll_interval_ms = 5;
  server_options.idle_timeout_seconds = 0.05;
  service::SocketServer server(daemon, server_options);
  ASSERT_TRUE(server.start()) << server.error();
  server.run();  // no client ever connects; returns via the idle timeout

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonParseResult parsed = obs::parse_json(buffer.str());
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_FALSE(daemon.finish_trace());  // already flushed by the teardown
  std::remove(trace_path.c_str());
}

// The always-on flight recorder answers "what led up to this?": plant a
// placement-legality failure (two registers moved onto the same spot),
// issue a placement check, and the daemon must leave a dump whose recent
// events name the failing session's request/edit history.
TEST(ServiceTest, FlightRecorderDumpsOnPlantedCheckerFailure) {
  const std::string dump_path = testing::TempDir() + "service_flight.json";
  std::remove(dump_path.c_str());
  const lib::Library library = lib::make_default_library();
  service::DaemonOptions options;
  options.flight_dump_path = dump_path;
  service::Daemon daemon(library, options);
  parse_ok(daemon.handle_sync(open_request(1, "victim")));

  benchgen::GeneratedDesign generated = reference_design(library);
  std::vector<netlist::CellId> movable;
  for (netlist::CellId reg : generated.design.registers())
    if (!generated.design.cell(reg).fixed) movable.push_back(reg);
  ASSERT_GE(movable.size(), 2u);

  // Enough traffic that the dump can name the last >= 32 events.
  std::int64_t id = 2;
  for (int i = 0; i < 40; ++i) {
    RecordedEdit e{RecordedEdit::Op::kSkew, movable[0]};
    e.skew = 0.001 * (i + 1);
    parse_ok(daemon.handle_sync(edits_request(id++, "victim", {e})));
  }
  for (netlist::CellId reg : {movable[0], movable[1]}) {
    RecordedEdit e{RecordedEdit::Op::kMove, reg};
    e.x = generated.design.core().xlo;
    e.y = generated.design.core().ylo;
    parse_ok(daemon.handle_sync(edits_request(id++, "victim", {e})));
  }

  const std::string response = daemon.handle_sync(
      "{\"id\":99,\"cmd\":\"check\",\"session\":\"victim\","
      "\"placement\":true}");
  const obs::JsonParseResult parsed = obs::parse_json(response);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_FALSE(parsed.value.bool_or("ok", true)) << response;
  EXPECT_EQ(parsed.value.string_or("flight_dump", ""), dump_path);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good()) << dump_path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonParseResult dump = obs::parse_json(buffer.str());
  ASSERT_TRUE(dump.ok) << dump.error;
  EXPECT_EQ(dump.value.string_or("kind", ""), "flight_recorder");
  EXPECT_EQ(dump.value.string_or("trigger", ""), "checker failure");
  const obs::JsonValue* events = dump.value.find("events");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->array().size(), 32u);
  std::size_t on_strand = 0;
  for (const obs::JsonValue& event : events->array())
    if (event.string_or("detail", "").rfind("victim", 0) == 0) ++on_strand;
  EXPECT_GE(on_strand, 32u);
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace mbrc
