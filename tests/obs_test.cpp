// Observability layer tests: the JSON writer's structure and formatting
// guarantees, counter/histogram registry semantics (interning, snapshots,
// deltas), the StageStore accounting, and the span tracer's lifecycle and
// well-nestedness contract -- including a multi-thread stress run that the
// CI thread-sanitizer job executes to pin down the lock-free recording
// path.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mbr/flow.hpp"
#include "mbr/report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/stage_store.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"

namespace mbrc::obs {
namespace {

// --- JsonWriter ------------------------------------------------------------

TEST(JsonWriter, CompactObjectWithNestedArray) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.kv("name", "flow").kv("jobs", 4).kv("on", true);
  w.key("xs").begin_array().value(1).value(2).end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os.str(), R"({"name":"flow","jobs":4,"on":true,"xs":[1,2]})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, DoublesUseShortestRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value(0.1).value(1.0).value(2.5);
  w.end_array();
  EXPECT_EQ(os.str(), "[0.1,1,2.5]");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriter, CompleteOnlyAfterTopLevelCloses) {
  std::ostringstream os;
  JsonWriter w(os, 2);
  EXPECT_FALSE(w.complete());
  w.begin_object();
  EXPECT_FALSE(w.complete());
  w.end_object();
  EXPECT_TRUE(w.complete());
}

// --- Counter / Histogram registry ------------------------------------------

TEST(Counters, InterningReturnsStableReference) {
  Counter& a = counter("obs_test.intern");
  Counter& b = counter("obs_test.intern");
  EXPECT_EQ(&a, &b);
  a.add(3);
  b.add(2);
  EXPECT_EQ(a.value(), 5);
}

TEST(Counters, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);

  Histogram h;
  for (std::int64_t v : {0, 1, 2, 3, 4, 7, 8}) h.record(v);
  EXPECT_EQ(h.count(), 7);
  EXPECT_EQ(h.sum(), 25);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(2), 2);
  EXPECT_EQ(h.bucket(3), 2);
}

TEST(Counters, PercentileUsesFloorRankOverSortedSamples) {
  EXPECT_EQ(Histogram::percentile({}, 0.5), 0.0);
  EXPECT_EQ(Histogram::percentile({42.0}, 0.0), 42.0);
  EXPECT_EQ(Histogram::percentile({42.0}, 0.99), 42.0);

  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(static_cast<double>(i));
  // Rank floor(q * n), clamped to the last sample: the convention the
  // service bench has always reported, now shared through this helper.
  EXPECT_EQ(Histogram::percentile(sorted, 0.50), 51.0);
  EXPECT_EQ(Histogram::percentile(sorted, 0.95), 96.0);
  EXPECT_EQ(Histogram::percentile(sorted, 0.99), 100.0);
  EXPECT_EQ(Histogram::percentile(sorted, 1.0), 100.0);
}

TEST(Counters, DeltaContainsOnlyTouchedEntries) {
  const CountersSnapshot before = counters_snapshot();
  counter("obs_test.delta.c").add(7);
  histogram("obs_test.delta.h").record(5);
  const CountersSnapshot delta =
      counters_delta(before, counters_snapshot());

  ASSERT_EQ(delta.counters.size(), 1u);
  EXPECT_EQ(delta.counters.at("obs_test.delta.c"), 7);
  ASSERT_EQ(delta.histograms.size(), 1u);
  const HistogramSnapshot& h = delta.histograms.at("obs_test.delta.h");
  EXPECT_EQ(h.count, 1);
  EXPECT_EQ(h.sum, 5);
  EXPECT_EQ(h.buckets, (std::map<int, std::int64_t>{{3, 1}}));
}

TEST(Counters, SnapshotsCompareByValue) {
  const CountersSnapshot before = counters_snapshot();
  counter("obs_test.eq.c").add(1);
  const CountersSnapshot a = counters_delta(before, counters_snapshot());
  CountersSnapshot b = a;
  EXPECT_EQ(a, b);
  b.counters["obs_test.eq.c"] = 2;
  EXPECT_NE(a, b);
}

TEST(Counters, FormatListsEntriesInNameOrder) {
  CountersSnapshot s;
  s.counters["b.second"] = 2;
  s.counters["a.first"] = 1;
  const std::string text = format_counters(s);
  const std::size_t first = text.find("a.first");
  const std::size_t second = text.find("b.second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

// --- StageStore ------------------------------------------------------------

TEST(StageStoreTest, SlotsInternAndAccumulate) {
  StageStore store;
  StageStore::Slot& s = store.slot("compose");
  EXPECT_EQ(&s, &store.slot("compose"));
  s.record(0.5, 10);
  s.record(0.25, 6);
  const StageTable table = store.snapshot();
  ASSERT_TRUE(table.contains("compose"));
  EXPECT_DOUBLE_EQ(table.at("compose").seconds, 0.75);
  EXPECT_EQ(table.at("compose").calls, 2);
  EXPECT_EQ(table.at("compose").items, 16);
  EXPECT_NE(store.report().find("compose"), std::string::npos);
}

TEST(StageTimerTest, RecordsCallsItemsAndTime) {
  StageStore store;
  for (int i = 0; i < 3; ++i) {
    StageTimer timer(store, "stage.a");
    timer.add_items(10);
  }
  {
    StageTimer timer(store, "stage.b");
    timer.stop();
    timer.stop();  // idempotent: records once
  }

  const StageTable table = store.snapshot();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table.at("stage.a").calls, 3);
  EXPECT_EQ(table.at("stage.a").items, 30);
  EXPECT_GE(table.at("stage.a").seconds, 0.0);
  EXPECT_EQ(table.at("stage.b").calls, 1);

  const std::string report = format_stage_table(table);
  EXPECT_NE(report.find("stage.a"), std::string::npos);
  EXPECT_NE(report.find("stage.b"), std::string::npos);
}

TEST(StageTimerTest, ConcurrentRecordsAggregate) {
  StageStore store;
  runtime::ThreadPool pool(4);
  runtime::parallel_for(&pool, 4, 100, [&](std::size_t) {
    StageTimer timer(store, "hot");
    timer.add_items(1);
  });
  const StageTable table = store.snapshot();
  EXPECT_EQ(table.at("hot").calls, 100);
  EXPECT_EQ(table.at("hot").items, 100);
}

// --- Tracer / Span ---------------------------------------------------------

/// Asserts the per-thread completion-ordered event sequence is well-nested:
/// every deeper event is contained in the parent that completes after it,
/// nesting depth never skips a level, and whatever remains unparented is
/// top-level.
void check_well_nested(const std::vector<TraceEvent>& seq) {
  std::vector<TraceEvent> pending;
  for (const TraceEvent& e : seq) {
    while (!pending.empty() && pending.back().depth > e.depth) {
      const TraceEvent child = pending.back();
      pending.pop_back();
      ASSERT_EQ(child.depth, e.depth + 1)
          << "nesting skips a level under '" << e.name << "'";
      EXPECT_LE(e.start_us, child.start_us)
          << "'" << child.name << "' starts before parent '" << e.name << "'";
      EXPECT_GE(e.start_us + e.dur_us, child.start_us + child.dur_us)
          << "'" << child.name << "' outlives parent '" << e.name << "'";
    }
    pending.push_back(e);
  }
  for (const TraceEvent& e : pending)
    EXPECT_EQ(e.depth, 0) << "'" << e.name << "' never got a parent";
}

TEST(Trace, SpanWithoutTracerIsANoOp) {
  ASSERT_EQ(Tracer::active(), nullptr);
  {
    Span a("untraced");
    Span b("also-untraced");
  }
  EXPECT_EQ(Tracer::active(), nullptr);
}

TEST(Trace, CollectsNestedSpansWithDepths) {
  Tracer tracer;
  tracer.install();
  Tracer::set_thread_label("test-main");
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  tracer.uninstall();
  const TraceData data = tracer.take();

  ASSERT_EQ(data.events.size(), 2u);
  // Completion order: children before parents.
  EXPECT_EQ(data.events[0].name, "inner");
  EXPECT_EQ(data.events[0].depth, 1);
  EXPECT_EQ(data.events[1].name, "outer");
  EXPECT_EQ(data.events[1].depth, 0);
  EXPECT_EQ(data.events[0].tid, data.events[1].tid);
  check_well_nested(data.events);

  ASSERT_EQ(data.thread_names.size(), 1u);
  EXPECT_EQ(data.thread_names.begin()->second, "test-main");
}

TEST(Trace, SecondTracerDoesNotInheritEvents) {
  {
    Tracer first;
    first.install();
    { Span s("first-only"); }
    first.uninstall();
    EXPECT_EQ(first.take().events.size(), 1u);
  }
  Tracer second;
  second.install();
  { Span s("second-only"); }
  second.uninstall();
  const TraceData data = second.take();
  ASSERT_EQ(data.events.size(), 1u);
  EXPECT_EQ(data.events[0].name, "second-only");
}

TEST(Trace, ConcurrentSpansFromManyThreadsAreWellNested) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;

  Tracer tracer;
  tracer.install();
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Tracer::set_thread_label("stress-" + std::to_string(t));
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kIterations; ++i) {
        Span a("level0");
        Span b("level1");
        Span c("level2");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  tracer.uninstall();
  const TraceData data = tracer.take();

  EXPECT_EQ(data.events.size(),
            static_cast<std::size_t>(kThreads * kIterations * 3));
  EXPECT_EQ(data.thread_names.size(), static_cast<std::size_t>(kThreads));

  std::map<std::uint32_t, std::vector<TraceEvent>> by_tid;
  for (const TraceEvent& e : data.events) by_tid[e.tid].push_back(e);
  EXPECT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, seq] : by_tid) {
    EXPECT_EQ(seq.size(), static_cast<std::size_t>(kIterations * 3));
    check_well_nested(seq);
  }
}

// --- Chrome trace export ---------------------------------------------------

/// Structural JSON validation: balanced braces/brackets outside strings and
/// a single top-level value. (CI additionally parses the real artifacts
/// with python3 -m json.tool.)
bool structurally_valid_json(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false, escaped = false, saw_top = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); saw_top = true; break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string && saw_top;
}

TEST(Trace, ChromeExportIsStructurallyValidJson) {
  Tracer tracer;
  tracer.install();
  Tracer::set_thread_label("exporter \"main\"");  // exercises escaping
  {
    Span outer("outer");
    { Span inner("inner/with:punct"); }
  }
  tracer.uninstall();

  std::ostringstream os;
  write_chrome_trace(os, tracer.take());
  const std::string text = os.str();

  EXPECT_TRUE(structurally_valid_json(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_NE(text.find("exporter \\\"main\\\""), std::string::npos);
}

TEST(Trace, EmptyTraceStillExportsValidDocument) {
  std::ostringstream os;
  write_chrome_trace(os, TraceData{});
  EXPECT_TRUE(structurally_valid_json(os.str())) << os.str();
}

// --- JsonReader ------------------------------------------------------------

TEST(JsonReader, ParsesScalarsStringsArraysObjects) {
  const JsonParseResult r = parse_json(
      R"({"a": 1.5, "b": [true, null, "x\nA"], "c": {"d": -2}})");
  ASSERT_TRUE(r.ok) << r.error;
  const JsonValue& v = r.value;
  EXPECT_EQ(v.number_or("a", 0.0), 1.5);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array().size(), 3u);
  EXPECT_TRUE(b->array()[0].as_bool());
  EXPECT_TRUE(b->array()[1].is_null());
  EXPECT_EQ(b->array()[2].as_string(), "x\nA");
  ASSERT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find("c")->int_or("d", 0), -2);
}

TEST(JsonReader, WriteParseRoundTripIsBitExactForDoubles) {
  // JsonWriter emits shortest-round-trip doubles, so write -> parse must
  // reproduce the exact bits (the service tests' byte-identity contract
  // leans on this).
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          -0.0,
                          1e-300,
                          5e-324,
                          1.7976931348623157e308,
                          3.141592653589793,
                          -123456.789012345};
  for (double expected : cases) {
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.begin_object().kv("v", expected).end_object();
    const JsonParseResult r = parse_json(os.str());
    ASSERT_TRUE(r.ok) << os.str() << ": " << r.error;
    const double parsed = r.value.number_or("v", 42.0);
    EXPECT_EQ(parsed, expected) << os.str();
    EXPECT_EQ(std::signbit(parsed), std::signbit(expected)) << os.str();
  }
}

TEST(JsonReader, NonFiniteDoublesRoundTripAsNull) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object()
      .kv("inf", std::numeric_limits<double>::infinity())
      .kv("nan", std::numeric_limits<double>::quiet_NaN())
      .end_object();
  const JsonParseResult r = parse_json(os.str());
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_NE(r.value.find("inf"), nullptr);
  EXPECT_TRUE(r.value.find("inf")->is_null());
  ASSERT_NE(r.value.find("nan"), nullptr);
  EXPECT_TRUE(r.value.find("nan")->is_null());
}

TEST(JsonReader, AsIntRejectsFractionsAndOutOfRange) {
  EXPECT_EQ(parse_json("42").value.as_int(), 42);
  EXPECT_EQ(parse_json("-7").value.as_int(), -7);
  EXPECT_FALSE(parse_json("1.5").value.as_int().has_value());
  EXPECT_FALSE(parse_json("1e300").value.as_int().has_value());
}

TEST(JsonReader, RejectsTrailingContentAndBadSyntax) {
  EXPECT_FALSE(parse_json("{} x").ok);
  EXPECT_FALSE(parse_json("{\"a\":}").ok);
  EXPECT_FALSE(parse_json("\"unterminated").ok);
  EXPECT_FALSE(parse_json("[1,]").ok);
  EXPECT_FALSE(parse_json("").ok);
}

TEST(JsonReader, DepthBoundStopsHostileNesting) {
  EXPECT_TRUE(
      parse_json(std::string(10, '[') + std::string(10, ']'), 64).ok);
  EXPECT_FALSE(
      parse_json(std::string(100, '[') + std::string(100, ']'), 64).ok);
}

TEST(JsonReader, DuplicateKeysKeepOrderAndLastWinsOnLookup) {
  const JsonParseResult r = parse_json(R"({"k": 1, "j": 2, "k": 3})");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.int_or("k", 0), 3);
  ASSERT_EQ(r.value.members().size(), 3u);
  EXPECT_EQ(r.value.members()[0].first, "k");
  EXPECT_EQ(r.value.members()[1].first, "j");
}

// --- flow report options echo ----------------------------------------------

namespace completeness {

/// Flattens every leaf of a parsed JSON object into "a.b.c" -> printed
/// value, so the echo can be compared structurally.
void flatten_leaves(const JsonValue& value, const std::string& prefix,
                    std::map<std::string, std::string>& out) {
  if (value.is_object()) {
    for (const auto& [key, member] : value.members())
      flatten_leaves(member, prefix.empty() ? key : prefix + "." + key, out);
    return;
  }
  std::ostringstream os;
  os.precision(17);
  if (value.is_bool())
    os << (value.as_bool() ? "true" : "false");
  else if (value.is_number())
    os << value.as_number();
  else if (value.is_string())
    os << value.as_string();
  else
    os << "null";
  out[prefix] = os.str();
}

std::map<std::string, std::string> echoed_options(
    const mbr::FlowOptions& options) {
  std::ostringstream os;
  mbr::write_flow_report(os, options, mbr::FlowResult{});
  const JsonParseResult parsed = parse_json(os.str());
  EXPECT_TRUE(parsed.ok) << parsed.error;
  const JsonValue* echo = parsed.value.find("options");
  EXPECT_NE(echo, nullptr);
  std::map<std::string, std::string> leaves;
  if (echo != nullptr) flatten_leaves(*echo, "", leaves);
  return leaves;
}

/// Every FlowOptions leaf changed away from its default. Extend together
/// with the echo in src/mbr/report.cpp and kExpectedPaths below.
mbr::FlowOptions fully_mutated(const mbr::FlowOptions& defaults) {
  mbr::FlowOptions o = defaults;
  o.timing.clock_period += 1.25;
  o.timing.wire_cap_per_um += 0.1;
  o.timing.wire_res_per_um += 0.001;
  o.timing.input_delay += 0.01;
  o.timing.output_margin += 0.02;
  o.timing.jobs += 2;
  o.composition.compatibility.slack_similarity += 0.05;
  o.composition.compatibility.slack_clamp += 0.1;
  o.composition.compatibility.sign_epsilon += 0.01;
  o.composition.compatibility.max_distance += 15.0;
  o.composition.compatibility.region.skew_balanced =
      !o.composition.compatibility.region.skew_balanced;
  o.composition.compatibility.region.delay_per_um += 0.0015;
  o.composition.compatibility.region.max_radius += 30.0;
  o.composition.partition.max_nodes -= 10;
  o.composition.enumeration.allow_incomplete =
      !o.composition.enumeration.allow_incomplete;
  o.composition.enumeration.incomplete_area_overhead += 0.05;
  o.composition.enumeration.use_weights =
      !o.composition.enumeration.use_weights;
  o.composition.enumeration.max_candidates_per_subgraph /= 2;
  o.composition.solver.max_nodes += 1234;
  o.composition.jobs += 1;
  o.mapping.incomplete_area_overhead += 0.075;
  o.placement.use_lp = !o.placement.use_lp;
  o.cts.wire_cap_per_um += 0.05;
  o.cts.load_utilization -= 0.15;
  o.cts.max_fanout -= 8;
  o.route.gcell_size -= 2.0;
  o.route.h_capacity -= 30.0;
  o.route.v_capacity -= 25.0;
  o.route.pin_demand += 0.05;
  o.allocator = o.allocator == mbr::Allocator::kIlp
                    ? mbr::Allocator::kHeuristic
                    : mbr::Allocator::kIlp;
  o.cost.alpha += 0.5;
  o.cost.beta += 0.25;
  o.cost.gamma += 0.1;
  o.debank_loop = !o.debank_loop;
  o.debank.slack_threshold += 0.04;
  o.debank.piece_bits += 1;
  o.debank.min_bits += 2;
  o.debank.max_banks_per_iteration += 4;
  o.debank.max_iterations += 3;
  o.debank.cost_epsilon += 1e-6;
  o.apply_useful_skew = !o.apply_useful_skew;
  o.skew_only_new_mbrs = !o.skew_only_new_mbrs;
  o.skew.iterations -= 4;
  o.skew.max_abs_skew += 0.25;
  o.skew.damping -= 0.2;
  o.skew.hold_margin += 0.005;
  o.size_new_mbrs = !o.size_new_mbrs;
  o.jobs += 5;
  o.check_level = o.check_level == check::CheckLevel::kOff
                      ? check::CheckLevel::kParanoid
                      : check::CheckLevel::kOff;
  o.trace = !o.trace;
  o.trace_path = "/tmp/mutated_trace.json";
  o.report_path = "/tmp/mutated_report.json";
  return o;
}

}  // namespace completeness

// The options echo must cover EVERY FlowOptions field: the exact key-path
// set is pinned here, and every leaf must track its field (differ between
// default and fully-mutated options). Adding a FlowOptions field without
// echoing it -- or echoing without pinning -- fails this test.
TEST(FlowReport, OptionsEchoIsComplete) {
  const std::vector<std::string> kExpectedPaths = {
      "allocator",
      "apply_useful_skew",
      "check_level",
      "composition.compatibility.max_distance",
      "composition.compatibility.region.delay_per_um",
      "composition.compatibility.region.max_radius",
      "composition.compatibility.region.skew_balanced",
      "composition.compatibility.sign_epsilon",
      "composition.compatibility.slack_clamp",
      "composition.compatibility.slack_similarity",
      "composition.enumeration.allow_incomplete",
      "composition.enumeration.incomplete_area_overhead",
      "composition.enumeration.max_candidates_per_subgraph",
      "composition.enumeration.use_weights",
      "composition.jobs",
      "composition.partition.max_nodes",
      "composition.solver.max_nodes",
      "cost.alpha",
      "cost.beta",
      "cost.gamma",
      "cts.load_utilization",
      "cts.max_fanout",
      "cts.wire_cap_per_um",
      "debank.cost_epsilon",
      "debank.max_banks_per_iteration",
      "debank.max_iterations",
      "debank.min_bits",
      "debank.piece_bits",
      "debank.slack_threshold",
      "debank_loop",
      "jobs",
      "mapping.incomplete_area_overhead",
      "placement.use_lp",
      "report_path",
      "route.gcell_size",
      "route.h_capacity",
      "route.pin_demand",
      "route.v_capacity",
      "size_new_mbrs",
      "skew.damping",
      "skew.hold_margin",
      "skew.iterations",
      "skew.max_abs_skew",
      "skew_only_new_mbrs",
      "timing.clock_period",
      "timing.input_delay",
      "timing.jobs",
      "timing.output_margin",
      "timing.wire_cap_per_um",
      "timing.wire_res_per_um",
      "trace",
      "trace_path",
  };

  const mbr::FlowOptions defaults;
  const std::map<std::string, std::string> base =
      completeness::echoed_options(defaults);
  const std::map<std::string, std::string> mutated =
      completeness::echoed_options(completeness::fully_mutated(defaults));

  std::vector<std::string> actual_paths;
  for (const auto& [path, value] : base) actual_paths.push_back(path);
  EXPECT_EQ(actual_paths, kExpectedPaths)
      << "options echo key set changed; update the echo in "
         "src/mbr/report.cpp and kExpectedPaths together";

  ASSERT_EQ(base.size(), mutated.size());
  for (const auto& [path, value] : base) {
    const auto it = mutated.find(path);
    ASSERT_NE(it, mutated.end()) << path;
    EXPECT_NE(it->second, value)
        << "echoed leaf '" << path
        << "' did not track its FlowOptions field under mutation";
  }
}

}  // namespace
}  // namespace mbrc::obs
