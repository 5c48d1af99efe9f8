// mbrc-lint rule-engine tests: each R1-R6 rule is exercised against fixture
// sources with planted violations (and near-miss negatives), plus the
// suppression-comment contract and the baseline match/stale behavior. The
// fixtures are in-memory SourceFiles, so these tests pin down the scanner's
// semantics independent of the state of src/.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver.hpp"
#include "lint.hpp"

namespace mbrc::lint {
namespace {

LintResult lint_one(const std::string& content, LintOptions options = {},
                    const std::vector<BaselineEntry>& baseline = {}) {
  return run_lint({{"src/fixture.cpp", content}}, options, baseline);
}

/// Rules of the active (non-suppressed, non-baselined) findings.
std::vector<std::string> active_rules(const LintResult& result) {
  std::vector<std::string> rules;
  for (const Finding* f : result.active()) rules.push_back(f->rule);
  return rules;
}

// --- R1: unordered iteration feeding results -------------------------------

TEST(LintR1, RangeForOverUnorderedMapEmittingIsFlagged) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      for (const auto& [key, value] : counts) {
        out.push_back(key);
      }
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R1"});
  EXPECT_EQ(result.findings[0].line, 4);
  EXPECT_NE(result.findings[0].message.find("counts"), std::string::npos);
}

TEST(LintR1, OrderedMapIsNotFlagged) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      std::map<int, int> counts;
      for (const auto& [key, value] : counts) out.push_back(key);
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(LintR1, UnorderedIterationWithoutEmitIsNotFlagged) {
  const auto result = lint_one(R"(
    int f() {
      std::unordered_map<int, int> counts;
      int best = 0;
      for (const auto& [key, value] : counts) best = std::max(best, key);
      return best;
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(LintR1, AliasDeclaredInAnotherFileIsResolved) {
  // `SkewMap` is aliased to an unordered_map in one file and iterated in
  // another: the alias table is built across the whole file set.
  const std::vector<SourceFile> files = {
      {"src/sta/skew.hpp",
       "using SkewMap = std::unordered_map<CellId, double>;\n"},
      {"src/sta/user.cpp",
       R"(
         void g(const SkewMap& skew, std::vector<CellId>& out) {
           for (const auto& [cell, value] : skew) {
             out.push_back(cell);
           }
         }
       )"}};
  const auto result = run_lint(files, {}, {});
  ASSERT_EQ(result.active().size(), 1u);
  EXPECT_EQ(result.active()[0]->rule, "R1");
  EXPECT_EQ(result.active()[0]->path, "src/sta/user.cpp");
}

TEST(LintR1, MemberDeclaredInHeaderIteratedInCppIsFlagged) {
  // Member-convention names (trailing underscore) cross the header/impl
  // split; a same-named local in an unrelated file must NOT leak.
  const std::vector<SourceFile> files = {
      {"src/w/widget.hpp",
       "struct Widget { std::unordered_map<int, int> cache_; };\n"},
      {"src/w/widget.cpp",
       R"(
         void Widget::dump(std::vector<int>& out) {
           for (const auto& [k, v] : cache_) out.push_back(k);
         }
       )"}};
  const auto result = run_lint(files, {}, {});
  ASSERT_EQ(result.active().size(), 1u);
  EXPECT_EQ(result.active()[0]->rule, "R1");
}

TEST(LintR1, LocalNameDoesNotLeakAcrossFiles) {
  // `bins` is unordered in one file; an ordered `bins` in another file must
  // stay clean (locals are tracked per translation unit).
  const std::vector<SourceFile> files = {
      {"src/a.cpp",
       "void a() { std::unordered_map<int, int> bins; bins.clear(); }\n"},
      {"src/b.cpp",
       R"(
         void b(std::vector<int>& out) {
           std::map<int, int> bins;
           for (const auto& [k, v] : bins) out.push_back(k);
         }
       )"}};
  EXPECT_TRUE(run_lint(files, {}, {}).active().empty());
}

TEST(LintR1, BucketProbeIteratorIsFlagged) {
  // The spatial-hash probe pattern: an iterator obtained from find() on an
  // unordered container, whose bucket is then iterated into an emit call.
  const auto result = lint_one(R"(
    void probe(Graph& graph) {
      std::unordered_map<long, std::vector<int>> bins;
      const auto it = bins.find(42);
      if (it == bins.end()) return;
      for (int j : it->second) {
        graph.add_edge(0, j);
      }
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R1"});
  EXPECT_NE(result.findings[0].message.find("it"), std::string::npos);
}

// --- R2: FP-only comparator tie-breaks -------------------------------------

TEST(LintR2, FpOnlyComparatorIsFlagged) {
  const auto result = lint_one(R"(
    struct Item { double weight; int id; };
    void f(std::vector<Item>& items) {
      std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.weight < b.weight;
      });
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R2"});
  EXPECT_NE(result.findings[0].message.find("weight"), std::string::npos);
}

TEST(LintR2, IntegralTieBreakIsNotFlagged) {
  const auto result = lint_one(R"(
    struct Item { double weight; int id; };
    void f(std::vector<Item>& items) {
      std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        if (a.weight != b.weight) return a.weight < b.weight;
        return a.id < b.id;
      });
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(LintR2, IntegralDisjunctInOneReturnIsNotFlagged) {
  // `x < y || (x == y && a < b)` ends on an integral comparison inside a
  // single return expression.
  const auto result = lint_one(R"(
    struct P { double x; int a; };
    void f(std::vector<P>& ps) {
      std::sort(ps.begin(), ps.end(), [](const P& pa, const P& pb) {
        return pa.x < pb.x || (pa.x == pb.x && pa.a < pb.a);
      });
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(LintR2, MinElementWithFpComparatorIsFlagged) {
  const auto result = lint_one(R"(
    struct Cell { double area; };
    const Cell* cheapest(const std::vector<Cell*>& cells) {
      return *std::min_element(cells.begin(), cells.end(),
                               [](const Cell* a, const Cell* b) {
                                 return a->area < b->area;
                               });
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R2"});
}

TEST(LintR2, DoubleLambdaParametersAreFlagged) {
  const auto result = lint_one(R"(
    void f(std::vector<double>& xs) {
      std::sort(xs.begin(), xs.end(), [](double a, double b) {
        return a > b;
      });
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R2"});
}

TEST(LintR2, PlainIntParametersDoNotInheritFpness) {
  // Regression: `double b;` elsewhere must not make an `a < b` comparator on
  // int parameters look floating-point.
  const auto result = lint_one(R"(
    double b = 0.5;
    void f(std::vector<int>& xs) {
      std::sort(xs.begin(), xs.end(), [](int a, int b) {
        return a < b;
      });
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

// --- R3: nondeterminism sources --------------------------------------------

TEST(LintR3, RandIsFlagged) {
  const auto result = lint_one("int f() { return rand() % 6; }\n");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R3"});
}

TEST(LintR3, StdEngineTypesAreFlagged) {
  const auto result = lint_one(R"(
    void f() {
      std::random_device rd;
      std::mt19937 gen(rd());
    }
  )");
  EXPECT_EQ(result.active().size(), 2u);
  for (const Finding* f : result.active()) EXPECT_EQ(f->rule, "R3");
}

TEST(LintR3, SanctionedRngFileIsExempt) {
  const std::vector<SourceFile> files = {
      {"src/util/rng.hpp", "struct Rng { std::mt19937 engine; };\n"}};
  EXPECT_TRUE(run_lint(files, {}, {}).active().empty());
}

TEST(LintR3, StreamingAnAddressIsFlagged) {
  const auto result = lint_one(R"(
    void f(std::ostream& os, const Cell& cell) {
      os << &cell;
      os << static_cast<const void*>(cell.data());
    }
  )");
  EXPECT_EQ(result.active().size(), 2u);
  for (const Finding* f : result.active()) EXPECT_EQ(f->rule, "R3");
}

TEST(LintR3, MemberNamedRandIsNotFlagged) {
  EXPECT_TRUE(lint_one("int f(Rng& r) { return r.rand(); }\n")
                  .active()
                  .empty());
}

// --- R3 clock scoping: wall-clock reads outside the observability layer ----

TEST(LintR3Clock, SteadyClockOutsideSanctionedFilesIsFlagged) {
  const std::vector<SourceFile> files = {
      {"src/mbr/flow.cpp",
       "void f() { auto t = std::chrono::steady_clock::now(); }\n"}};
  const auto result = run_lint(files, {}, {});
  ASSERT_EQ(result.active().size(), 1u);
  EXPECT_EQ(result.active()[0]->rule, "R3");
  EXPECT_NE(result.active()[0]->message.find("steady_clock"),
            std::string::npos);
}

TEST(LintR3Clock, PosixClockCallsAreFlagged) {
  const std::vector<SourceFile> files = {
      {"src/sta/engine.cpp",
       R"(
         void f(timespec* ts, timeval* tv) {
           clock_gettime(CLOCK_MONOTONIC, ts);
           gettimeofday(tv, nullptr);
         }
       )"}};
  const auto result = run_lint(files, {}, {});
  EXPECT_EQ(result.active().size(), 2u);
  for (const Finding* f : result.active()) EXPECT_EQ(f->rule, "R3");
}

TEST(LintR3Clock, SanctionedMeasurementFilesAreExempt) {
  const std::vector<SourceFile> files = {
      {"src/obs/trace.cpp",
       "long now() { return std::chrono::steady_clock::now()"
       ".time_since_epoch().count(); }\n"},
      {"src/util/stopwatch.hpp",
       "using Clock = std::chrono::steady_clock;\n"}};
  EXPECT_TRUE(run_lint(files, {}, {}).active().empty());
}

TEST(LintR3Clock, ServiceLayerIsNotClockExempt) {
  // The composition daemon (src/service) must stay deterministic: it is
  // deliberately NOT in the clock-exempt path list, so a bare wall-clock
  // read there is a lint failure. Real clock uses (the socket accept
  // loop's idle timeout) carry per-site allow(R3) suppressions instead.
  const std::vector<SourceFile> files = {
      {"src/service/socket_server.cpp",
       "void f() { auto t = std::chrono::steady_clock::now(); }\n"}};
  const auto result = run_lint(files, {}, {});
  ASSERT_EQ(result.active().size(), 1u);
  EXPECT_EQ(result.active()[0]->rule, "R3");
  EXPECT_EQ(result.active()[0]->path, "src/service/socket_server.cpp");
}

TEST(LintR3Clock, ServiceClockReadWithReasonedAllowIsSuppressed) {
  const std::vector<SourceFile> files = {
      {"src/service/socket_server.cpp",
       "// mbrc-lint: allow(R3, idle timeout only closes connections; "
       "never alters any response payload)\n"
       "auto deadline = std::chrono::steady_clock::now();\n"}};
  const auto result = run_lint(files, {}, {});
  EXPECT_TRUE(result.active().empty());
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].suppressed);
}

TEST(LintR3Clock, FlightRecorderIsExemptViaTheObsPath) {
  // The flight recorder timestamps events with steady_clock; it lives in
  // src/obs/, the measurement layer that is clock-exempt wholesale, so no
  // per-site suppression is needed there.
  const std::vector<SourceFile> files = {
      {"src/obs/flight_recorder.cpp",
       "long now_us() { return std::chrono::steady_clock::now()"
       ".time_since_epoch().count(); }\n"}};
  EXPECT_TRUE(run_lint(files, {}, {}).active().empty());
}

TEST(LintR3Clock, DaemonLatencyClockNeedsItsReasonedAllow) {
  // The daemon's request-latency clock read (the stats verb's percentile
  // source) is in src/service/, NOT exempt: without the reasoned allow the
  // exact code fires, and with it (as daemon.cpp carries) it is clean.
  const std::vector<SourceFile> bare = {
      {"src/service/daemon.cpp",
       "using LatencyClock = std::chrono::steady_clock;\n"}};
  const auto fired = run_lint(bare, {}, {});
  ASSERT_EQ(fired.active().size(), 1u);
  EXPECT_EQ(fired.active()[0]->rule, "R3");
  EXPECT_EQ(fired.active()[0]->path, "src/service/daemon.cpp");

  const std::vector<SourceFile> reasoned = {
      {"src/service/daemon.cpp",
       "// mbrc-lint: allow(R3, request-latency measurement for the stats "
       "verb; measurement-only, no response content depends on it)\n"
       "using LatencyClock = std::chrono::steady_clock;\n"}};
  const auto suppressed = run_lint(reasoned, {}, {});
  EXPECT_TRUE(suppressed.active().empty());
  EXPECT_TRUE(suppressed.clean());
}

TEST(LintR3Clock, ServiceSystemClockIsAlsoFlagged) {
  // system_clock is worse than steady_clock for determinism (it can jump),
  // so the daemon must not read it either.
  const std::vector<SourceFile> files = {
      {"src/service/daemon.cpp",
       "long stamp() { return std::chrono::system_clock::now()"
       ".time_since_epoch().count(); }\n"}};
  const auto result = run_lint(files, {}, {});
  ASSERT_EQ(result.active().size(), 1u);
  EXPECT_EQ(result.active()[0]->rule, "R3");
  EXPECT_NE(result.active()[0]->message.find("system_clock"),
            std::string::npos);
}

TEST(LintR3Clock, DurationConstructorsAreNotClockReads) {
  // std::chrono::seconds(0) / microseconds(200) name spans of time, not
  // reads of the clock (the thread pool's condvar waits use them).
  const std::vector<SourceFile> files = {
      {"src/runtime/thread_pool.hpp",
       "void f() { wait_for(std::chrono::microseconds(200)); "
       "wait_for(std::chrono::seconds(0)); }\n"}};
  EXPECT_TRUE(run_lint(files, {}, {}).active().empty());
}

// --- R6: wall-clock values feeding flow decisions --------------------------

TEST(LintR6, StopwatchComparisonIsFlagged) {
  const auto result = lint_one(R"(
    bool over_budget() {
      util::Stopwatch clock;
      return clock.seconds() > 0.5;
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R6"});
  EXPECT_NE(result.findings[0].message.find("clock"), std::string::npos);
}

TEST(LintR6, TimingVariableComparisonIsFlagged) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      util::Stopwatch clock;
      double elapsed = clock.seconds();
      if (elapsed > 1.0) out.push_back(1);
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R6"});
  EXPECT_NE(result.findings[0].message.find("elapsed"), std::string::npos);
}

TEST(LintR6, ComparisonOnRightHandSideIsFlagged) {
  const auto result = lint_one(R"(
    bool f() {
      util::Stopwatch clock;
      return 0.5 < clock.seconds();
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R6"});
}

TEST(LintR6, RecordingIntoReportFieldIsNotFlagged) {
  // The sanctioned pattern: timings flow *into* reports, never into
  // decisions.
  const auto result = lint_one(R"(
    void f(FlowResult& result) {
      util::Stopwatch total_clock;
      result.total_seconds = total_clock.seconds();
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(LintR6, ObservabilityLayerIsExempt) {
  const std::vector<SourceFile> files = {
      {"src/obs/stage_store.cpp",
       R"(
         bool slow(util::Stopwatch& clock) {
           return clock.seconds() > 1.0;
         }
       )"}};
  EXPECT_TRUE(run_lint(files, {}, {}).active().empty());
}

TEST(LintR6, NonTimingDoubleComparisonIsNotFlagged) {
  // A stopwatch in scope must not taint unrelated comparisons.
  const auto result = lint_one(R"(
    bool f(double slack) {
      util::Stopwatch clock;
      double best = slack;
      return best > 0.0;
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

// --- R4: crossing typed id spaces ------------------------------------------

TEST(LintR4, ConstructingOneIdFromAnotherIndexIsFlagged) {
  const auto result = lint_one(R"(
    CellId f(PinId pin) {
      return CellId{pin.index};
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R4"});
  EXPECT_NE(result.findings[0].message.find("PinId"), std::string::npos);
}

TEST(LintR4, IndexArithmeticInsideConstructorIsFlagged) {
  const auto result = lint_one(R"(
    CellId next(CellId cell) {
      return CellId{cell.index + 1};
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R4"});
  EXPECT_NE(result.findings[0].message.find("arithmetic"), std::string::npos);
}

TEST(LintR4, CrossTypeIndexComparisonIsFlagged) {
  const auto result = lint_one(R"(
    bool same(CellId cell, NetId net) {
      return cell.index == net.index;
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R4"});
}

TEST(LintR4, SameTypeComparisonIsNotFlagged) {
  const auto result = lint_one(R"(
    bool less(CellId a, CellId b) {
      return a.index < b.index;
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

// --- R5: FP accumulation in parallel lambdas -------------------------------

TEST(LintR5, FpAccumulationInParallelForIsFlagged) {
  const auto result = lint_one(R"(
    void f(const std::vector<double>& xs) {
      double total = 0.0;
      parallel_for(pool, jobs, xs, [&](double x) {
        total += x;
      });
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R5"});
  EXPECT_NE(result.findings[0].message.find("total"), std::string::npos);
}

TEST(LintR5, IntAccumulationIsNotFlagged) {
  const auto result = lint_one(R"(
    void f(const std::vector<int>& xs) {
      int total = 0;
      parallel_for(pool, jobs, xs, [&](int x) {
        total += x;
      });
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(LintR5, FpAccumulationOutsideParallelLambdaIsNotFlagged) {
  const auto result = lint_one(R"(
    double f(const std::vector<double>& xs) {
      double total = 0.0;
      for (double x : xs) total += x;
      return total;
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

// --- Suppression comments --------------------------------------------------

const char* kSuppressedFixture = R"(
  void f(std::vector<int>& out) {
    std::unordered_map<int, int> counts;
    // mbrc-lint: allow(R1, order-insensitive because out is sorted afterwards)
    for (const auto& [key, value] : counts) {
      out.push_back(key);
    }
  }
)";

TEST(LintSuppression, AllowOnLineAboveSuppresses) {
  const auto result = lint_one(kSuppressedFixture);
  EXPECT_TRUE(result.active().empty());
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].suppressed);
  EXPECT_EQ(result.findings[0].suppress_reason,
            "order-insensitive because out is sorted afterwards");
}

TEST(LintSuppression, AllowOnSameLineSuppresses) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      for (const auto& [key, value] : counts) {  // mbrc-lint: allow(R1, sorted later)
        out.push_back(key);
      }
    }
  )");
  EXPECT_TRUE(result.clean());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].suppressed);
}

TEST(LintSuppression, EmptyReasonIsAnError) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      // mbrc-lint: allow(R1)
      for (const auto& [key, value] : counts) {
        out.push_back(key);
      }
    }
  )");
  EXPECT_FALSE(result.clean());
  ASSERT_EQ(result.bad_suppressions.size(), 1u);
  EXPECT_NE(result.bad_suppressions[0].message.find("non-empty reason"),
            std::string::npos);
}

TEST(LintSuppression, WrongRuleNameDoesNotSuppress) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      // mbrc-lint: allow(R2, wrong rule)
      for (const auto& [key, value] : counts) {
        out.push_back(key);
      }
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R1"});
}

// --- Baseline --------------------------------------------------------------

TEST(LintBaseline, EntryAbsorbsMatchingFinding) {
  const std::string fixture = R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      for (const auto& [key, value] : counts) {
        out.push_back(key);
      }
    }
  )";
  const auto first = lint_one(fixture);
  ASSERT_EQ(first.active().size(), 1u);
  const Finding& f = *first.active()[0];

  const std::vector<BaselineEntry> baseline = {{f.rule, f.path, f.key}};
  const auto second = lint_one(fixture, {}, baseline);
  EXPECT_TRUE(second.clean());
  ASSERT_EQ(second.findings.size(), 1u);
  EXPECT_TRUE(second.findings[0].baselined);
}

TEST(LintBaseline, StaleEntryFailsTheRun) {
  // A baseline entry whose finding was fixed (or whose line was rewritten)
  // must be reported so the baseline monotonically shrinks.
  const std::vector<BaselineEntry> baseline = {
      {"R1", "src/fixture.cpp", 0xdeadbeefULL}};
  const auto result = lint_one("void f() {}\n", {}, baseline);
  EXPECT_TRUE(result.active().empty());
  ASSERT_EQ(result.stale_baseline.size(), 1u);
  EXPECT_EQ(result.stale_baseline[0].rule, "R1");
  EXPECT_FALSE(result.clean());
}

TEST(LintBaseline, KeySurvivesReindentationButNotRewrites) {
  const std::uint64_t k1 =
      baseline_key("R1", "src/a.cpp", "for (auto& x : m) {");
  const std::uint64_t k2 =
      baseline_key("R1", "src/a.cpp", "   for  (auto&  x :  m)  {  ");
  const std::uint64_t k3 =
      baseline_key("R1", "src/a.cpp", "for (auto& y : m) {");
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(baseline_key("R2", "src/a.cpp", "for (auto& x : m) {"), k1);
}

TEST(LintBaseline, FormatRoundTrips) {
  const auto first = lint_one(R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      for (const auto& [key, value] : counts) out.push_back(key);
    }
  )");
  ASSERT_EQ(first.active().size(), 1u);
  Finding f = *first.active()[0];
  const auto parsed = parse_baseline(format_baseline({f}));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].rule, f.rule);
  EXPECT_EQ(parsed[0].path, f.path);
  EXPECT_EQ(parsed[0].key, f.key);
}

// --- Rule selection --------------------------------------------------------

TEST(LintOptionsTest, RuleFilterRunsOnlySelectedRules) {
  const std::string fixture = R"(
    int f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      for (const auto& [key, value] : counts) out.push_back(key);
      return rand();
    }
  )";
  LintOptions only_r3;
  only_r3.rules = {"R3"};
  const auto result = lint_one(fixture, only_r3);
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"R3"});
}

// --- Positions --------------------------------------------------------------

TEST(LintPositions, FindingCarriesTheAnchorTokensColumn) {
  const auto result = lint_one(R"(
    void f(std::vector<int>& out) {
      std::unordered_map<int, int> counts;
      for (const auto& [key, value] : counts) {
        out.push_back(key);
      }
    }
  )");
  ASSERT_EQ(result.findings.size(), 1u);
  // The R1 anchor is the `for` keyword: fixture line 4, byte column 7.
  EXPECT_EQ(result.findings[0].line, 4);
  EXPECT_EQ(result.findings[0].col, 7);
  EXPECT_EQ(analysis::format_location(result.findings[0].path,
                                      result.findings[0].line,
                                      result.findings[0].col),
            "src/fixture.cpp:4:7");
}

}  // namespace
}  // namespace mbrc::lint
