// mbrc-analyze rule-engine tests: each A2-A4 rule is exercised against
// fixture sources with planted violations (and near-miss negatives), plus
// the cross-file spawn summary, the suppression-comment contract, baseline
// match/stale behavior and file:line:col accuracy. The fixtures are
// in-memory SourceFiles, so these tests pin down the analyzer's semantics
// independent of the state of src/.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze.hpp"

namespace mbrc::analyze {
namespace {

AnalyzeResult analyze_one(const std::string& content,
                          AnalyzeOptions options = {},
                          const std::vector<BaselineEntry>& baseline = {}) {
  return run_analyze({{"src/fixture.cpp", content}}, options, baseline);
}

/// Rules of the active (non-suppressed, non-baselined) findings.
std::vector<std::string> active_rules(const AnalyzeResult& result) {
  std::vector<std::string> rules;
  for (const analysis::Finding* f : result.active()) rules.push_back(f->rule);
  return rules;
}

// --- A2: task-capture lifetime ----------------------------------------------

TEST(AnalyzeA2, RefCaptureWithNoWaitIsFlagged) {
  const auto result = analyze_one(R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      pool.submit([&counter] { counter++; });
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A2"});
  EXPECT_NE(result.findings[0].message.find("no join/wait"),
            std::string::npos);
  ASSERT_FALSE(result.findings[0].chain.empty());
  EXPECT_NE(result.findings[0].chain[0].find("counter"), std::string::npos);
}

TEST(AnalyzeA2, ThrowingCallBetweenSubmitAndWaitIsFlagged) {
  const auto result = analyze_one(R"(
    int compute(runtime::ThreadPool& pool) {
      int total = 0;
      auto fut = pool.async([&total] { return 1; });
      risky_stage(total);
      return runtime::help_get(pool, std::move(fut));
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A2"});
  bool names_gap_call = false;
  for (const auto& step : result.findings[0].chain)
    if (step.find("risky_stage") != std::string::npos) names_gap_call = true;
  EXPECT_TRUE(names_gap_call);
}

TEST(AnalyzeA2, CleanGapToWaitIsNotFlagged) {
  const auto result = analyze_one(R"(
    int compute(runtime::ThreadPool& pool) {
      int total = 0;
      auto fut = pool.async([&total] { return 1; });
      return runtime::help_get(pool, std::move(fut));
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA2, WaitGuardDeclaredBeforeSubmissionSilences) {
  const auto result = analyze_one(R"(
    int compute(runtime::ThreadPool& pool) {
      int total = 0;
      runtime::FutureDrain drain(pool);
      auto fut = pool.async([&total] { return 1; });
      drain.watch(fut);
      risky_stage(total);
      return runtime::help_get(pool, std::move(fut));
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA2, LoopBackEdgeThrowBypassesWaitAfterLoop) {
  const auto result = analyze_one(R"(
    void pump(runtime::ThreadPool& pool, std::istream& in) {
      std::string line;
      while (std::getline(in, line)) {
        pool.submit([&line] { consume(line); });
      }
      pool.wait();
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A2"});
  bool names_back_edge = false;
  for (const auto& step : result.findings[0].chain)
    if (step.find("getline") != std::string::npos) names_back_edge = true;
  EXPECT_TRUE(names_back_edge);
}

TEST(AnalyzeA2, ValueCapturesAreNotFlagged) {
  const auto result = analyze_one(R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      pool.submit([counter] { consume(counter); });
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA2, ValueCapturedLambdaWithRefCapturesIsFlagged) {
  const auto result = analyze_one(R"(
    void relay(runtime::ThreadPool& pool) {
      int shared = 0;
      auto work = [&shared] { shared++; };
      pool.submit([work] { work(); });
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A2"});
  EXPECT_NE(result.findings[0].chain[0].find("work"), std::string::npos);
}

TEST(AnalyzeA2, CrossFileForwarderIsTracedIntoDeferredExecution) {
  // `enqueue` only queues the callable; the submitting file never sees a
  // ThreadPool. The call summary must carry the spawn across files.
  const std::vector<analysis::SourceFile> files = {
      {"src/runtime/queue.hpp", R"(
        struct Queue {
          void enqueue(std::function<void()> job) {
            jobs_.push_back(std::move(job));
          }
          std::vector<std::function<void()>> jobs_;
        };
      )"},
      {"src/mbr/producer.cpp", R"(
        void produce(Queue& q) {
          int local = 0;
          q.enqueue([&local] { local++; });
        }
      )"}};
  const auto result = run_analyze(files);
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A2"});
  EXPECT_EQ(result.findings[0].path, "src/mbr/producer.cpp");
}

TEST(AnalyzeA2, ForwarderThatWaitsDoesNotSpawn) {
  // parallel_for-shaped: forwards its callable but drains before returning,
  // so call sites need no wait of their own.
  const std::vector<analysis::SourceFile> files = {
      {"src/runtime/each.hpp", R"(
        void for_each(runtime::ThreadPool& pool, std::function<void()> fn) {
          pool.submit(fn);
          pool.wait();
        }
      )"},
      {"src/mbr/user.cpp", R"(
        void iterate(runtime::ThreadPool& pool) {
          int local = 0;
          for_each(pool, [&local] { local++; });
        }
      )"}};
  const auto result = run_analyze(files);
  // The only finding allowed is inside for_each itself (its own submit has
  // a clean gap to the wait, so there is none).
  EXPECT_TRUE(result.active().empty());
}

// --- A3: strand discipline --------------------------------------------------

constexpr const char* kSessionFixture = R"(
    class Session {
     public:
      int design_ = 0;
      int revision_ = 0;
    };
    void peek(Session& session) {
      session.design_ = 7;
    }
  )";

TEST(AnalyzeA3, SessionFieldTouchedOutsideStrandIsFlagged) {
  const auto result =
      run_analyze({{"src/service/helper.cpp", kSessionFixture}});
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A3"});
  EXPECT_NE(result.findings[0].message.find("strand"), std::string::npos);
  EXPECT_NE(result.findings[0].message.find("design_"), std::string::npos);
}

TEST(AnalyzeA3, NonServicePathIsOutOfScope) {
  // Same code outside the service layer: A3 is a service-layer contract.
  const auto result = run_analyze({{"src/mbr/helper.cpp", kSessionFixture}});
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA3, SessionMembersAndEntryPointsAreAllowed) {
  const auto result = run_analyze({{"src/service/helper.cpp", R"(
    class Session {
     public:
      void bump(Session& other) { other.design_ = 1; }
      int design_ = 0;
    };
    void execute(Session& session) {
      session.design_ = 7;
    }
  )"}});
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA3, LambdaPostedToTheStrandIsAllowed) {
  const auto result = run_analyze({{"src/service/helper.cpp", R"(
    class Session {
     public:
      int design_ = 0;
    };
    void relay(Daemon& daemon, Session& session) {
      daemon.post("name", [&session] { session.design_ = 9; });
    }
  )"}});
  EXPECT_TRUE(result.active().empty());
}

// --- A4: journal bypass -----------------------------------------------------

TEST(AnalyzeA4, CellPositionWriteWithoutNotifyIsFlagged) {
  const auto result = analyze_one(R"(
    void nudge(netlist::Design& design, CellId id) {
      netlist::Cell& cell = design.cell(id);
      cell.position.x = 4.0;
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A4"});
  EXPECT_NE(result.findings[0].message.find("notify_moved"),
            std::string::npos);
}

TEST(AnalyzeA4, DirectAccessorChainWriteIsFlagged) {
  const auto result = analyze_one(R"(
    void nudge(netlist::Design& design, CellId id, Point p) {
      design.cell(id).position = p;
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A4"});
}

TEST(AnalyzeA4, PositionWritePairedWithNotifyMovedIsAllowed) {
  const auto result = analyze_one(R"(
    void nudge(netlist::Design& design, CellId id, Point p) {
      netlist::Cell& cell = design.cell(id);
      cell.position = p;
      design.notify_moved(id);
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA4, LocalStructWithPositionFieldIsNotACell) {
  const auto result = analyze_one(R"(
    double pick(netlist::Design& design) {
      struct Choice { double position = 0; };
      Choice best;
      best.position = 3.0;
      return best.position;
    }
  )");
  EXPECT_TRUE(result.active().empty());
}

TEST(AnalyzeA4, PinNetRewireIsFlagged) {
  const auto result = analyze_one(R"(
    void rewire(netlist::Pin& pin, NetId net_id) {
      pin.net = net_id;
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A4"});
  EXPECT_NE(result.findings[0].message.find("journal"), std::string::npos);
}

TEST(AnalyzeA4, RegisterVariantWriteIsFlagged) {
  const auto result = analyze_one(R"(
    void retag(netlist::Cell& cell, RegVariant next) {
      cell.reg = next;
    }
  )");
  ASSERT_EQ(active_rules(result), std::vector<std::string>{"A4"});
}

TEST(AnalyzeA4, JournaledDesignImplementationIsExempt) {
  const auto result = run_analyze({{"src/netlist/design.cpp", R"(
    void Design::set_position(CellId id, Point p) {
      cells_[id].position = p;
    }
  )"}});
  EXPECT_TRUE(result.active().empty());
}

// --- rule selection, suppression, baseline, positions -----------------------

TEST(AnalyzeOptionsTest, RulesFilterRestrictsWhatRuns) {
  // One fixture violating A2 and A4 at once; ask for A4 only.
  const std::string fixture = R"(
    void both(runtime::ThreadPool& pool, netlist::Pin& pin, NetId id) {
      int local = 0;
      pool.submit([&local] { local++; });
      pin.net = id;
    }
  )";
  AnalyzeOptions a4_only;
  a4_only.rules = {"A4"};
  EXPECT_EQ(active_rules(analyze_one(fixture, a4_only)),
            std::vector<std::string>{"A4"});
  const auto all = active_rules(analyze_one(fixture));
  EXPECT_EQ(all.size(), 2u);
}

TEST(AnalyzeSuppression, AllowCommentWithReasonSilences) {
  const auto result = analyze_one(R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      // mbrc-analyze: allow(A2, fixture proves the suppression path)
      pool.submit([&counter] { counter++; });
    }
  )");
  EXPECT_TRUE(result.active().empty());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].suppressed);
  EXPECT_EQ(result.findings[0].suppress_reason,
            "fixture proves the suppression path");
  EXPECT_TRUE(result.bad_suppressions.empty());
  EXPECT_TRUE(result.clean());
}

TEST(AnalyzeSuppression, EmptyReasonIsItselfAFinding) {
  const auto result = analyze_one(R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      // mbrc-analyze: allow(A2)
      pool.submit([&counter] { counter++; });
    }
  )");
  // The finding stays active AND the reasonless allow is reported.
  EXPECT_EQ(active_rules(result), std::vector<std::string>{"A2"});
  ASSERT_EQ(result.bad_suppressions.size(), 1u);
  EXPECT_NE(result.bad_suppressions[0].message.find("reason"),
            std::string::npos);
  EXPECT_FALSE(result.clean());
}

TEST(AnalyzeSuppression, OtherToolsTagDoesNotSuppress) {
  const auto result = analyze_one(R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      // mbrc-lint: allow(A2, wrong tool tag)
      pool.submit([&counter] { counter++; });
    }
  )");
  EXPECT_EQ(active_rules(result), std::vector<std::string>{"A2"});
}

TEST(AnalyzeBaseline, RoundTrippedBaselineAbsorbsFindings) {
  const std::string fixture = R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      pool.submit([&counter] { counter++; });
    }
  )";
  const auto first = analyze_one(fixture);
  ASSERT_EQ(first.active().size(), 1u);

  const std::string serialized =
      analysis::format_baseline(first.findings, "mbrc-analyze");
  const auto result =
      analyze_one(fixture, {}, analysis::parse_baseline(serialized));
  EXPECT_TRUE(result.active().empty());
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_TRUE(result.findings[0].baselined);
  EXPECT_TRUE(result.stale_baseline.empty());
  EXPECT_TRUE(result.clean());
}

TEST(AnalyzeBaseline, StaleEntryFailsTheRun) {
  BaselineEntry stale;
  stale.rule = "A2";
  stale.path = "src/fixture.cpp";
  stale.key = 0x1234;  // matches no finding: the hazard was fixed
  const auto result = analyze_one(R"(
    void quiet() {}
  )", {}, {stale});
  EXPECT_TRUE(result.active().empty());
  ASSERT_EQ(result.stale_baseline.size(), 1u);
  EXPECT_EQ(result.stale_baseline[0].key, 0x1234u);
  EXPECT_FALSE(result.clean());
}

TEST(AnalyzePositions, FindingAnchorsTheSpawningCalleeToken) {
  const auto result = analyze_one(R"(
    void launch(runtime::ThreadPool& pool) {
      int counter = 0;
      pool.submit([&counter] { counter++; });
    }
  )");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].path, "src/fixture.cpp");
  // Fixture line 4, `submit` starts at byte column 12 of
  // `      pool.submit(...)`.
  EXPECT_EQ(result.findings[0].line, 4);
  EXPECT_EQ(result.findings[0].col, 12);
}

}  // namespace
}  // namespace mbrc::analyze
