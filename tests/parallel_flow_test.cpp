// The parallel runtime's determinism contract at flow level: running the
// full composition flow with jobs = 1 (the serial reference path), 4 and 8
// produces the identical CompositionPlan, bit-identical Metrics and a
// bit-identical work-counter snapshot (DESIGN.md §11).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "obs/counters.hpp"

namespace mbrc {
namespace {

mbr::FlowResult run_with_jobs(const lib::Library& library, int jobs,
                              mbr::Allocator allocator) {
  benchgen::DesignProfile profile;
  profile.name = "par";
  profile.seed = 21;
  profile.register_cells = 400;
  profile.comb_per_register = 5.0;

  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  mbr::FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  options.composition.allocator = allocator;
  options.jobs = jobs;
  mbr::FlowResult result =
      mbr::run_composition_flow(generated.design, options);
  generated.design.check_consistency();
  return result;
}

std::vector<std::pair<std::int32_t, double>> sorted_skew(
    const sta::SkewMap& skew) {
  std::vector<std::pair<std::int32_t, double>> out;
  out.reserve(skew.size());
  for (const auto& [cell, value] : skew) out.emplace_back(cell.index, value);
  std::sort(out.begin(), out.end());
  return out;
}

void expect_metrics_identical(const mbr::Metrics& a, const mbr::Metrics& b) {
  EXPECT_EQ(a.design.cells, b.design.cells);
  EXPECT_EQ(a.design.total_registers, b.design.total_registers);
  EXPECT_EQ(a.design.register_bits, b.design.register_bits);
  EXPECT_EQ(a.design.area, b.design.area);
  EXPECT_EQ(a.composable_registers, b.composable_registers);
  // Bit-exact doubles: the parallel path must reproduce the serial
  // arithmetic, not approximate it.
  EXPECT_EQ(a.wns, b.wns);
  EXPECT_EQ(a.tns, b.tns);
  EXPECT_EQ(a.failing_endpoints, b.failing_endpoints);
  EXPECT_EQ(a.total_endpoints, b.total_endpoints);
  EXPECT_EQ(a.hold_wns, b.hold_wns);
  EXPECT_EQ(a.failing_hold_endpoints, b.failing_hold_endpoints);
  EXPECT_EQ(a.clock_buffers, b.clock_buffers);
  EXPECT_EQ(a.clock_cap, b.clock_cap);
  EXPECT_EQ(a.clock_power_uw, b.clock_power_uw);
  EXPECT_EQ(a.leakage_nw, b.leakage_nw);
  EXPECT_EQ(a.clock_wire, b.clock_wire);
  EXPECT_EQ(a.signal_wire, b.signal_wire);
  EXPECT_EQ(a.overflow_edges, b.overflow_edges);
  EXPECT_EQ(a.max_congestion, b.max_congestion);
}

void expect_plans_identical(const mbr::CompositionPlan& a,
                            const mbr::CompositionPlan& b) {
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.subgraph_count, b.subgraph_count);
  EXPECT_EQ(a.candidate_count, b.candidate_count);
  EXPECT_EQ(a.ilp_nodes, b.ilp_nodes);
  EXPECT_EQ(a.truncated_subgraphs, b.truncated_subgraphs);
  ASSERT_EQ(a.selections.size(), b.selections.size());
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    const mbr::Selection& sa = a.selections[i];
    const mbr::Selection& sb = b.selections[i];
    EXPECT_EQ(sa.candidate.nodes, sb.candidate.nodes);
    EXPECT_EQ(sa.candidate.bits, sb.candidate.bits);
    EXPECT_EQ(sa.candidate.mapped_width, sb.candidate.mapped_width);
    EXPECT_EQ(sa.candidate.blockers, sb.candidate.blockers);
    EXPECT_EQ(sa.candidate.weight, sb.candidate.weight);
    EXPECT_EQ(sa.candidate.needs_per_bit_scan, sb.candidate.needs_per_bit_scan);
    EXPECT_EQ(sa.members, sb.members);
  }
}

void expect_results_identical(const mbr::FlowResult& a,
                              const mbr::FlowResult& b) {
  expect_plans_identical(a.plan, b.plan);
  EXPECT_EQ(a.mbrs_created, b.mbrs_created);
  EXPECT_EQ(a.registers_merged, b.registers_merged);
  EXPECT_EQ(a.rejected_at_mapping, b.rejected_at_mapping);
  EXPECT_EQ(a.incomplete_mbrs, b.incomplete_mbrs);
  EXPECT_EQ(sorted_skew(a.skew), sorted_skew(b.skew));
  expect_metrics_identical(a.before, b.before);
  expect_metrics_identical(a.after, b.after);
}

TEST(ParallelFlow, IlpFlowIsBitIdenticalAcrossJobCounts) {
  const lib::Library library = lib::make_default_library();
  const mbr::FlowResult serial =
      run_with_jobs(library, 1, mbr::Allocator::kIlp);
  const mbr::FlowResult four = run_with_jobs(library, 4, mbr::Allocator::kIlp);
  const mbr::FlowResult eight =
      run_with_jobs(library, 8, mbr::Allocator::kIlp);

  EXPECT_GT(serial.mbrs_created, 0);
  expect_results_identical(serial, four);
  expect_results_identical(serial, eight);
}

TEST(ParallelFlow, HeuristicFlowIsBitIdenticalAcrossJobCounts) {
  const lib::Library library = lib::make_default_library();
  const mbr::FlowResult serial =
      run_with_jobs(library, 1, mbr::Allocator::kHeuristic);
  const mbr::FlowResult four =
      run_with_jobs(library, 4, mbr::Allocator::kHeuristic);

  EXPECT_GT(serial.mbrs_created, 0);
  expect_results_identical(serial, four);
}

TEST(ParallelFlow, CountersAreBitIdenticalAcrossJobCounts) {
  // The flow's counter delta is deterministic *output*, not measurement:
  // work counts (solver nodes, repaired pins, cliques) are integer sums of
  // per-call quantities, so the snapshot must match exactly at any jobs
  // value. This is the enforced half of the observability determinism
  // split; stage seconds and spans are the measurement-only half.
  const lib::Library library = lib::make_default_library();
  const mbr::FlowResult serial =
      run_with_jobs(library, 1, mbr::Allocator::kIlp);
  const mbr::FlowResult four = run_with_jobs(library, 4, mbr::Allocator::kIlp);

  EXPECT_FALSE(serial.counters.counters.empty());
  EXPECT_FALSE(serial.counters.histograms.empty());
  EXPECT_EQ(serial.counters, four.counters)
      << "jobs=1:\n" << obs::format_counters(serial.counters)
      << "jobs=4:\n" << obs::format_counters(four.counters);
}

TEST(ParallelFlow, TraceIsEmptyWhenTracingIsOff) {
  const lib::Library library = lib::make_default_library();
  const mbr::FlowResult result =
      run_with_jobs(library, 1, mbr::Allocator::kHeuristic);
  EXPECT_TRUE(result.trace.empty());
}

TEST(ParallelFlow, TracedFlowRecordsSpans) {
  benchgen::DesignProfile profile;
  profile.name = "traced";
  profile.seed = 33;
  profile.register_cells = 200;
  profile.comb_per_register = 4.0;

  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  mbr::FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  options.jobs = 4;
  options.trace = true;  // no trace_path: in-memory capture only
  const mbr::FlowResult result =
      mbr::run_composition_flow(generated.design, options);

  ASSERT_FALSE(result.trace.empty());
  std::set<std::string> names;
  for (const obs::TraceEvent& e : result.trace.events) {
    names.insert(e.name);
    EXPECT_GE(e.dur_us, 0);
    EXPECT_GE(e.depth, 0);
  }
  EXPECT_TRUE(names.contains("flow"));
  EXPECT_TRUE(names.contains("plan.subgraph"));
  ASSERT_FALSE(result.trace.thread_names.empty());
  // The installing thread is labeled by run_composition_flow itself.
  EXPECT_EQ(result.trace.thread_names.begin()->second, "flow");
}

TEST(ParallelFlow, StageTableIsPopulated) {
  const lib::Library library = lib::make_default_library();
  const mbr::FlowResult result =
      run_with_jobs(library, 4, mbr::Allocator::kIlp);
  EXPECT_TRUE(result.stages.contains("evaluate.before"));
  EXPECT_TRUE(result.stages.contains("sta.plan"));
  EXPECT_TRUE(result.stages.contains("plan"));
  EXPECT_TRUE(result.stages.contains("apply"));
  EXPECT_TRUE(result.stages.contains("evaluate.after"));
  for (const auto& [name, stats] : result.stages) {
    EXPECT_GE(stats.calls, 1) << name;
    EXPECT_GE(stats.seconds, 0.0) << name;
  }
}

}  // namespace
}  // namespace mbrc
