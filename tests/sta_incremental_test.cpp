// The incremental timing engine's correctness contract: after ANY sequence
// of skew updates, placement moves, register sizing swaps and structural
// merges, TimingEngine::update() is bit-identical to a from-scratch
// run_sta() -- every arrival, required time and endpoint slack, at jobs = 1
// and jobs > 1. The engine must also actually be incremental: topology-
// preserving edit sequences may trigger exactly one full build.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/composition.hpp"
#include "mbr/mapping.hpp"
#include "mbr/placement.hpp"
#include "mbr/rewire.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

benchgen::GeneratedDesign make_design(const lib::Library& library,
                                      std::uint64_t seed) {
  benchgen::DesignProfile profile;
  profile.name = "inc";
  profile.seed = seed;
  profile.register_cells = 220;
  profile.comb_per_register = 4.0;
  return benchgen::generate_design(library, profile);
}

void expect_same(const std::vector<double>& got, const std::vector<double>& want,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " diverges at pin " << i;
}

// Bit-exact equality (EXPECT_EQ, not EXPECT_NEAR): the engine recomputes
// each value as a max/min gather over the same operand set the oracle folds.
void expect_report_matches_oracle(const sta::TimingReport& got,
                                  const sta::TimingReport& want,
                                  const std::string& context) {
  SCOPED_TRACE(context);
  expect_same(got.arrival, want.arrival, "arrival");
  expect_same(got.arrival_min, want.arrival_min, "arrival_min");
  expect_same(got.required, want.required, "required");
  expect_same(got.required_min, want.required_min, "required_min");
  ASSERT_EQ(got.endpoints.size(), want.endpoints.size());
  for (std::size_t i = 0; i < got.endpoints.size(); ++i) {
    ASSERT_EQ(got.endpoints[i].pin.index, want.endpoints[i].pin.index)
        << "endpoint " << i;
    ASSERT_EQ(got.endpoints[i].slack, want.endpoints[i].slack)
        << "endpoint " << i;
    ASSERT_EQ(got.endpoints[i].hold_slack, want.endpoints[i].hold_slack)
        << "endpoint " << i;
  }
}

// One mutation round: random per-register skew nudges, a placement move
// (journaled via notify_moved) and a drive-variant swap. All topology-
// preserving, so the engine must absorb them without a rebuild.
void mutate_round(netlist::Design& design, sta::SkewMap& skew, util::Rng& rng) {
  const auto registers = design.registers();
  ASSERT_FALSE(registers.empty());
  auto pick = [&] {
    return registers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(registers.size()) - 1))];
  };

  const int nudges = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < nudges; ++i) {
    const netlist::CellId reg = pick();
    if (rng.chance(0.2))
      skew.erase(reg);
    else
      skew[reg] = rng.uniform_real(-0.15, 0.15);
  }

  if (rng.chance(0.7)) {
    const netlist::CellId reg = pick();
    netlist::Cell& cell = design.cell(reg);
    const geom::Rect& core = design.core();
    cell.position.x = std::clamp(cell.position.x + rng.uniform_real(-8.0, 8.0),
                                 core.xlo, core.xhi - cell.width());
    cell.position.y = std::clamp(cell.position.y + rng.uniform_real(-8.0, 8.0),
                                 core.ylo, core.yhi - cell.height());
    design.notify_moved(reg);
  }

  if (rng.chance(0.5)) {
    const netlist::CellId reg = pick();
    const netlist::Cell& cell = design.cell(reg);
    const auto variants = design.library().drive_variants(*cell.reg);
    if (variants.size() > 1) {
      const auto* variant = variants[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(variants.size()) - 1))];
      if (variant != cell.reg) design.swap_register_cell(reg, variant);
    }
  }
}

void run_randomized_sequence(int jobs) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 77);
  netlist::Design& design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  options.jobs = jobs;

  sta::TimingEngine engine(design, options);
  sta::SkewMap skew;
  util::Rng rng(0xabc0 + static_cast<std::uint64_t>(jobs));

  expect_report_matches_oracle(engine.update(skew),
                               sta::run_sta(design, options, skew), "initial build");
  EXPECT_EQ(engine.stats().full_builds, 1u);

  for (int round = 0; round < 12; ++round) {
    mutate_round(design, skew, rng);
    expect_report_matches_oracle(engine.update(skew),
                                 sta::run_sta(design, options, skew),
                                 "round " + std::to_string(round));
  }
  // Every round was topology-preserving: the first build must be the only
  // one, and the repairs must have touched a non-trivial cone.
  EXPECT_EQ(engine.stats().full_builds, 1u);
  EXPECT_EQ(engine.stats().incremental_updates, 12u);
}

TEST(StaIncremental, RandomEditSequenceMatchesOracleSerial) {
  run_randomized_sequence(1);
}

TEST(StaIncremental, RandomEditSequenceMatchesOracleParallel) {
  run_randomized_sequence(4);
}

TEST(StaIncremental, SkewOnlyUpdatesRepairSmallCones) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 91);
  netlist::Design& design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;

  sta::TimingEngine engine(design, options);
  engine.update();
  const auto registers = design.registers();

  sta::SkewMap skew;
  skew[registers[registers.size() / 2]] = 0.05;
  engine.update(skew);
  EXPECT_EQ(engine.stats().full_builds, 1u);
  EXPECT_GT(engine.stats().last_repaired_pins, 0u);
  // One register's cones are a small fraction of the graph.
  EXPECT_LT(engine.stats().last_repaired_pins,
            static_cast<std::size_t>(design.pin_count()) / 4);
  expect_report_matches_oracle(engine.report(), sta::run_sta(design, options, skew),
                               "single-register skew");

  // No-op update: nothing dirty, nothing repaired.
  engine.update(skew);
  EXPECT_EQ(engine.stats().last_repaired_pins, 0u);
}

TEST(StaIncremental, StructuralMergeRebuildsThenStaysIncremental) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 33);
  netlist::Design& design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  options.jobs = 2;

  sta::TimingEngine engine(design, options);
  const sta::TimingReport planning = engine.update();  // copy for planning
  EXPECT_EQ(engine.stats().full_builds, 1u);

  // Apply a few real merges (map -> place -> rewire): structural edits that
  // must force exactly one rebuild on the next update.
  mbr::CompositionOptions greedy;
  greedy.allocator = mbr::Allocator::kHeuristic;
  const mbr::CompositionPlan plan =
      mbr::plan_composition(design, planning, greedy);
  int applied = 0;
  for (const mbr::Selection* selection : plan.merges()) {
    const auto mapping =
        mbr::map_candidate(design, plan.graph, selection->candidate);
    if (!mapping) continue;
    const geom::Point position =
        mbr::place_mbr(design, plan.graph, selection->candidate, *mapping);
    mbr::rewire_candidate(design, plan.graph, selection->candidate, *mapping,
                          position, "inc_mbr_" + std::to_string(applied));
    if (++applied == 3) break;
  }
  ASSERT_GT(applied, 0) << "benchgen design produced no applicable merges";
  design.check_consistency();

  expect_report_matches_oracle(engine.update(), sta::run_sta(design, options),
                               "post-merge rebuild");
  EXPECT_EQ(engine.stats().full_builds, 2u);

  // Back to incremental service after the rebuild.
  sta::SkewMap skew;
  util::Rng rng(2024);
  for (int round = 0; round < 4; ++round) {
    mutate_round(design, skew, rng);
    expect_report_matches_oracle(engine.update(skew),
                                 sta::run_sta(design, options, skew),
                                 "post-merge round " + std::to_string(round));
  }
  EXPECT_EQ(engine.stats().full_builds, 2u);
}

}  // namespace
}  // namespace mbrc
