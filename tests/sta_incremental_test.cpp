// The incremental timing engine's correctness contract: after ANY sequence
// of skew updates, placement moves, register sizing swaps and structural
// merges, TimingEngine::update() is bit-identical to a from-scratch
// run_sta() -- every arrival, required time and endpoint slack, at jobs = 1
// and jobs > 1. The engine must also actually be incremental: topology-
// preserving edit sequences may trigger exactly one full build. A repair
// sweeps each level's dirty bits, and a wide level is split into chunks that
// run on the pool at jobs > 1: at jobs 1, 2 and 4 the report, the tallies
// and the change log must equal the jobs 1 repair's, the log must hold
// exactly the moved pins in the documented order (forward changes, then new
// backward changes, each by level and topological position), and a level
// boundary inside a frontier word must repair both levels. refresh() must
// equal update() under an unchanged skew. The report's failing-endpoint
// index must give the same aggregates as a full scan of its endpoints
// after every build and repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/composition.hpp"
#include "mbr/mapping.hpp"
#include "mbr/placement.hpp"
#include "mbr/rewire.hpp"
#include "reference_sum.hpp"
#include "runtime/thread_pool.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

benchgen::GeneratedDesign make_design(const lib::Library& library,
                                      std::uint64_t seed,
                                      int registers = 220) {
  benchgen::DesignProfile profile;
  profile.name = "inc";
  profile.seed = seed;
  profile.register_cells = registers;
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

netlist::CellId pick_register(const std::vector<netlist::CellId>& registers,
                              util::Rng& rng) {
  return registers[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(registers.size()) - 1))];
}

// A placement move of `reg`, journaled via notify_moved.
void move_register(netlist::Design& design, netlist::CellId reg,
                   util::Rng& rng) {
  netlist::Cell& cell = design.cell(reg);
  const geom::Rect& core = design.core();
  cell.position.x = std::clamp(cell.position.x + rng.uniform_real(-8.0, 8.0),
                               core.xlo, core.xhi - cell.width());
  cell.position.y = std::clamp(cell.position.y + rng.uniform_real(-8.0, 8.0),
                               core.ylo, core.yhi - cell.height());
  design.notify_moved(reg);
}

// A drive-variant swap of `reg` (journaled by swap_register_cell), when
// its class has another variant.
void swap_register(netlist::Design& design, netlist::CellId reg,
                   util::Rng& rng) {
  const netlist::Cell& cell = design.cell(reg);
  const auto variants = design.library().drive_variants(*cell.reg);
  if (variants.size() <= 1) return;
  const auto* variant = variants[static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(variants.size()) - 1))];
  if (variant != cell.reg) design.swap_register_cell(reg, variant);
}

// One mutation round: random per-register skew nudges, a placement move
// (journaled via notify_moved) and a drive-variant swap. All topology-
// preserving, so the engine must absorb them without a rebuild.
void mutate_round(netlist::Design& design, sta::SkewMap& skew, util::Rng& rng) {
  const auto registers = design.registers();
  ASSERT_FALSE(registers.empty());

  const int nudges = static_cast<int>(rng.uniform_int(1, 6));
  for (int i = 0; i < nudges; ++i) {
    const netlist::CellId reg = pick_register(registers, rng);
    if (rng.chance(0.2))
      skew.erase(reg);
    else
      skew[reg] = rng.uniform_real(-0.15, 0.15);
  }

  if (rng.chance(0.7)) move_register(design, pick_register(registers, rng), rng);
  if (rng.chance(0.5)) swap_register(design, pick_register(registers, rng), rng);
}

// Whether `pin`'s arrival (max or min) differs between two reports.
bool arrival_moved(const sta::TimingReport& before,
                   const sta::TimingReport& after, std::int32_t pin) {
  return before.arrival[pin] != after.arrival[pin] ||
         before.arrival_min[pin] != after.arrival_min[pin];
}

bool required_moved(const sta::TimingReport& before,
                    const sta::TimingReport& after, std::int32_t pin) {
  return before.required[pin] != after.required[pin] ||
         before.required_min[pin] != after.required_min[pin];
}

// The change log of one repair as documented, from the reports around it
// and the engine's levelized order: the pins whose arrival moved in
// topological order (the forward sweep ascends the levels, and Kahn's order
// is sorted by level), then the pins whose required time alone moved, by
// descending level and topological position within a level. Every pin
// whose arrival or required time moved is listed exactly once.
std::vector<std::int32_t> documented_log(const sta::TimingEngine& engine,
                                         const sta::TimingReport& before,
                                         const sta::TimingReport& after) {
  const auto& topo = engine.topo_order();
  std::vector<std::int32_t> log;
  std::vector<std::pair<std::int32_t, std::size_t>> backward;  // (-level, pos)
  for (std::size_t k = 0; k < topo.size(); ++k) {
    const std::int32_t pin = topo[k].index;
    if (arrival_moved(before, after, pin))
      log.push_back(pin);
    else if (required_moved(before, after, pin))
      backward.emplace_back(-engine.level_of(topo[k]), k);
  }
  std::sort(backward.begin(), backward.end());
  for (const auto& [level, k] : backward) log.push_back(topo[k].index);
  return log;
}

void expect_log_in_documented_order(const sta::TimingEngine& engine,
                                    const sta::TimingReport& before,
                                    const sta::TimingReport& after) {
  ASSERT_EQ(engine.changed_pins(), documented_log(engine, before, after))
      << "the log is not the moved pins in the documented order";
}

// Applies up to `limit` merges of a greedy plan (map -> place -> rewire) and
// returns how many it applied.
int apply_merges(netlist::Design& design, const sta::TimingReport& planning,
                 int limit) {
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
    if (++applied == limit) break;
  }
  return applied;
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

  // Apply a few real merges: structural edits that must force exactly one
  // rebuild on the next update.
  ASSERT_GT(apply_merges(design, planning, 3), 0)
      << "benchgen design produced no applicable merges";
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

// The full build's parallel passes (liveness, launch and endpoint seeds, the
// CSR fill, the level sweeps) on a design that holds dead cells after real
// merges, under a skew: the jobs 4 build must equal the serial run_sta in
// every report array and in endpoint order.
TEST(StaIncremental, FullBuildAtJobs4WithDeadCellsMatchesSerial) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 404, 1200);
  netlist::Design& design = generated.design;

  sta::TimingOptions serial_options;
  serial_options.clock_period = generated.calibrated_clock_period;
  serial_options.jobs = 1;
  sta::TimingOptions parallel_options = serial_options;
  parallel_options.jobs = 4;

  ASSERT_GT(apply_merges(design, sta::run_sta(design, serial_options), 40), 0);
  int dead_cells = 0;
  for (std::int32_t i = 0; i < design.cell_count(); ++i)
    if (design.cell(netlist::CellId{i}).dead) ++dead_cells;
  ASSERT_GT(dead_cells, 0);

  sta::SkewMap skew;
  util::Rng rng(404);
  for (const netlist::CellId reg : design.registers())
    if (rng.chance(0.3)) skew[reg] = rng.uniform_real(-0.15, 0.15);

  const sta::TimingReport serial = sta::run_sta(design, serial_options, skew);
  sta::TimingEngine engine(design, parallel_options);
  expect_report_matches_oracle(engine.update(skew), serial,
                               "jobs 4 full build after merges");
  EXPECT_EQ(engine.report().tns(), serial.tns());
}

// Dense rounds: a new skew on at least a quarter of the registers plus
// moves and swaps, so both repair frontiers are wide. Two engines on two
// copies of the design take the same rounds at jobs 1 and 4; the reports
// and the exact change logs must match each other, and the reports must
// match run_sta.
TEST(StaIncremental, DenseRepairAtJobs4MatchesSerialRepairAndOracle) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 515, 1500);
  netlist::Design serial_design = generated.design;
  netlist::Design& parallel_design = generated.design;

  sta::TimingOptions serial_options;
  serial_options.clock_period = generated.calibrated_clock_period;
  serial_options.jobs = 1;
  sta::TimingOptions parallel_options = serial_options;
  parallel_options.jobs = 4;

  sta::TimingEngine serial(serial_design, serial_options);
  sta::TimingEngine parallel(parallel_design, parallel_options);
  sta::SkewMap skew;
  serial.update(skew);
  parallel.update(skew);

  const auto registers = serial_design.registers();
  util::Rng rng(0x5eed);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t dense = registers.size() / 4 + static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(registers.size()) / 4));
    for (std::size_t i = 0; i < dense; ++i) {
      const netlist::CellId reg = pick_register(registers, rng);
      if (rng.chance(0.1))
        skew.erase(reg);
      else
        skew[reg] = rng.uniform_real(-0.15, 0.15);
    }
    for (int edit = 0; edit < 4; ++edit) {
      const netlist::CellId reg = pick_register(registers, rng);
      util::Rng twin = rng;  // the same placement and variant on both copies
      move_register(serial_design, reg, twin);
      swap_register(serial_design, reg, twin);
      move_register(parallel_design, reg, rng);
      swap_register(parallel_design, reg, rng);
    }

    const sta::TimingReport before = serial.report();
    serial.clear_changed_pins();
    parallel.clear_changed_pins();
    const sta::TimingReport& want = serial.update(skew);
    const sta::TimingReport& got = parallel.update(skew);
    expect_report_matches_oracle(got, want, "jobs 4 against jobs 1");
    expect_report_matches_oracle(
        got, sta::run_sta(parallel_design, parallel_options, skew),
        "jobs 4 against run_sta");
    ASSERT_EQ(parallel.changed_pins(), serial.changed_pins());
    expect_log_in_documented_order(parallel, before, got);
    EXPECT_EQ(parallel.stats().last_repaired_pins,
              serial.stats().last_repaired_pins);
    EXPECT_EQ(parallel.stats().early_stops, serial.stats().early_stops);
  }
  EXPECT_EQ(parallel.stats().full_builds, 1u);
}

// Skews a random `fraction` of the registers (a tenth of them back to 0).
void skew_registers(const std::vector<netlist::CellId>& registers,
                    double fraction, sta::SkewMap& skew, util::Rng& rng) {
  const auto count = static_cast<std::size_t>(
      std::max(1.0, fraction * static_cast<double>(registers.size())));
  for (std::size_t i = 0; i < count; ++i) {
    const netlist::CellId reg = pick_register(registers, rng);
    if (rng.chance(0.1))
      skew.erase(reg);
    else
      skew[reg] = rng.uniform_real(-0.15, 0.15);
  }
}

class StaRepairJobs : public ::testing::TestWithParam<int> {};

// Narrow repairs (a few skews, moves and swaps: every level on the calling
// thread) and wide ones (25-100 % of the registers skewed, with moves and
// swaps: levels split into chunks, on the pool at jobs > 1) on two copies of
// one design, at jobs 1 and at the parameter. After every repair: the
// report equals run_sta and the jobs 1 report, the change log, the tallies
// and the repaired-pin count equal the jobs 1 engine's, and the log holds
// exactly the moved pins in the documented order.
TEST_P(StaRepairJobs, NarrowAndWideRepairsMatchSerialAndOracle) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 3131, 2500);
  netlist::Design serial_design = generated.design;
  netlist::Design& design = generated.design;

  sta::TimingOptions serial_options;
  serial_options.clock_period = generated.calibrated_clock_period;
  sta::TimingOptions options = serial_options;
  options.jobs = GetParam();

  sta::TimingEngine serial(serial_design, serial_options);
  sta::TimingEngine engine(design, options);
  sta::SkewMap skew;
  serial.update(skew);
  engine.update(skew);

  const auto registers = design.registers();
  util::Rng rng(0x1e7e1);
  const double wide[] = {0.25, 1.0, 0.5};
  std::uint64_t narrow_splits = 0;
  for (int round = 0; round < 9; ++round) {
    const bool is_wide = round % 3 == 2;
    SCOPED_TRACE((is_wide ? "wide round " : "narrow round ") +
                 std::to_string(round));
    skew_registers(registers, is_wide ? wide[round / 3] : 0.001, skew, rng);
    for (int edit = 0; edit < (is_wide ? 6 : 2); ++edit) {
      const netlist::CellId reg = pick_register(registers, rng);
      util::Rng twin = rng;  // the same placement and variant on both copies
      move_register(serial_design, reg, twin);
      swap_register(serial_design, reg, twin);
      move_register(design, reg, rng);
      swap_register(design, reg, rng);
    }

    const sta::TimingReport before = engine.report();
    const std::uint64_t splits_before = engine.stats().split_levels;
    serial.clear_changed_pins();
    engine.clear_changed_pins();
    const sta::TimingReport& want = serial.update(skew);
    const sta::TimingReport& got = engine.update(skew);
    expect_report_matches_oracle(got, want, "against jobs 1");
    expect_report_matches_oracle(got, sta::run_sta(design, options, skew),
                                 "against run_sta");
    ASSERT_EQ(engine.changed_pins(), serial.changed_pins());
    EXPECT_EQ(engine.stats().last_repaired_pins,
              serial.stats().last_repaired_pins);
    EXPECT_EQ(engine.stats().early_stops, serial.stats().early_stops);
    EXPECT_EQ(engine.stats().split_levels, serial.stats().split_levels);
    expect_log_in_documented_order(engine, before, got);
    if (is_wide) {
      EXPECT_GT(engine.stats().split_levels, splits_before)
          << "a wide repair split no level into chunks";
    } else {
      narrow_splits += engine.stats().split_levels - splits_before;
    }
  }
  EXPECT_EQ(narrow_splits, 0u) << "a narrow repair split a level";
  EXPECT_EQ(engine.stats().full_builds, 1u);
  // On a multi-core host the pool has workers, so at jobs > 1 the wide
  // levels' chunks write the report, the log flags and the endpoint stamps
  // from several threads: the case the thread-sanitizer job runs for.
  if (GetParam() > 1 && std::thread::hardware_concurrency() > 1) {
    EXPECT_GT(runtime::ThreadPool::global().worker_count(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Jobs, StaRepairJobs, ::testing::Values(1, 2, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// A level boundary inside a frontier word, on the backward side: two
// register D pins share a 64-position word of Kahn's order but sit on
// different levels. Skewing both registers seeds both pins; the higher
// level is swept first and must take only its own bit out of the word,
// since a D pin has no successors that would mark it again.
TEST(StaIncremental, LevelBoundaryInsideAFrontierWordRepairsBothLevels) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 2718, 600);
  netlist::Design& design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  sta::TimingEngine engine(design, options);
  engine.update();

  // The first word holding D pins of two registers on two levels.
  const auto& topo = engine.topo_order();
  std::optional<std::pair<netlist::PinId, netlist::PinId>> pair;
  for (std::size_t word = 0; word * 64 < topo.size() && !pair; ++word) {
    std::optional<netlist::PinId> low;
    for (std::size_t k = word * 64; k < std::min(topo.size(), word * 64 + 64);
         ++k) {
      const netlist::Pin& p = design.pin(topo[k]);
      if (p.role != netlist::PinRole::kD || !p.net.valid()) continue;
      if (!low) {
        low = topo[k];
      } else if (engine.level_of(topo[k]) != engine.level_of(*low) &&
                 design.pin(*low).cell != p.cell) {
        pair.emplace(*low, topo[k]);
        break;
      }
    }
  }
  ASSERT_TRUE(pair.has_value()) << "no word straddles two levels' D pins";
  ASSERT_LT(engine.level_of(pair->first), engine.level_of(pair->second));

  sta::SkewMap skew;
  skew[design.pin(pair->first).cell] = 0.07;
  skew[design.pin(pair->second).cell] = -0.05;
  const sta::TimingReport before = engine.report();
  engine.clear_changed_pins();
  const sta::TimingReport& got = engine.update(skew);
  expect_report_matches_oracle(got, sta::run_sta(design, options, skew),
                               "boundary word");
  EXPECT_NE(got.required[pair->first.index], before.required[pair->first.index]);
  EXPECT_NE(got.required[pair->second.index],
            before.required[pair->second.index]);
  expect_log_in_documented_order(engine, before, got);
}

class StaRefresh : public ::testing::TestWithParam<int> {};

// refresh() after journaled edits equals update() with the skew it keeps:
// the same report, the same change log, one incremental update each. After
// a structural merge it rebuilds under that skew too.
TEST_P(StaRefresh, RefreshAfterEditsEqualsUpdateWithSameSkew) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 46);
  netlist::Design refreshed_design = generated.design;
  netlist::Design& updated_design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  options.jobs = GetParam();

  sta::TimingEngine refreshed(refreshed_design, options);
  sta::TimingEngine updated(updated_design, options);
  const auto registers = updated_design.registers();
  sta::SkewMap skew;
  util::Rng rng(0x7e57);
  for (const netlist::CellId reg : registers)
    if (rng.chance(0.5)) skew[reg] = rng.uniform_real(-0.1, 0.1);
  refreshed.update(skew);
  updated.update(skew);

  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (int edit = 0; edit < 3; ++edit) {
      const netlist::CellId reg = pick_register(registers, rng);
      util::Rng twin = rng;
      swap_register(refreshed_design, reg, twin);
      if (round % 2 == 1) move_register(refreshed_design, reg, twin);
      swap_register(updated_design, reg, rng);
      if (round % 2 == 1) move_register(updated_design, reg, rng);
    }
    refreshed.clear_changed_pins();
    updated.clear_changed_pins();
    expect_report_matches_oracle(refreshed.refresh(), updated.update(skew),
                                 "refresh against update");
    ASSERT_EQ(refreshed.changed_pins(), updated.changed_pins());
    expect_report_matches_oracle(refreshed.report(),
                                 sta::run_sta(refreshed_design, options, skew),
                                 "refresh against run_sta");
  }
  EXPECT_EQ(refreshed.stats().full_builds, 1u);
  EXPECT_EQ(refreshed.stats().incremental_updates,
            updated.stats().incremental_updates);

  // A structural edit: refresh() rebuilds, still under the kept skew.
  const sta::TimingReport planning = refreshed.report();
  ASSERT_GT(apply_merges(refreshed_design, planning, 2), 0);
  expect_report_matches_oracle(refreshed.refresh(),
                               sta::run_sta(refreshed_design, options, skew),
                               "refresh after a merge");
  EXPECT_EQ(refreshed.stats().full_builds, 2u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, StaRefresh, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// A net with more than 5k sinks, driven by an inverter whose input comes
// from an input port: every sink is an endpoint, so every arc of the net
// and the inverter's cell arc carry values. An edit must cost the arcs it
// changes, not the net's fan-out: a moved interior sink evaluates its own
// arc and scans no load pins, while each edit that changes the net's HPWL
// or a cap on it (an edge-owning sink moved inward, a sink moved outside
// the box, the driver moved, a swap that changes a D-pin cap) refolds the
// driver's load once. After every edit the report equals run_sta and the
// change log holds exactly the moved pins in the documented order.
class StaBigNet : public ::testing::TestWithParam<int> {};

TEST_P(StaBigNet, AnEditCostsItsOwnArcs) {
  lib::Library library = lib::make_default_library();
  // A 1-bit register family with a second variant of equal caps, plus a
  // variant whose D pins are heavier.
  std::string family;
  for (const lib::RegisterCell& cell : library.registers()) {
    if (cell.bits != 1 || cell.function.is_scan) continue;
    const auto variants = library.drive_variants(cell);
    if (variants.size() > 1) {
      family = variants.front()->name;
      break;
    }
  }
  ASSERT_FALSE(family.empty());
  lib::RegisterCell heavy = *library.register_by_name(family);
  heavy.name += "_HEAVY_D";
  heavy.data_pin_cap *= 1.8;
  library.add_register(heavy);
  const lib::RegisterCell* plain = library.register_by_name(family);
  const lib::RegisterCell* heavy_d = library.register_by_name(heavy.name);
  const lib::RegisterCell* resized = nullptr;
  for (const lib::RegisterCell* v : library.drive_variants(*plain))
    if (v != plain && v != heavy_d && v->data_pin_cap == plain->data_pin_cap &&
        v->width != plain->width)
      resized = v;
  ASSERT_NE(resized, nullptr);

  netlist::Design design(&library, geom::Rect{0.0, 0.0, 400.0, 400.0});
  const auto first_pin = [&](netlist::CellId cell) {
    return design.cell(cell).pins.front();
  };
  const netlist::CellId in = design.add_port("in", true, {0.0, 200.0});
  const netlist::CellId inv = design.add_comb(
      "drv", library.comb_by_name("INV_X4"), {20.0, 200.0});
  const netlist::NetId feed = design.create_net();
  design.connect(first_pin(in), feed);
  design.connect(design.cell(inv).pins[0], feed);
  const netlist::PinId driver = design.cell(inv).pins[1];
  const netlist::NetId big = design.create_net();
  design.connect(driver, big);
  // The interior sink at the centre, 5,200 ports strewn around it, the
  // right edge's owner, and four registers' D pins.
  const netlist::CellId interior =
      design.add_port("interior", false, {200.0, 200.0});
  design.connect(first_pin(interior), big);
  util::Rng rng(0xb16);
  for (int i = 0; i < 5200; ++i) {
    const netlist::CellId port = design.add_port(
        "out" + std::to_string(i), false,
        {rng.uniform_real(60.0, 340.0), rng.uniform_real(40.0, 360.0)});
    design.connect(first_pin(port), big);
  }
  const netlist::CellId edge = design.add_port("edge", false, {390.0, 200.0});
  design.connect(first_pin(edge), big);
  std::vector<netlist::CellId> regs;
  for (int i = 0; i < 4; ++i) {
    regs.push_back(design.add_register("r" + std::to_string(i), plain,
                                       {150.0 + 20.0 * i, 180.0}));
    design.connect(design.register_d_pin(regs.back(), 0), big);
  }
  const std::size_t net_pins = 1 + design.net(big).sinks.size();
  ASSERT_GT(net_pins, 5000u);

  sta::TimingOptions options;
  options.jobs = GetParam();
  sta::TimingEngine engine(design, options);
  expect_report_matches_oracle(engine.refresh(), sta::run_sta(design, options),
                               "initial build");

  struct Cost {
    std::uint64_t arcs = 0;
    std::uint64_t load_pins = 0;
  };
  // Applies one edit, refreshes, checks the report and the log, and
  // returns the arcs evaluated and load pins scanned; `moved` must move.
  const auto edit = [&](const std::string& what, auto&& apply,
                        netlist::PinId moved) {
    SCOPED_TRACE(what);
    const sta::TimingReport before = engine.report();
    const sta::TimingEngine::Stats stats = engine.stats();
    engine.clear_changed_pins();
    apply();
    const sta::TimingReport& got = engine.refresh();
    expect_report_matches_oracle(got, sta::run_sta(design, options), what);
    expect_log_in_documented_order(engine, before, got);
    EXPECT_TRUE(arrival_moved(before, got, moved.index)) << "a vacuous edit";
    return Cost{engine.stats().arcs_evaluated - stats.arcs_evaluated,
                engine.stats().load_pins_scanned - stats.load_pins_scanned};
  };
  const auto move = [&](netlist::CellId cell, geom::Point to) {
    design.cell(cell).position = to;
    design.notify_moved(cell);
  };

  Cost cost = edit("interior sink moved",
                   [&] { move(interior, {203.0, 198.0}); },
                   first_pin(interior));
  EXPECT_LE(cost.arcs, 2u);
  EXPECT_EQ(cost.load_pins, 0u);

  const netlist::PinId d0 = design.register_d_pin(regs[0], 0);
  cost = edit("interior register resized, caps kept",
              [&] { design.swap_register_cell(regs[0], resized); }, d0);
  EXPECT_LE(cost.arcs, 2u);
  EXPECT_EQ(cost.load_pins, 0u);

  cost = edit("edge-owning sink moved inward",
              [&] { move(edge, {300.0, 200.0}); }, driver);
  EXPECT_LE(cost.arcs, 2u);
  EXPECT_EQ(cost.load_pins, net_pins);

  cost = edit("interior sink moved outside the box",
              [&] { move(interior, {395.0, 398.0}); }, driver);
  EXPECT_LE(cost.arcs, 2u);
  EXPECT_EQ(cost.load_pins, net_pins);

  cost = edit("driver moved", [&] { move(inv, {12.0, 201.0}); }, driver);
  EXPECT_GE(cost.arcs, net_pins - 1);  // every wire arc of the net
  EXPECT_EQ(cost.load_pins, net_pins);

  cost = edit("swap that changes a D-pin cap",
              [&] { design.swap_register_cell(regs[1], heavy_d); }, driver);
  EXPECT_LE(cost.arcs, 2u);
  EXPECT_EQ(cost.load_pins, net_pins);

  EXPECT_EQ(engine.stats().full_builds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, StaBigNet, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// The five aggregates as full scans of the endpoint list: the reference the
// report's filed aggregates must reproduce bit for bit. WNS, hold WNS and
// the counts fold in endpoint order; TNS is the correctly rounded sum of the
// failing slacks (a Shewchuk reference that shares no code with the
// report's accumulator).
sta::TimingSummary scan_endpoints(const sta::TimingReport& report) {
  sta::TimingSummary s;
  std::vector<double> failing;
  for (const sta::EndpointSlack& e : report.endpoints) {
    s.wns = std::min(s.wns, e.slack);
    if (e.slack < 0) {
      failing.push_back(e.slack);
      ++s.failing_endpoints;
    }
    if (e.hold_slack != sta::kNoRequired) {
      s.hold_wns = std::min(s.hold_wns, e.hold_slack);
      if (e.hold_slack < 0) ++s.failing_hold_endpoints;
    }
  }
  s.tns = oracle::correctly_rounded_sum(failing);
  return s;
}

void expect_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

// summary() and each accessor against the scan.
void expect_summaries_match_scan(const sta::TimingReport& report,
                                 const std::string& context) {
  SCOPED_TRACE(context);
  const sta::TimingSummary want = scan_endpoints(report);
  const sta::TimingSummary got = report.summary();
  expect_bits(got.wns, want.wns, "summary wns");
  expect_bits(got.tns, want.tns, "summary tns");
  expect_bits(got.hold_wns, want.hold_wns, "summary hold_wns");
  EXPECT_EQ(got.failing_endpoints, want.failing_endpoints);
  EXPECT_EQ(got.failing_hold_endpoints, want.failing_hold_endpoints);
  expect_bits(report.wns(), want.wns, "wns()");
  expect_bits(report.tns(), want.tns, "tns()");
  expect_bits(report.hold_wns(), want.hold_wns, "hold_wns()");
  EXPECT_EQ(report.failing_endpoints(), want.failing_endpoints);
  EXPECT_EQ(report.failing_hold_endpoints(), want.failing_hold_endpoints);
}

class StaFailingIndex : public ::testing::TestWithParam<int> {};

// Every full build and every repair keeps the filed aggregates in step with
// the slacks it writes. Large skews push register D endpoints across zero
// in both directions (a late capture clock passes setup and fails hold, an
// early one fails setup), moves and swaps reach the index through the edit
// journal and refresh(), and a snapshot restore rebuilds it.
TEST_P(StaFailingIndex, SummariesMatchEndpointScanAfterEveryUpdate) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 612, 400);
  netlist::Design& design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  options.jobs = GetParam();

  sta::TimingEngine engine(design, options);
  sta::SkewMap skew;
  const auto registers = design.registers();
  util::Rng rng(0xfa11 + static_cast<std::uint64_t>(GetParam()));

  // Setup-failing slots of the previous report, to count crossings.
  std::vector<bool> failing;
  int entered = 0;
  int left = 0;
  int most_hold_failing = 0;
  const auto check = [&](const sta::TimingReport& report,
                         const std::string& context) {
    expect_summaries_match_scan(report, context);
    if (failing.size() == report.endpoints.size()) {
      for (std::size_t i = 0; i < failing.size(); ++i) {
        const bool now = report.endpoints[i].slack < 0;
        if (now && !failing[i]) ++entered;
        if (!now && failing[i]) ++left;
      }
    }
    failing.assign(report.endpoints.size(), false);
    for (std::size_t i = 0; i < failing.size(); ++i)
      failing[i] = report.endpoints[i].slack < 0;
    most_hold_failing =
        std::max(most_hold_failing, report.failing_hold_endpoints());
  };

  check(engine.update(skew), "initial build");
  ASSERT_GT(engine.report().failing_endpoints(), 0);

  std::optional<netlist::Design::Snapshot> saved;
  sta::SkewMap saved_skew;
  for (int round = 0; round < 12; ++round) {
    const std::string tag = "round " + std::to_string(round);
    mutate_round(design, skew, rng);
    for (int k = 0; k < 3; ++k) {
      const netlist::CellId reg = pick_register(registers, rng);
      skew[reg] = (round + k) % 2 == 0 ? 0.6 : -0.6;
    }
    check(engine.update(skew), tag + " update");

    // Moves and swaps alone: the journal-only repair.
    move_register(design, pick_register(registers, rng), rng);
    swap_register(design, pick_register(registers, rng), rng);
    check(engine.refresh(), tag + " refresh");

    if (round == 4) {
      saved = design.snapshot();
      saved_skew = skew;
    }
  }
  EXPECT_EQ(engine.stats().full_builds, 1u);
  EXPECT_GT(entered, 0) << "no endpoint started failing";
  EXPECT_GT(left, 0) << "no endpoint stopped failing";
  EXPECT_GT(most_hold_failing, 0) << "no endpoint failed hold";

  ASSERT_TRUE(saved.has_value());
  design.restore(*saved);
  failing.clear();
  check(engine.update(saved_skew), "after restore");
  EXPECT_EQ(engine.stats().full_builds, 2u);
  expect_report_matches_oracle(engine.report(),
                               sta::run_sta(design, options, saved_skew),
                               "after restore");
  mutate_round(design, saved_skew, rng);
  check(engine.update(saved_skew), "repair after restore");
}

// The aggregates depend only on the final slacks, not on the history that
// filed them: two engines that take the same skew and move edits in
// different orders, syncing at different points, end with bit-identical
// summaries, equal to a fresh build's. Each register takes at most one skew
// and one move, so every order reaches the same design.
TEST_P(StaFailingIndex, SummaryDoesNotDependOnEditOrder) {
  const lib::Library library = lib::make_default_library();
  const benchgen::GeneratedDesign generated = make_design(library, 913, 400);
  netlist::Design design_a = generated.design;
  netlist::Design design_b = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  options.jobs = GetParam();

  struct Edit {
    netlist::CellId cell;
    bool move = false;
    double skew = 0.0;
    geom::Point position;
  };
  std::vector<netlist::CellId> registers = design_a.registers();
  util::Rng rng(0x0dde'0000u + static_cast<std::uint64_t>(GetParam()));
  for (std::size_t i = registers.size(); i > 1; --i)
    std::swap(registers[i - 1],
              registers[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  std::vector<Edit> edits;
  const geom::Rect& core = design_a.core();
  for (std::size_t k = 0; k < 80; ++k) {
    edits.push_back({registers[k], false,
                     rng.chance(0.5) ? rng.uniform_real(0.3, 0.6)
                                     : rng.uniform_real(-0.6, -0.3),
                     {}});
    const netlist::Cell& cell = design_a.cell(registers[80 + k]);
    edits.push_back(
        {registers[80 + k], true, 0.0,
         {std::clamp(cell.position.x + rng.uniform_real(-30.0, 30.0),
                     core.xlo, core.xhi - cell.width()),
          std::clamp(cell.position.y + rng.uniform_real(-30.0, 30.0),
                     core.ylo, core.yhi - cell.height())}});
  }
  const auto apply = [](netlist::Design& design, sta::TimingEngine& engine,
                        const Edit& e) {
    if (!e.move) {
      engine.set_skew(e.cell, e.skew);
      return;
    }
    design.cell(e.cell).position = e.position;
    design.notify_moved(e.cell);
  };

  // Engine A syncs after every edit, in list order; engine B takes the
  // edits in a shuffled order and syncs every seventh.
  sta::TimingEngine engine_a(design_a, options);
  sta::TimingEngine engine_b(design_b, options);
  engine_a.refresh();
  engine_b.refresh();
  for (const Edit& e : edits) {
    apply(design_a, engine_a, e);
    engine_a.refresh();
  }
  std::vector<Edit> shuffled = edits;
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    apply(design_b, engine_b, shuffled[i]);
    if (i % 7 == 6) engine_b.refresh();
  }
  const sta::TimingReport& a = engine_a.refresh();
  const sta::TimingReport& b = engine_b.refresh();
  expect_report_matches_oracle(b, a, "shuffled against in order");
  EXPECT_GT(engine_a.stats().endpoints_refiled, 0u);
  EXPECT_GT(engine_b.stats().endpoints_refiled, 0u);

  sta::SkewMap skew;
  for (const Edit& e : edits)
    if (!e.move) skew[e.cell] = e.skew;
  const sta::TimingReport fresh = sta::run_sta(design_a, options, skew);
  const sta::TimingSummary want = fresh.summary();
  for (const sta::TimingReport* report : {&a, &b}) {
    const sta::TimingSummary got = report->summary();
    expect_bits(got.wns, want.wns, "wns");
    expect_bits(got.tns, want.tns, "tns");
    expect_bits(got.hold_wns, want.hold_wns, "hold_wns");
    EXPECT_EQ(got.failing_endpoints, want.failing_endpoints);
    EXPECT_EQ(got.failing_hold_endpoints, want.failing_hold_endpoints);
  }
  expect_summaries_match_scan(a, "in order");
  EXPECT_GT(want.failing_endpoints, 0);
  EXPECT_EQ(engine_a.stats().full_builds, 1u);
  EXPECT_EQ(engine_b.stats().full_builds, 1u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, StaFailingIndex, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// The level sweeps read each level as one range of Kahn's order, which
// holds because the FIFO pops pins in level order; the engine asserts it on
// every build. Rounds of real merges leave dead cells and force rebuilds:
// each rebuild at jobs 1 and 4 must pass that assertion and agree with the
// other and with run_sta, summaries included.
TEST(StaIncremental, KahnOrderIsLevelSortedAcrossRebuildsWithDeadCells) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 707, 900);
  netlist::Design& design = generated.design;

  sta::TimingOptions serial_options;
  serial_options.clock_period = generated.calibrated_clock_period;
  sta::TimingOptions parallel_options = serial_options;
  parallel_options.jobs = 4;

  sta::TimingEngine serial(design, serial_options);
  sta::TimingEngine parallel(design, parallel_options);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const sta::TimingReport planning = serial.update();
    ASSERT_GT(apply_merges(design, planning, 15), 0);
    const sta::TimingReport& want = serial.update();
    const sta::TimingReport& got = parallel.update();
    expect_report_matches_oracle(got, want, "jobs 4 against jobs 1");
    expect_report_matches_oracle(want, sta::run_sta(design, serial_options),
                                 "jobs 1 against run_sta");
    expect_summaries_match_scan(got, "jobs 4 rebuild");
  }
  int dead_cells = 0;
  for (std::int32_t i = 0; i < design.cell_count(); ++i)
    if (design.cell(netlist::CellId{i}).dead) ++dead_cells;
  EXPECT_GT(dead_cells, 0);
  EXPECT_EQ(serial.stats().full_builds, 4u);
}

}  // namespace
}  // namespace mbrc
