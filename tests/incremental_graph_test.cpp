// Incremental compatibility graph contract tests (DESIGN.md §12.1).
//
// The session's kept graph must equal a fresh build_compatibility_graph
// after any sequence of moves, swaps and skews, and a region plan on it must
// equal plan_composition_region on a fresh run_sta report: same subgraphs,
// candidates, ILP nodes, bit-exact objective and the same selections,
// resolved to cells. Checked at jobs 1 and 4, directly on the graph, through
// Session::recompose, and across snapshot/rollback.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/composition.hpp"
#include "mbr/incremental_graph.hpp"
#include "service/session.hpp"
#include "sta/sta.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

constexpr int kRegisters = 400;
constexpr int kBatches = 12;

benchgen::GeneratedDesign make_design(const lib::Library& library) {
  benchgen::DesignProfile profile;
  profile.name = "incgraph";
  profile.register_cells = kRegisters;
  profile.seed = 23;
  return benchgen::generate_design(library, profile);
}

// A batch of topology-preserving edits, valid on `design` as it stands:
// moves of registers and combinational cells (mostly local, up to 6 um per
// axis; one in four anywhere in the core, so cells change bins), skews and
// skew clears, and swaps within a register's family.
std::vector<service::Edit> random_batch(const netlist::Design& design,
                                        util::Rng& rng) {
  std::vector<netlist::CellId> movable;
  for (netlist::CellId cell : design.live_cells()) {
    const netlist::Cell& c = design.cell(cell);
    if (!c.fixed && c.kind != netlist::CellKind::kPort) movable.push_back(cell);
  }
  std::vector<netlist::CellId> registers;
  for (netlist::CellId cell : design.registers())
    if (!design.cell(cell).fixed) registers.push_back(cell);
  const auto pick = [&](const std::vector<netlist::CellId>& from) {
    return from[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  };

  std::vector<service::Edit> edits;
  const int count = static_cast<int>(rng.uniform_int(2, 8));
  for (int k = 0; k < count; ++k) {
    service::Edit e;
    const double roll = rng.uniform_real(0.0, 1.0);
    if (roll < 0.4) {
      e.op = service::Edit::Op::kMove;
      e.cell = pick(movable);
      const netlist::Cell& c = design.cell(e.cell);
      const geom::Rect& core = design.core();
      const double reach = rng.chance(0.25) ? core.width() : 6.0;
      e.x = std::clamp(c.position.x + rng.uniform_real(-reach, reach),
                       core.xlo, core.xhi - c.width());
      e.y = std::clamp(c.position.y + rng.uniform_real(-reach, reach),
                       core.ylo, core.yhi - c.height());
    } else if (roll < 0.85) {
      e.op = service::Edit::Op::kSkew;
      e.cell = pick(registers);
      e.clear_skew = rng.chance(0.2);
      e.skew = rng.uniform_real(-0.1, 0.1);
    } else {
      e.op = service::Edit::Op::kSwap;
      e.cell = pick(registers);
      const netlist::Cell& c = design.cell(e.cell);
      const auto variants = design.library().drive_variants(*c.reg);
      e.variant = variants[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(variants.size()) -
                                      1))]
                      ->name;
    }
    edits.push_back(e);
  }
  return edits;
}

// Applies `edit` the way Session::apply does, to a reference design and
// skew map.
void apply_reference(netlist::Design& design, sta::SkewMap& skew,
                     const service::Edit& edit) {
  switch (edit.op) {
    case service::Edit::Op::kMove:
      design.cell(edit.cell).position = {edit.x, edit.y};
      design.notify_moved(edit.cell);
      break;
    case service::Edit::Op::kSwap: {
      const lib::RegisterCell* variant =
          design.library().register_by_name(edit.variant);
      if (variant != design.cell(edit.cell).reg)
        design.swap_register_cell(edit.cell, variant);
      break;
    }
    case service::Edit::Op::kSkew:
      if (edit.clear_skew)
        skew.erase(edit.cell);
      else
        skew[edit.cell] = edit.skew;
      break;
  }
}

void expect_same_graph(const mbr::CompatibilityGraph& got,
                       const mbr::CompatibilityGraph& want) {
  ASSERT_EQ(got.node_count(), want.node_count());
  for (int i = 0; i < want.node_count(); ++i) {
    const mbr::RegisterInfo& a = got.node(i);
    const mbr::RegisterInfo& b = want.node(i);
    ASSERT_EQ(a.cell, b.cell) << "node " << i;
    EXPECT_EQ(a.lib_cell, b.lib_cell) << "node " << i;
    EXPECT_EQ(a.footprint, b.footprint) << "node " << i;
    EXPECT_EQ(a.region, b.region) << "node " << i;
    EXPECT_EQ(a.d_slack, b.d_slack) << "node " << i;
    EXPECT_EQ(a.q_slack, b.q_slack) << "node " << i;
    std::vector<netlist::CellId> got_cells;
    std::vector<netlist::CellId> want_cells;
    for (int j : got.neighbors(i)) got_cells.push_back(got.node(j).cell);
    for (int j : want.neighbors(i)) want_cells.push_back(want.node(j).cell);
    EXPECT_EQ(got_cells, want_cells) << "adjacency of node " << i;
  }
}

void expect_same_plan(const mbr::CompositionPlan& got,
                      const mbr::CompositionPlan& want) {
  EXPECT_EQ(got.subgraph_count, want.subgraph_count);
  EXPECT_EQ(got.candidate_count, want.candidate_count);
  EXPECT_EQ(got.ilp_nodes, want.ilp_nodes);
  EXPECT_EQ(got.truncated_subgraphs, want.truncated_subgraphs);
  EXPECT_EQ(got.objective, want.objective);  // bit-exact
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t k = 0; k < want.selections.size(); ++k) {
    const mbr::Selection& a = got.selections[k];
    const mbr::Selection& b = want.selections[k];
    EXPECT_EQ(a.members, b.members) << "selection " << k;
    EXPECT_EQ(a.candidate.nodes, b.candidate.nodes) << "selection " << k;
    EXPECT_EQ(a.candidate.bits, b.candidate.bits) << "selection " << k;
    EXPECT_EQ(a.candidate.mapped_width, b.candidate.mapped_width);
    EXPECT_EQ(a.candidate.blockers, b.candidate.blockers);
    EXPECT_EQ(a.candidate.weight, b.candidate.weight);
    EXPECT_EQ(a.candidate.needs_per_bit_scan, b.candidate.needs_per_bit_scan);
    EXPECT_EQ(a.candidate.common_region, b.candidate.common_region);
  }
}

void expect_same_answer(const service::RecomposeAnswer& got,
                        const service::RecomposeAnswer& want) {
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.region_registers, want.region_registers);
  EXPECT_EQ(got.subgraphs, want.subgraphs);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.ilp_nodes, want.ilp_nodes);
  EXPECT_EQ(got.planned_mbrs, want.planned_mbrs);
  EXPECT_EQ(got.merged_registers, want.merged_registers);
  EXPECT_EQ(got.objective, want.objective);  // bit-exact
}

mbr::CompositionOptions composition_options(int jobs) {
  mbr::CompositionOptions options;
  options.jobs = jobs;
  options.partition.max_nodes = 12;  // several subgraphs per component
  return options;
}

class IncrementalGraphTest : public ::testing::TestWithParam<int> {};

// Edits straight on a design, an engine and the kept graph: after every
// batch the graph equals a fresh build, a region plan equals
// plan_composition_region, and at the end a whole-graph plan equals
// plan_composition.
TEST_P(IncrementalGraphTest, KeptGraphMatchesFreshBuildAfterRandomEdits) {
  const int jobs = GetParam();
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library);
  netlist::Design& design = generated.design;
  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  timing.jobs = jobs;
  const mbr::CompositionOptions options = composition_options(jobs);

  sta::TimingEngine engine(design, timing);
  mbr::IncrementalCompatibilityGraph kept(
      design, mbr::compatibility_with_jobs(options));
  sta::SkewMap skew;
  util::Rng rng(0x5eed + static_cast<std::uint64_t>(jobs));

  engine.update(skew);
  kept.sync(engine);
  std::size_t dirty_seen = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<netlist::CellId> region;
    for (const service::Edit& edit : random_batch(design, rng)) {
      apply_reference(design, skew, edit);
      if (design.cell(edit.cell).kind == netlist::CellKind::kRegister)
        region.push_back(edit.cell);
    }
    engine.update(skew);
    kept.sync(engine);
    dirty_seen += kept.stats().last_dirty_registers;

    const sta::TimingReport fresh_timing = sta::run_sta(design, timing, skew);
    const mbr::CompatibilityGraph fresh = mbr::build_compatibility_graph(
        design, fresh_timing, mbr::compatibility_with_jobs(options));
    expect_same_graph(kept.graph(), fresh);

    const mbr::CompositionPlan got = mbr::plan_on_graph(
        kept.graph(), kept.blockers(), design,
        mbr::region_nodes(kept.graph(), region), options);
    expect_same_plan(got, mbr::plan_composition_region(design, fresh_timing,
                                                       region, options));
  }
  EXPECT_EQ(kept.stats().full_builds, 1u);
  EXPECT_EQ(kept.stats().incremental_updates,
            static_cast<std::uint64_t>(kBatches));
  EXPECT_GT(dirty_seen, 0u);

  const sta::TimingReport fresh_timing = sta::run_sta(design, timing, skew);
  expect_same_plan(mbr::plan_on_graph(kept.graph(), kept.blockers(), design,
                                      std::nullopt, options),
                   mbr::plan_composition(design, fresh_timing, options));
}

// The same contract through the service: Session::recompose over the
// implicit region (registers edited since the last recompose) answers
// exactly what plan_composition_region answers on a fresh run_sta report of
// a reference copy. Queries between batches make the engine's change log
// accumulate over several updates before a recompose drains it.
TEST_P(IncrementalGraphTest, SessionRecomposeMatchesFreshRegionPlan) {
  const int jobs = GetParam();
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library);
  service::SessionOptions session_options;
  session_options.timing.clock_period = generated.calibrated_clock_period;
  session_options.composition = composition_options(jobs);
  netlist::Design reference = generated.design;
  service::Session session(library, std::move(generated.design),
                           session_options);
  sta::SkewMap skew;
  util::Rng rng(0xabc + static_cast<std::uint64_t>(jobs));

  std::set<netlist::CellId> touched;
  for (int batch = 0; batch < kBatches; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::vector<service::Edit> edits = random_batch(reference, rng);
    for (const service::Edit& edit : edits) {
      apply_reference(reference, skew, edit);
      if (reference.cell(edit.cell).kind == netlist::CellKind::kRegister)
        touched.insert(edit.cell);
    }
    ASSERT_TRUE(session.apply(edits).ok());
    session.query({});
    if (batch % 3 == 0) continue;  // let edits pile up across queries

    const service::RecomposeAnswer got = session.recompose({});
    const std::vector<netlist::CellId> region(touched.begin(), touched.end());
    touched.clear();
    const sta::TimingReport fresh_timing =
        sta::run_sta(reference, session_options.timing, skew);
    const mbr::CompositionPlan plan = mbr::plan_composition_region(
        reference, fresh_timing, region, session_options.composition);
    service::RecomposeAnswer want;
    want.region_registers = static_cast<int>(region.size());
    want.subgraphs = plan.subgraph_count;
    want.candidates = plan.candidate_count;
    want.ilp_nodes = plan.ilp_nodes;
    want.objective = plan.objective;
    for (const mbr::Selection* merge : plan.merges()) {
      ++want.planned_mbrs;
      want.merged_registers += static_cast<int>(merge->members.size());
    }
    expect_same_answer(got, want);
    expect_same_graph(session.compat_graph(), plan.graph);
  }
  EXPECT_EQ(session.compat_stats().full_builds, 1u);
}

// Snapshot, more edits, a recompose, then rollback: the next recompose
// rebuilds the graph and answers exactly what a freshly opened session in
// the same state answers.
TEST_P(IncrementalGraphTest, RecomposeAfterRollbackMatchesFreshSession) {
  const int jobs = GetParam();
  const lib::Library library = lib::make_default_library();
  const benchgen::GeneratedDesign generated = make_design(library);
  service::SessionOptions session_options;
  session_options.timing.clock_period = generated.calibrated_clock_period;
  session_options.composition = composition_options(jobs);
  service::Session rolled(library, generated.design, session_options);
  service::Session fresh(library, generated.design, session_options);

  netlist::Design reference = generated.design;
  sta::SkewMap skew;
  util::Rng rng(0x4011 + static_cast<std::uint64_t>(jobs));
  const std::vector<service::Edit> before = random_batch(reference, rng);
  for (const service::Edit& edit : before)
    apply_reference(reference, skew, edit);
  ASSERT_TRUE(rolled.apply(before).ok());
  ASSERT_TRUE(fresh.apply(before).ok());

  ASSERT_TRUE(rolled.snapshot("base").ok());
  for (int batch = 0; batch < 3; ++batch) {
    const std::vector<service::Edit> after = random_batch(reference, rng);
    for (const service::Edit& edit : after)
      apply_reference(reference, skew, edit);
    ASSERT_TRUE(rolled.apply(after).ok());
    rolled.recompose({});
  }
  ASSERT_TRUE(rolled.rollback("base").ok());

  const service::RecomposeAnswer got = rolled.recompose({});
  const service::RecomposeAnswer want = fresh.recompose({});
  EXPECT_GT(want.region_registers, 0);
  expect_same_answer(got, want);
  expect_same_graph(rolled.compat_graph(), fresh.compat_graph());
  EXPECT_EQ(rolled.compat_stats().full_builds, 2u);
  EXPECT_EQ(fresh.compat_stats().full_builds, 1u);
}

// All nodes dirty: every register is moved (a small shift, so bins, regions
// and slacks change) and notified. The refresh re-derives every edge through
// the same routine a fresh build runs, from cleared lists, and must equal a
// fresh build_compatibility_graph node for node and edge for edge.
TEST_P(IncrementalGraphTest, RefreshWithEveryNodeDirtyMatchesFreshBuild) {
  const int jobs = GetParam();
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library);
  netlist::Design& design = generated.design;
  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  timing.jobs = jobs;
  const mbr::CompatibilityOptions options =
      mbr::compatibility_with_jobs(composition_options(jobs));

  sta::TimingEngine engine(design, timing);
  mbr::IncrementalCompatibilityGraph kept(design, options);
  engine.update();
  kept.sync(engine);
  ASSERT_GT(kept.graph().edge_count(), 0);

  const geom::Rect& core = design.core();
  int k = 0;
  for (netlist::CellId reg : design.registers()) {
    netlist::Cell& cell = design.cell(reg);
    const double shift = (k++ % 2 == 0) ? 3.5 : -3.5;
    cell.position.x =
        std::clamp(cell.position.x + shift, core.xlo, core.xhi - cell.width());
    design.notify_moved(reg);
  }
  engine.update();
  kept.sync(engine);
  EXPECT_EQ(kept.stats().full_builds, 1u);
  EXPECT_EQ(kept.stats().incremental_updates, 1u);
  EXPECT_EQ(kept.stats().last_dirty_registers,
            static_cast<std::size_t>(kept.graph().node_count()));

  const mbr::CompatibilityGraph fresh = mbr::build_compatibility_graph(
      design, sta::run_sta(design, timing), options);
  expect_same_graph(kept.graph(), fresh);
}

INSTANTIATE_TEST_SUITE_P(Jobs, IncrementalGraphTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// A register goes dirty when another cell on one of its data nets moves,
// even when no timing value at the register changes. Here a gate input on
// the register's D net moves inside the box of the net's other pins: the
// net's HPWL and the port-to-D wire keep their length, so the engine logs
// no pin of the register, yet the D pin's feasible region follows the gate.
TEST(IncrementalGraph, DataNetNeighborMoveRefreshesRegionWithoutTimingChange) {
  const lib::Library library = lib::make_default_library();
  netlist::Design design(&library, geom::Rect{0.0, 0.0, 400.0, 400.0});
  const lib::RegisterCell* dff =
      library.cells_for(lib::RegisterFunction{}, 1).front();
  const netlist::CellId reg = design.add_register("r", dff, {300.0, 300.0});
  const netlist::CellId port = design.add_port("in", true, {0.0, 0.0});
  const netlist::CellId gate =
      design.add_comb("g", &library.combs().front(), {150.0, 40.0});
  design.connect(design.register_clock_pin(reg), design.create_net(true));
  const netlist::NetId data = design.create_net();
  design.connect(design.cell(port).pins.front(), data);
  design.connect(design.register_d_pin(reg, 0), data);
  for (netlist::PinId pin : design.cell(gate).pins)
    if (design.pin(pin).role == netlist::PinRole::kCombIn) {
      design.connect(pin, data);
      break;
    }

  sta::TimingEngine engine(design, sta::TimingOptions{});
  mbr::IncrementalCompatibilityGraph kept(design, {});
  engine.update();
  kept.sync(engine);
  ASSERT_EQ(kept.graph().node_count(), 1);
  const geom::Rect region_before = kept.graph().node(0).region;

  design.cell(gate).position = {150.0, 240.0};
  design.notify_moved(gate);
  engine.update();
  for (std::int32_t pin : engine.changed_pins())
    EXPECT_NE(design.pin(netlist::PinId{pin}).cell, reg)
        << "the move changed timing at the register; the test lost its point";
  kept.sync(engine);

  const mbr::CompatibilityGraph fresh = mbr::build_compatibility_graph(
      design, sta::run_sta(design, sta::TimingOptions{}), {});
  EXPECT_NE(fresh.node(0).region, region_before);
  expect_same_graph(kept.graph(), fresh);
  EXPECT_EQ(kept.stats().last_dirty_registers, 1u);
}

// A register that moved far is found from its new bin by later probes: A
// jumps next to B (the edge appears from A's own probe), then B alone is
// touched and must find A again from B's side.
TEST(IncrementalGraph, MovedRegisterIsFoundFromItsNewBin) {
  const lib::Library library = lib::make_default_library();
  netlist::Design design(&library, geom::Rect{0.0, 0.0, 400.0, 400.0});
  const lib::RegisterCell* dff =
      library.cells_for(lib::RegisterFunction{}, 1).front();
  const netlist::CellId a = design.add_register("a", dff, {10.0, 10.0});
  const netlist::CellId b = design.add_register("b", dff, {300.0, 300.0});
  const netlist::NetId clock = design.create_net(true);
  design.connect(design.register_clock_pin(a), clock);
  design.connect(design.register_clock_pin(b), clock);

  sta::TimingEngine engine(design, sta::TimingOptions{});
  mbr::IncrementalCompatibilityGraph kept(design, {});
  engine.update();
  kept.sync(engine);
  ASSERT_EQ(kept.graph().edge_count(), 0);

  design.cell(a).position = {310.0, 300.0};
  design.notify_moved(a);
  engine.update();
  kept.sync(engine);
  ASSERT_TRUE(kept.graph().has_edge(0, 1));

  design.notify_moved(b);  // touched in place: only b is re-probed
  engine.update();
  kept.sync(engine);
  EXPECT_TRUE(kept.graph().has_edge(0, 1));
  expect_same_graph(kept.graph(),
                    mbr::build_compatibility_graph(
                        design, sta::run_sta(design, sta::TimingOptions{}), {}));
}

// The engine's change log names every pin whose arrival or required time
// moved in an incremental repair, and a full build empties it.
TEST(TimingEngineChangeLog, ListsEveryPinWhoseTimingMoved) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library);
  netlist::Design& design = generated.design;
  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  sta::TimingEngine engine(design, timing);
  sta::SkewMap skew;
  util::Rng rng(77);

  engine.update(skew);
  EXPECT_TRUE(engine.changed_pins().empty());
  for (int batch = 0; batch < 6; ++batch) {
    const sta::TimingReport before = engine.report();
    for (const service::Edit& edit : random_batch(design, rng))
      apply_reference(design, skew, edit);
    engine.update(skew);
    const sta::TimingReport& after = engine.report();
    const std::vector<std::int32_t>& logged = engine.changed_pins();
    const std::set<std::int32_t> listed(logged.begin(), logged.end());
    EXPECT_EQ(listed.size(), logged.size()) << "a pin is listed twice";
    for (std::int32_t pin = 0; pin < design.pin_count(); ++pin) {
      const bool moved = before.arrival[pin] != after.arrival[pin] ||
                         before.arrival_min[pin] != after.arrival_min[pin] ||
                         before.required[pin] != after.required[pin] ||
                         before.required_min[pin] != after.required_min[pin];
      if (moved) EXPECT_TRUE(listed.contains(pin)) << "pin " << pin;
    }
    engine.clear_changed_pins();
  }
}

}  // namespace
}  // namespace mbrc
