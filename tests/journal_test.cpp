// Design snapshot / rollback property tests (the edit-journal contract the
// service's rollback request is built on).
//
// Property: snapshot -> any burst of edits (moves, sizing swaps, skew-ish
// journal appends, structural disconnects and cell removals) -> restore
// brings the netlist back bit-identically (save_design byte equality,
// check_consistency), while topology_version stays MONOTONIC -- restore
// never rewinds it, it bumps past every version handed out, so incremental
// observers (TimingEngine) rebuild instead of trusting stale cursors.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "netlist/io.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

benchgen::GeneratedDesign make_design(const lib::Library& library,
                                      std::uint64_t seed) {
  benchgen::DesignProfile profile;
  profile.name = "journal";
  profile.seed = seed;
  profile.register_cells = 90;
  profile.comb_per_register = 3.0;
  return benchgen::generate_design(library, profile);
}

std::string serialized(const netlist::Design& design) {
  std::ostringstream os;
  netlist::save_design(design, os);
  return os.str();
}

/// One random edit burst. Mixes topology-preserving edits (journal appends)
/// with structural ones (topology bumps); `structural` controls whether the
/// destructive kinds are allowed.
void edit_burst(netlist::Design& design, util::Rng& rng, bool structural) {
  const auto registers = design.registers();
  ASSERT_GT(registers.size(), 8u);
  const auto pick = [&] {
    return registers[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(registers.size()) - 1))];
  };

  const int edits = static_cast<int>(rng.uniform_int(3, 12));
  for (int i = 0; i < edits; ++i) {
    const netlist::CellId reg = pick();
    netlist::Cell& cell = design.cell(reg);
    if (cell.dead) continue;
    const double roll = rng.uniform_real(0.0, 1.0);
    if (roll < 0.45) {
      const geom::Rect& core = design.core();
      cell.position.x =
          std::clamp(cell.position.x + rng.uniform_real(-5.0, 5.0), core.xlo,
                     core.xhi - cell.width());
      cell.position.y =
          std::clamp(cell.position.y + rng.uniform_real(-5.0, 5.0), core.ylo,
                     core.yhi - cell.height());
      design.notify_moved(reg);
    } else if (roll < 0.75) {
      const auto variants = design.library().drive_variants(*cell.reg);
      if (variants.size() > 1) {
        const auto* variant =
            variants[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(variants.size()) - 1))];
        if (variant != cell.reg) design.swap_register_cell(reg, variant);
      }
    } else if (structural && roll < 0.9) {
      // Disconnect one D pin (a floating input is exactly the kind of
      // structural damage rollback must be able to undo).
      const netlist::PinId d = design.register_d_pin(reg, 0);
      if (design.pin(d).net.valid()) design.disconnect(d);
    } else if (structural) {
      design.remove_cell(reg);
    }
  }
}

TEST(JournalTest, RestoreIsBitIdenticalAfterRandomBursts) {
  const lib::Library library = lib::make_default_library();
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    benchgen::GeneratedDesign generated = make_design(library, seed);
    netlist::Design& design = generated.design;
    util::Rng rng(0x10aded ^ seed);

    const std::string before = serialized(design);
    const std::uint64_t version_before = design.topology_version();
    const std::size_t journal_before = design.touched_cells().size();
    const netlist::Design::Snapshot snapshot = design.snapshot();

    edit_burst(design, rng, /*structural=*/true);
    // The burst genuinely changed the design (seeds are chosen so at least
    // one edit lands).
    EXPECT_NE(serialized(design), before);

    design.restore(snapshot);
    design.check_consistency();
    EXPECT_EQ(serialized(design), before) << "seed " << seed;
    EXPECT_EQ(design.touched_cells().size(), journal_before);
    // Monotonic, never rewound: restore bumps PAST every handed-out
    // version even though the state went back.
    EXPECT_GT(design.topology_version(), version_before);
  }
}

TEST(JournalTest, TopologyVersionNeverRewindsAcrossInterleavedRollbacks) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 7);
  netlist::Design& design = generated.design;
  util::Rng rng(0xabcdef);

  const netlist::Design::Snapshot early = design.snapshot();
  std::uint64_t last_version = design.topology_version();
  const auto expect_monotonic = [&] {
    EXPECT_GE(design.topology_version(), last_version);
    last_version = design.topology_version();
  };

  edit_burst(design, rng, /*structural=*/true);
  expect_monotonic();
  const netlist::Design::Snapshot late = design.snapshot();
  const std::string late_state = serialized(design);

  design.restore(early);
  expect_monotonic();
  edit_burst(design, rng, /*structural=*/false);
  expect_monotonic();

  design.restore(late);
  expect_monotonic();
  EXPECT_EQ(serialized(design), late_state);

  // Restoring the same snapshot twice still bumps the version: observers
  // must rebuild each time (their cursors may exceed the restored journal).
  const std::uint64_t v = design.topology_version();
  design.restore(late);
  EXPECT_GT(design.topology_version(), v);
}

// The reason restore() bumps the version: a TimingEngine that synced past
// the snapshot's journal must rebuild on the next update and then be
// bit-identical to a fresh run_sta of the restored state.
TEST(JournalTest, TimingEngineRecoversExactlyAfterRollback) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 21);
  netlist::Design& design = generated.design;

  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  sta::TimingEngine engine(design, options);
  sta::SkewMap skew;
  engine.update(skew);  // full build; cursor at journal head

  const netlist::Design::Snapshot snapshot = design.snapshot();
  util::Rng rng(0x7e57);
  edit_burst(design, rng, /*structural=*/false);
  engine.update(skew);  // cursor now past the snapshot's journal length

  design.restore(snapshot);
  const sta::TimingReport& repaired = engine.update(skew);
  EXPECT_EQ(engine.stats().full_builds, 2u)
      << "restore must force a rebuild, not a stale incremental repair";

  const sta::TimingReport oracle = sta::run_sta(design, options, skew);
  ASSERT_EQ(repaired.arrival.size(), oracle.arrival.size());
  for (std::size_t i = 0; i < oracle.arrival.size(); ++i) {
    ASSERT_EQ(repaired.arrival[i], oracle.arrival[i]) << "pin " << i;
    ASSERT_EQ(repaired.required[i], oracle.required[i]) << "pin " << i;
  }
  ASSERT_EQ(repaired.endpoints.size(), oracle.endpoints.size());
  for (std::size_t i = 0; i < oracle.endpoints.size(); ++i)
    ASSERT_EQ(repaired.endpoints[i].slack, oracle.endpoints[i].slack);
}

// Snapshots survive multi-snapshot interleavings: the touched_cells journal
// is restored by VALUE (not just truncated), so a snapshot taken before an
// earlier restore still reproduces its exact journal.
TEST(JournalTest, JournalContentsRestoredByValue) {
  const lib::Library library = lib::make_default_library();
  benchgen::GeneratedDesign generated = make_design(library, 33);
  netlist::Design& design = generated.design;
  const auto registers = design.registers();

  design.notify_moved(registers[0]);
  design.notify_moved(registers[1]);
  const netlist::Design::Snapshot a = design.snapshot();
  const std::vector<netlist::CellId> journal_a = design.touched_cells();

  design.notify_moved(registers[2]);
  design.restore(a);
  EXPECT_EQ(design.touched_cells(), journal_a);

  design.notify_moved(registers[3]);
  design.restore(a);
  EXPECT_EQ(design.touched_cells(), journal_a);
}

}  // namespace
}  // namespace mbrc
