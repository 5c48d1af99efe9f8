#include <gtest/gtest.h>

#include <sstream>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "netlist/io.hpp"

namespace mbrc::netlist {
namespace {

class IoFixture : public ::testing::Test {
protected:
  lib::Library library = lib::make_default_library();
};

TEST_F(IoFixture, RoundTripSmallDesign) {
  Design design(&library, {0, 0, 100, 36});
  const auto* dff = library.register_by_name("DFFR_B2_X1");
  const CellId a = design.add_register("a", dff, {10, 9});
  design.cell(a).fixed = true;
  design.cell(a).scan = {1, 2, 3};
  design.cell(a).gating_group = 4;
  const CellId b = design.add_register("b", dff, {30, 9});
  const CellId port = design.add_port("in0", true, {0, 18});

  const NetId clock = design.create_net(true);
  design.connect(design.register_clock_pin(a), clock);
  design.connect(design.register_clock_pin(b), clock);
  const NetId data = design.create_net();
  design.connect(design.register_q_pin(a, 1), data);
  design.connect(design.register_d_pin(b, 0), data);
  const NetId from_port = design.create_net();
  design.connect(design.cell(port).pins[0], from_port);
  design.connect(design.register_d_pin(a, 0), from_port);

  std::stringstream buffer;
  save_design(design, buffer);
  Design loaded = load_design(library, buffer);

  EXPECT_EQ(loaded.cell_count(), design.cell_count());
  EXPECT_EQ(loaded.net_count(), design.net_count());
  const DesignStats before = design.stats();
  const DesignStats after = loaded.stats();
  EXPECT_EQ(before.total_registers, after.total_registers);
  EXPECT_EQ(before.register_bits, after.register_bits);
  EXPECT_DOUBLE_EQ(before.area, after.area);

  // Attributes survive.
  const CellId la{0};
  EXPECT_EQ(loaded.cell(la).name, "a");
  EXPECT_TRUE(loaded.cell(la).fixed);
  EXPECT_EQ(loaded.cell(la).scan.partition, 1);
  EXPECT_EQ(loaded.cell(la).scan.section, 2);
  EXPECT_EQ(loaded.cell(la).scan.order, 3);
  EXPECT_EQ(loaded.cell(la).gating_group, 4);

  // Wire lengths identical (connectivity + placement preserved).
  EXPECT_DOUBLE_EQ(design.wire_length().clock, loaded.wire_length().clock);
  EXPECT_DOUBLE_EQ(design.wire_length().other, loaded.wire_length().other);
}

TEST_F(IoFixture, SaveIsIdempotent) {
  benchgen::DesignProfile profile;
  profile.register_cells = 150;
  profile.comb_per_register = 3.0;
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  std::stringstream first;
  save_design(generated.design, first);
  Design loaded = load_design(library, first);
  std::stringstream second;
  save_design(loaded, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST_F(IoFixture, RoundTripSurvivesComposition) {
  benchgen::DesignProfile profile;
  profile.register_cells = 250;
  profile.comb_per_register = 3.0;
  profile.seed = 55;
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  std::stringstream buffer;
  save_design(generated.design, buffer);
  Design loaded = load_design(library, buffer);

  // The composition flow behaves identically on the loaded copy.
  mbr::FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  const mbr::FlowResult original =
      mbr::run_composition_flow(generated.design, options);
  const mbr::FlowResult reloaded = mbr::run_composition_flow(loaded, options);
  EXPECT_EQ(original.mbrs_created, reloaded.mbrs_created);
  EXPECT_EQ(original.after.design.total_registers,
            reloaded.after.design.total_registers);
  EXPECT_DOUBLE_EQ(original.after.clock_cap, reloaded.after.clock_cap);
}

TEST_F(IoFixture, TombstonesCompactedOnSave) {
  Design design(&library, {0, 0, 100, 36});
  const auto* dff = library.register_by_name("DFFP_B1_X1");
  design.add_register("keep0", dff, {10, 9});
  const CellId gone = design.add_register("gone", dff, {20, 9});
  design.add_register("keep1", dff, {30, 9});
  design.remove_cell(gone);

  std::stringstream buffer;
  save_design(design, buffer);
  Design loaded = load_design(library, buffer);
  EXPECT_EQ(loaded.cell_count(), 2);
  EXPECT_EQ(loaded.cell(CellId{1}).name, "keep1");
}

TEST_F(IoFixture, RejectsMalformedInput) {
  {
    std::stringstream bad("not-a-design\n");
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
  {
    std::stringstream bad("mbrc-design 1\ncell x register NO_CELL 0 0 "
                          "0 0 -1 -1 -1 0\n");
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
  {
    std::stringstream bad("mbrc-design 1\ncore 0 0 10 10\nnet signal 1 7 0\n");
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
  {
    std::stringstream bad("mbrc-design 1\n");  // no core
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
  {
    // A second core line must not discard the cells a later net names.
    std::stringstream bad("mbrc-design 1\ncore 0 0 10 10\nport a in 0 0\n"
                          "core 0 0 10 10\nnet signal 1 0 0\n");
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
  {
    // A net naming a pin an earlier net already connected.
    std::stringstream bad("mbrc-design 1\ncore 0 0 10 10\nport a in 0 0\n"
                          "net signal 1 0 0\nnet signal 1 0 0\n");
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
  {
    // A net with two drivers (both input ports).
    std::stringstream bad("mbrc-design 1\ncore 0 0 10 10\nport a in 0 0\n"
                          "port b in 0 1\nnet signal 2 0 0 1 0\n");
    EXPECT_THROW(load_design(library, bad), util::AssertionError);
  }
}

}  // namespace
}  // namespace mbrc::netlist
