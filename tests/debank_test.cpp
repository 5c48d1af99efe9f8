// The split mechanics of strategic debanking (mbr/debank.hpp): one bank
// decomposed into narrow pieces by split_register, and the eligibility rules
// debank_critical_registers applies before splitting.
#include <gtest/gtest.h>

#include <map>

#include "mbr/debank.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

class DecomposeFixture : public ::testing::Test {
protected:
  DecomposeFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 200, 36}) {
    clock = design.create_net(true);
  }

  // A register with per-bit D/Q nets and a shared clock (and reset, when
  // the cell has one).
  CellId add_wide(const std::string& name, geom::Point pos,
                  const std::string& cell_name = "DFFR_B8_X1") {
    const auto* cell = library.register_by_name(cell_name);
    const CellId reg = design.add_register(name, cell, pos);
    design.connect(design.register_clock_pin(reg), clock);
    const PinId reset_pin = design.register_control_pin(reg, PinRole::kReset);
    if (reset_pin.valid()) {
      if (!reset.valid()) {
        reset = design.create_net();
        const auto* inv = library.comb_by_name("INV_X1");
        const CellId driver = design.add_comb("rst", inv, {0, 0});
        design.connect(design.cell(driver).pins.back(), reset);
      }
      design.connect(reset_pin, reset);
    }
    for (int b = 0; b < cell->bits; ++b) {
      d_nets[name].push_back(design.create_net());
      design.connect(design.register_d_pin(reg, b), d_nets[name].back());
      q_nets[name].push_back(design.create_net());
      design.connect(design.register_q_pin(reg, b), q_nets[name].back());
    }
    return reg;
  }

  // Closes the path Q[0] -> INV -> D[0] through register `name`, so both of
  // its sides carry a finite slack and the debank selection considers it.
  void constrain(const std::string& name, geom::Point pos) {
    const auto* inv = library.comb_by_name("INV_X1");
    const CellId gate = design.add_comb(name + "_loop", inv, pos);
    for (PinId pin : design.cell(gate).pins)
      design.connect(pin, design.pin(pin).is_output ? d_nets[name][0]
                                                    : q_nets[name][0]);
  }

  // Options under which every constrained, eligible bank is critical.
  static DebankOptions split_everything(int piece_bits) {
    DebankOptions options;
    options.slack_threshold = 1e6;
    options.piece_bits = piece_bits;
    options.min_bits = piece_bits + 1;
    return options;
  }

  lib::Library library;
  netlist::Design design;
  NetId clock, reset;
  std::map<std::string, std::vector<NetId>> d_nets, q_nets;
};

TEST_F(DecomposeFixture, SplitsEightIntoTwoFours) {
  const CellId wide = add_wide("w", {50, 9});
  const std::vector<CellId> pieces = split_register(design, wide, 4);
  EXPECT_TRUE(design.cell(wide).dead);
  design.check_consistency();

  ASSERT_EQ(pieces.size(), 2u);
  for (int p = 0; p < 2; ++p) {
    const netlist::Cell& piece = design.cell(pieces[p]);
    EXPECT_EQ(piece.reg->bits, 4);
    EXPECT_EQ(piece.reg->function.has_reset, true);
    // Bit connectivity: piece p bit b == original bit p*4+b.
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(design.pin(design.register_d_pin(pieces[p], b)).net,
                d_nets["w"][p * 4 + b]);
      EXPECT_EQ(design.pin(design.register_q_pin(pieces[p], b)).net,
                q_nets["w"][p * 4 + b]);
    }
    EXPECT_EQ(design.register_clock_net(pieces[p]), clock);
    EXPECT_EQ(
        design.pin(design.register_control_pin(pieces[p],
                                                PinRole::kReset)).net,
        reset);
  }
  // Register bits conserved.
  EXPECT_EQ(design.stats().register_bits, 8);
}

TEST_F(DecomposeFixture, SkipsFixedAndSectionLocked) {
  const CellId fixed = add_wide("fixed", {20, 9});
  design.cell(fixed).fixed = true;
  const CellId sectioned = add_wide("sectioned", {60, 9});
  design.cell(sectioned).scan.section = 1;
  design.cell(sectioned).scan.order = 0;
  // The control: an eligible bank under the same timing is split.
  const CellId free = add_wide("free", {100, 9});
  constrain("fixed", {20, 20});
  constrain("sectioned", {60, 20});
  constrain("free", {100, 20});

  const sta::TimingReport report = sta::run_sta(design, {});
  ASSERT_NE(report.register_d_slack(design, fixed), sta::kNoRequired);
  ASSERT_NE(report.register_d_slack(design, sectioned), sta::kNoRequired);
  const DebankResult result =
      debank_critical_registers(split_everything(4), design, report);
  EXPECT_FALSE(design.cell(fixed).dead);
  EXPECT_FALSE(design.cell(sectioned).dead);
  EXPECT_TRUE(design.cell(free).dead);
  EXPECT_EQ(result.banks_split, 1);
  EXPECT_EQ(result.pieces_created, 2);
  EXPECT_EQ(result.removed, std::vector<CellId>{free});
}

TEST_F(DecomposeFixture, SkipsNarrowRegisters) {
  const CellId small = add_wide("small", {20, 9}, "DFFP_B4_X1");
  const CellId wide = add_wide("w", {100, 9});
  constrain("small", {20, 20});
  constrain("w", {100, 20});

  DebankOptions options = split_everything(2);
  options.min_bits = 8;
  const sta::TimingReport report = sta::run_sta(design, {});
  ASSERT_NE(report.register_d_slack(design, small), sta::kNoRequired);
  const DebankResult result =
      debank_critical_registers(options, design, report);
  EXPECT_FALSE(design.cell(small).dead);
  EXPECT_TRUE(design.cell(wide).dead);
  EXPECT_EQ(result.banks_split, 1);
  EXPECT_EQ(result.pieces_created, 4);
}

TEST_F(DecomposeFixture, TimingEndpointsPreserved) {
  const CellId wide = add_wide("w", {50, 9});
  sta::TimingOptions timing;
  const int before = sta::run_sta(design, timing).total_endpoints();
  split_register(design, wide, 4);
  const int after = sta::run_sta(design, timing).total_endpoints();
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace mbrc::mbr
