#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "lib/library.hpp"
#include "netlist/design.hpp"
#include "netlist/io.hpp"
#include "util/rng.hpp"

namespace mbrc::netlist {
namespace {

class DesignFixture : public ::testing::Test {
protected:
  DesignFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 200, 200}) {}

  const lib::RegisterCell* reg_cell(const std::string& name) {
    const lib::RegisterCell* cell = library.register_by_name(name);
    EXPECT_NE(cell, nullptr) << name;
    return cell;
  }

  lib::Library library;
  Design design;
};

TEST_F(DesignFixture, RegisterPinsCreatedPerFunction) {
  const CellId plain =
      design.add_register("r0", reg_cell("DFFP_B2_X1"), {10, 10});
  // 2 D + 2 Q + clock = 5 pins.
  EXPECT_EQ(design.cell(plain).pins.size(), 5u);

  const CellId rst =
      design.add_register("r1", reg_cell("DFFR_B2_X1"), {20, 10});
  EXPECT_EQ(design.cell(rst).pins.size(), 6u);  // + reset

  const CellId scan =
      design.add_register("r2", reg_cell("DFFQ_B4_X1"), {30, 10});
  // 4 D + 4 Q + clk + SE + SI + SO = 12 (internal chain).
  EXPECT_EQ(design.cell(scan).pins.size(), 12u);

  const CellId pbs =
      design.add_register("r3", reg_cell("DFFQ_B4_X1_PBS"), {40, 10});
  // 4 D + 4 Q + clk + SE + 4 SI + 4 SO = 18.
  EXPECT_EQ(design.cell(pbs).pins.size(), 18u);
}

TEST_F(DesignFixture, PinLookupHelpers) {
  const CellId reg =
      design.add_register("r", reg_cell("DFFR_B4_X1"), {10, 10});
  for (int b = 0; b < 4; ++b) {
    const PinId d = design.register_d_pin(reg, b);
    ASSERT_TRUE(d.valid());
    EXPECT_EQ(design.pin(d).bit, b);
    EXPECT_FALSE(design.pin(d).is_output);
    const PinId q = design.register_q_pin(reg, b);
    ASSERT_TRUE(q.valid());
    EXPECT_TRUE(design.pin(q).is_output);
  }
  EXPECT_TRUE(design.register_clock_pin(reg).valid());
  EXPECT_TRUE(design.register_control_pin(reg, PinRole::kReset).valid());
  EXPECT_FALSE(design.register_control_pin(reg, PinRole::kEnable).valid());
}

TEST(DesignControlNets, RegisterControlNetPerRole) {
  lib::DefaultLibraryOptions options;
  options.functions = {{},
                       {.has_reset = true,
                        .has_set = true,
                        .has_enable = true,
                        .is_scan = true}};
  const lib::Library library = lib::make_default_library(options);
  Design design(&library, {0, 0, 200, 200});
  const CellId reg = design.add_register(
      "r", library.register_by_name("DFFRSEQ_B2_X1"), {10, 10});
  const PinRole roles[] = {PinRole::kClock, PinRole::kReset, PinRole::kSet,
                           PinRole::kEnable, PinRole::kScanEnable};
  for (PinRole role : roles) {
    EXPECT_FALSE(design.register_control_net(reg, role).valid());
    const NetId net = design.create_net(role == PinRole::kClock);
    design.connect(design.register_control_pin(reg, role), net);
    EXPECT_EQ(design.register_control_net(reg, role), net);
  }
  EXPECT_EQ(design.register_clock_net(reg),
            design.register_control_net(reg, PinRole::kClock));

  // A function without the role has no such pin, hence no net.
  const CellId plain = design.add_register(
      "p", library.register_by_name("DFFP_B2_X1"), {40, 10});
  design.connect(design.register_clock_pin(plain),
                 design.register_clock_net(reg));
  for (PinRole role : {PinRole::kReset, PinRole::kSet, PinRole::kEnable,
                       PinRole::kScanEnable})
    EXPECT_FALSE(design.register_control_net(plain, role).valid());
  EXPECT_EQ(design.register_control_net(plain, PinRole::kClock),
            design.register_clock_net(reg));
}

TEST_F(DesignFixture, ConnectDisconnectMaintainsNets) {
  const CellId reg =
      design.add_register("r", reg_cell("DFFP_B1_X1"), {0, 0});
  const CellId gate = design.add_comb("g", library.comb_by_name("INV_X1"),
                                      {5, 5});
  const NetId net = design.create_net();

  const PinId q = design.register_q_pin(reg, 0);
  PinId gin;
  for (PinId p : design.cell(gate).pins)
    if (!design.pin(p).is_output) gin = p;

  design.connect(q, net);
  design.connect(gin, net);
  EXPECT_EQ(design.net(net).driver, q);
  ASSERT_EQ(design.net(net).sinks.size(), 1u);
  EXPECT_EQ(design.net(net).sinks.front(), gin);
  design.check_consistency();

  design.disconnect(q);
  EXPECT_FALSE(design.net(net).driver.valid());
  EXPECT_FALSE(design.pin(q).net.valid());
  design.check_consistency();

  // Double connect must be rejected.
  design.connect(q, net);
  EXPECT_THROW(design.connect(q, net), util::AssertionError);
}

TEST_F(DesignFixture, TwoDriversRejected) {
  const CellId a = design.add_register("a", reg_cell("DFFP_B1_X1"), {0, 0});
  const CellId b = design.add_register("b", reg_cell("DFFP_B1_X1"), {9, 0});
  const NetId net = design.create_net();
  design.connect(design.register_q_pin(a, 0), net);
  EXPECT_THROW(design.connect(design.register_q_pin(b, 0), net),
               util::AssertionError);
}

TEST_F(DesignFixture, RemoveCellDisconnectsAndTombstones) {
  const CellId reg =
      design.add_register("r", reg_cell("DFFP_B1_X1"), {0, 0});
  const NetId net = design.create_net();
  design.connect(design.register_d_pin(reg, 0), net);

  EXPECT_EQ(design.registers().size(), 1u);
  design.remove_cell(reg);
  EXPECT_TRUE(design.cell(reg).dead);
  EXPECT_TRUE(design.net(net).sinks.empty());
  EXPECT_TRUE(design.registers().empty());
  EXPECT_TRUE(design.live_cells().empty());
  EXPECT_THROW(design.remove_cell(reg), util::AssertionError);
  design.check_consistency();
}

TEST_F(DesignFixture, StatsCountLiveCells) {
  design.add_register("r1", reg_cell("DFFP_B4_X1"), {0, 0});
  const CellId r2 =
      design.add_register("r2", reg_cell("DFFP_B1_X1"), {20, 0});
  design.add_comb("g", library.comb_by_name("NAND2_X1"), {40, 0});
  design.add_port("p", true, {0, 100});

  DesignStats stats = design.stats();
  EXPECT_EQ(stats.cells, 3);  // port not counted
  EXPECT_EQ(stats.total_registers, 2);
  EXPECT_EQ(stats.register_bits, 5);
  EXPECT_GT(stats.clock_pin_cap, 0.0);

  design.remove_cell(r2);
  stats = design.stats();
  EXPECT_EQ(stats.total_registers, 1);
  EXPECT_EQ(stats.register_bits, 4);
}

TEST_F(DesignFixture, HpwlAndWireLengthSplit) {
  const CellId a = design.add_register("a", reg_cell("DFFP_B1_X1"), {0, 0});
  const CellId b = design.add_register("b", reg_cell("DFFP_B1_X1"), {30, 40});
  const NetId data = design.create_net();
  design.connect(design.register_q_pin(a, 0), data);
  design.connect(design.register_d_pin(b, 0), data);

  const NetId clock = design.create_net(/*is_clock=*/true);
  design.connect(design.register_clock_pin(a), clock);
  design.connect(design.register_clock_pin(b), clock);

  const double data_hpwl = design.net_hpwl(data);
  EXPECT_GT(data_hpwl, 60.0);  // roughly |dx| + |dy| with pin offsets
  EXPECT_LT(data_hpwl, 80.0);

  const auto wl = design.wire_length();
  EXPECT_GT(wl.clock, 0.0);
  EXPECT_NEAR(wl.other, data_hpwl, 1e-9);

  // Single-pin nets contribute nothing.
  const NetId dangling = design.create_net();
  design.connect(design.register_q_pin(b, 0), dangling);
  EXPECT_DOUBLE_EQ(design.net_hpwl(dangling), 0.0);
}

TEST_F(DesignFixture, SwapRegisterCellPreservesConnectivity) {
  const CellId reg =
      design.add_register("r", reg_cell("DFFP_B4_X1"), {10, 10});
  const NetId net = design.create_net();
  design.connect(design.register_d_pin(reg, 2), net);

  const lib::RegisterCell* stronger = reg_cell("DFFP_B4_X4");
  design.swap_register_cell(reg, stronger);
  EXPECT_EQ(design.cell(reg).reg, stronger);
  EXPECT_EQ(design.pin(design.register_d_pin(reg, 2)).net, net);
  design.check_consistency();

  // Clock pin cap follows the new cell.
  const PinId clk = design.register_clock_pin(reg);
  EXPECT_DOUBLE_EQ(design.pin(clk).cap, stronger->clock_pin_cap);
}

TEST_F(DesignFixture, SwapRejectsIncompatibleCell) {
  const CellId reg =
      design.add_register("r", reg_cell("DFFP_B4_X1"), {10, 10});
  EXPECT_THROW(design.swap_register_cell(reg, reg_cell("DFFP_B2_X1")),
               util::AssertionError);
  EXPECT_THROW(design.swap_register_cell(reg, reg_cell("DFFR_B4_X1")),
               util::AssertionError);
}

TEST_F(DesignFixture, PinPositionsFollowCellMoves) {
  const CellId reg =
      design.add_register("r", reg_cell("DFFP_B1_X1"), {10, 10});
  const PinId d = design.register_d_pin(reg, 0);
  const geom::Point before = design.pin_position(d);
  design.cell(reg).position = {50, 70};
  const geom::Point after = design.pin_position(d);
  EXPECT_NEAR(after.x - before.x, 40.0, 1e-9);
  EXPECT_NEAR(after.y - before.y, 60.0, 1e-9);
}

TEST_F(DesignFixture, PortsHaveSinglePin) {
  const CellId in = design.add_port("in", true, {0, 50});
  const CellId out = design.add_port("out", false, {200, 50});
  ASSERT_EQ(design.cell(in).pins.size(), 1u);
  ASSERT_EQ(design.cell(out).pins.size(), 1u);
  EXPECT_TRUE(design.pin(design.cell(in).pins[0]).is_output);
  EXPECT_FALSE(design.pin(design.cell(out).pins[0]).is_output);
  EXPECT_DOUBLE_EQ(design.cell(in).area(), 0.0);
}

// SinkList against the eager erase-remove vector it replaced: seeded random
// connects and disconnects over a few small nets and one net of more than
// 5k sinks, through a snapshot/restore and a save/load round trip. After
// every step the edited net's live sequence, size, empty and front match.
class SinkListOracle : public DesignFixture {
protected:
  static constexpr int kNets = 4;  // net 0 is the wide one
  static constexpr int kPins = 6400;

  SinkListOracle() : ref(kNets) {
    for (int n = 0; n < kNets; ++n) {
      nets.push_back(design.create_net());
      const CellId driver = design.add_port("in" + std::to_string(n), true,
                                            {0.0, 10.0 * n});
      design.connect(design.cell(driver).pins.front(), nets.back());
    }
    for (int i = 0; i < kPins; ++i) {
      const CellId sink = design.add_port(
          "out" + std::to_string(i), false,
          {static_cast<double>(i % 200), static_cast<double>(i / 200)});
      pins.push_back(design.cell(sink).pins.front());
    }
  }

  void expect_net_matches(int n) {
    const SinkList& got = design.net(nets[n]).sinks;
    const std::vector<PinId>& want = ref[n];
    ASSERT_EQ(got.size(), want.size()) << "net " << n;
    ASSERT_EQ(got.empty(), want.empty()) << "net " << n;
    if (!want.empty()) {
      ASSERT_EQ(got.front(), want.front()) << "net " << n;
    }
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "net " << n;
  }

  void expect_all_match() {
    for (int n = 0; n < kNets; ++n) expect_net_matches(n);
    design.check_consistency();
  }

  // One random edit: disconnect a connected pin or connect a free one (to
  // net 0 with probability `wide`); a drawn connected pin is passed over
  // with probability `keep`. Checks the edited net afterwards.
  void step(util::Rng& rng, double wide, double keep) {
    PinId pin;
    do {
      pin = pins[static_cast<std::size_t>(rng.uniform_int(0, kPins - 1))];
    } while (design.pin(pin).net.valid() && rng.chance(keep));
    const NetId on = design.pin(pin).net;
    int n = 0;
    if (on.valid()) {
      while (nets[n] != on) ++n;
      design.disconnect(pin);
      ref[n].erase(std::remove(ref[n].begin(), ref[n].end(), pin),
                   ref[n].end());
    } else {
      n = rng.chance(wide) ? 0
                           : static_cast<int>(rng.uniform_int(1, kNets - 1));
      design.connect(pin, nets[n]);
      ref[n].push_back(pin);
    }
    expect_net_matches(n);
  }

  std::vector<NetId> nets;
  std::vector<PinId> pins;
  std::vector<std::vector<PinId>> ref;
};

TEST_F(SinkListOracle, RandomEditsMatchEraseRemoveVector) {
  util::Rng rng(20261018);
  // Grow: mostly connects, so net 0 passes 5k sinks with holes along the way.
  for (int s = 0; s < 9000 && !HasFatalFailure(); ++s) step(rng, 0.95, 0.97);
  ASSERT_GT(ref[0].size(), 5000u);
  expect_all_match();

  // Churn, then roll back to the mid-point state and churn again.
  for (int s = 0; s < 3000 && !HasFatalFailure(); ++s) step(rng, 0.5, 0.0);
  const Design::Snapshot saved = design.snapshot();
  const std::vector<std::vector<PinId>> saved_ref = ref;
  for (int s = 0; s < 3000 && !HasFatalFailure(); ++s) step(rng, 0.5, 0.0);
  design.restore(saved);
  ref = saved_ref;
  expect_all_match();

  // Drain the wide net well below its peak: compactions must keep order.
  const std::vector<PinId> wide = ref[0];
  for (std::size_t k = 0; k < wide.size() && !HasFatalFailure(); k += 2) {
    design.disconnect(wide[k]);
    ref[0].erase(std::remove(ref[0].begin(), ref[0].end(), wide[k]),
                 ref[0].end());
    expect_net_matches(0);
  }
  for (int s = 0; s < 2000 && !HasFatalFailure(); ++s) step(rng, 0.5, 0.0);
  expect_all_match();

  // save_design writes sinks in list order; a loaded copy saves the same
  // bytes.
  std::ostringstream saved_text;
  save_design(design, saved_text);
  std::istringstream in(saved_text.str());
  const Design loaded = load_design(library, in);
  std::ostringstream resaved_text;
  save_design(loaded, resaved_text);
  EXPECT_EQ(saved_text.str(), resaved_text.str());
}

}  // namespace
}  // namespace mbrc::netlist
