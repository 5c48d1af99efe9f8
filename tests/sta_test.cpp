#include <gtest/gtest.h>

#include "lib/library.hpp"
#include "netlist/design.hpp"
#include "sta/feasible_region.hpp"
#include "sta/sta.hpp"
#include "sta/useful_skew.hpp"

namespace mbrc::sta {
namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;

// A two-stage pipeline: regA -> INV -> regB, with an input port feeding
// regA's D through a NAND and regB's Q driving an output port.
class PipelineFixture : public ::testing::Test {
protected:
  PipelineFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 200, 40}) {
    const auto* dff = library.register_by_name("DFFP_B1_X1");
    const auto* inv = library.comb_by_name("INV_X1");
    const auto* nand = library.comb_by_name("NAND2_X1");

    reg_a = design.add_register("a", dff, {20, 10});
    reg_b = design.add_register("b", dff, {120, 10});
    gate = design.add_comb("inv", inv, {70, 10});
    input_gate = design.add_comb("nand", nand, {5, 10});
    in_port = design.add_port("in", true, {0, 10});
    out_port = design.add_port("out", false, {200, 10});

    clock = design.create_net(true);
    design.connect(design.register_clock_pin(reg_a), clock);
    design.connect(design.register_clock_pin(reg_b), clock);

    // in -> nand(both inputs) -> a.D
    const NetId in_net = design.create_net();
    design.connect(design.cell(in_port).pins[0], in_net);
    for (PinId p : design.cell(input_gate).pins)
      if (!design.pin(p).is_output) design.connect(p, in_net);
    const NetId nand_out = design.create_net();
    design.connect(comb_out(input_gate), nand_out);
    design.connect(design.register_d_pin(reg_a, 0), nand_out);

    // a.Q -> inv -> b.D
    const NetId aq = design.create_net();
    design.connect(design.register_q_pin(reg_a, 0), aq);
    design.connect(comb_in(gate), aq);
    const NetId invout = design.create_net();
    design.connect(comb_out(gate), invout);
    design.connect(design.register_d_pin(reg_b, 0), invout);

    // b.Q -> out
    const NetId bq = design.create_net();
    design.connect(design.register_q_pin(reg_b, 0), bq);
    design.connect(design.cell(out_port).pins[0], bq);
  }

  PinId comb_out(CellId cell) {
    for (PinId p : design.cell(cell).pins)
      if (design.pin(p).is_output) return p;
    return PinId{};
  }
  PinId comb_in(CellId cell) {
    for (PinId p : design.cell(cell).pins)
      if (!design.pin(p).is_output) return p;
    return PinId{};
  }

  lib::Library library;
  Design design;
  CellId reg_a, reg_b, gate, input_gate, in_port, out_port;
  NetId clock;
};

TEST_F(PipelineFixture, EndpointsAndArrivalStructure) {
  TimingOptions options;
  options.clock_period = 1.0;
  const TimingReport report = run_sta(design, options);

  // Endpoints: a.D, b.D, out port.
  EXPECT_EQ(report.total_endpoints(), 3);

  const PinId ad = design.register_d_pin(reg_a, 0);
  const PinId bd = design.register_d_pin(reg_b, 0);
  EXPECT_GT(report.arrival[ad.index], 0.0);
  EXPECT_GT(report.arrival[bd.index], 0.0);
  // b.D arrival = clk->Q of a + wire + inv + wire: longer than a.D's short
  // input path.
  EXPECT_GT(report.arrival[bd.index], report.arrival[ad.index]);
}

TEST_F(PipelineFixture, SlackScalesWithClockPeriod) {
  TimingOptions fast;
  fast.clock_period = 0.05;
  TimingOptions slow;
  slow.clock_period = 2.0;
  const TimingReport r_fast = run_sta(design, fast);
  const TimingReport r_slow = run_sta(design, slow);
  EXPECT_LT(r_fast.wns(), 0.0);
  EXPECT_GT(r_fast.failing_endpoints(), 0);
  EXPECT_EQ(r_slow.failing_endpoints(), 0);
  EXPECT_DOUBLE_EQ(r_slow.tns(), 0.0);
  // Every endpoint's slack moves by exactly the period difference.
  for (std::size_t i = 0; i < r_fast.endpoints.size(); ++i) {
    EXPECT_NEAR(r_slow.endpoints[i].slack - r_fast.endpoints[i].slack,
                2.0 - 0.05, 1e-9);
  }
}

TEST_F(PipelineFixture, SkewShiftsSlacksWithKnownSigns) {
  TimingOptions options;
  options.clock_period = 1.0;
  const TimingReport base = run_sta(design, options);

  SkewMap skew;
  skew[reg_b] = 0.1;  // capture later at b
  const TimingReport shifted = run_sta(design, options, skew);

  // b.D slack improves by +0.1 (later capture).
  EXPECT_NEAR(shifted.register_d_slack(design, reg_b),
              base.register_d_slack(design, reg_b) + 0.1, 1e-9);
  // a.D is unaffected by b's skew.
  EXPECT_NEAR(shifted.register_d_slack(design, reg_a),
              base.register_d_slack(design, reg_a), 1e-9);
  // b.Q side (to the output port) degrades by 0.1.
  EXPECT_NEAR(shifted.register_q_slack(design, reg_b),
              base.register_q_slack(design, reg_b) - 0.1, 1e-9);
}

TEST_F(PipelineFixture, RegisterSlackHelpers) {
  TimingOptions options;
  options.clock_period = 1.0;
  const TimingReport report = run_sta(design, options);
  // a: D constrained by the input cone, Q by b.D through the inverter.
  EXPECT_NE(report.register_d_slack(design, reg_a), kNoRequired);
  EXPECT_NE(report.register_q_slack(design, reg_a), kNoRequired);
  // The Q-side slack of a equals the D slack of b (same path, no skew).
  EXPECT_NEAR(report.register_q_slack(design, reg_a),
              report.register_d_slack(design, reg_b), 1e-9);
}

TEST_F(PipelineFixture, CombinationalCycleDetected) {
  // Create a loop: inv output feeds the nand input net... build a dedicated
  // loop with two inverters.
  const auto* inv = library.comb_by_name("INV_X1");
  const CellId i1 = design.add_comb("loop1", inv, {150, 20});
  const CellId i2 = design.add_comb("loop2", inv, {160, 20});
  const NetId n1 = design.create_net();
  const NetId n2 = design.create_net();
  design.connect(comb_out(i1), n1);
  design.connect(comb_in(i2), n1);
  design.connect(comb_out(i2), n2);
  design.connect(comb_in(i1), n2);
  TimingOptions options;
  EXPECT_THROW(run_sta(design, options), util::AssertionError);
}

TEST_F(PipelineFixture, DeadCellsIgnored) {
  TimingOptions options;
  options.clock_period = 1.0;
  design.remove_cell(reg_b);
  const TimingReport report = run_sta(design, options);
  // b.D is gone; the out port is still connected to its (now undriven) net
  // but has no arrival, so it is not reported. Only a.D remains.
  EXPECT_EQ(report.total_endpoints(), 1);
}

TEST_F(PipelineFixture, UsefulSkewImprovesWorstSlack) {
  // Pick a period where b.D fails but a has margin.
  TimingOptions options;
  options.clock_period = 0.12;
  const TimingReport before = run_sta(design, options);
  ASSERT_LT(before.register_d_slack(design, reg_b), 0.0);

  UsefulSkewOptions skew_options;
  skew_options.iterations = 6;
  const UsefulSkewResult result =
      optimize_useful_skew(design, options, skew_options);
  const TimingReport after = run_sta(design, options, result.skew);
  EXPECT_GE(after.tns(), before.tns());
  EXPECT_GE(after.register_d_slack(design, reg_b),
            before.register_d_slack(design, reg_b));
}

TEST_F(PipelineFixture, UsefulSkewNeverCreatesNewViolations) {
  TimingOptions options;
  options.clock_period = 0.2;
  const TimingReport before = run_sta(design, options);
  const int failing_before = before.failing_endpoints();

  UsefulSkewOptions skew_options;
  const UsefulSkewResult result =
      optimize_useful_skew(design, options, skew_options);
  EXPECT_LE(run_sta(design, options, result.skew).failing_endpoints(),
            failing_before);
}

TEST_F(PipelineFixture, UsefulSkewRespectsAllowedSet) {
  TimingOptions options;
  options.clock_period = 0.12;
  std::unordered_set<CellId> allowed = {reg_a};
  const UsefulSkewResult result =
      optimize_useful_skew(design, options, {}, {}, &allowed);
  EXPECT_FALSE(result.skew.contains(reg_b));
}

TEST_F(PipelineFixture, FeasibleRegionGrowsWithSlack) {
  TimingOptions slack_rich;
  slack_rich.clock_period = 3.0;
  TimingOptions tight;
  tight.clock_period = 0.12;
  const TimingReport rich = run_sta(design, slack_rich);
  const TimingReport poor = run_sta(design, tight);

  FeasibleRegionOptions region_options;
  const geom::Rect big =
      timing_feasible_region(design, rich, reg_b, region_options);
  const geom::Rect small =
      timing_feasible_region(design, poor, reg_b, region_options);
  EXPECT_GT(big.area(), small.area());
  // The register's own footprint is always inside its region.
  EXPECT_TRUE(big.overlaps(design.cell(reg_b).footprint()));
  EXPECT_TRUE(small.overlaps(design.cell(reg_b).footprint()));
}

TEST_F(PipelineFixture, FeasibleRegionClampedToCore) {
  TimingOptions options;
  options.clock_period = 10.0;  // huge slack
  const TimingReport report = run_sta(design, options);
  const geom::Rect region =
      timing_feasible_region(design, report, reg_a, {});
  const geom::Rect core = design.core();
  EXPECT_GE(region.xlo, core.xlo);
  EXPECT_LE(region.xhi, core.xhi);
  EXPECT_GE(region.ylo, core.ylo);
  EXPECT_LE(region.yhi, core.yhi);
}

TEST(SlackToDistance, Conversion) {
  FeasibleRegionOptions options;
  options.delay_per_um = 0.002;
  options.max_radius = 100.0;
  EXPECT_DOUBLE_EQ(slack_to_distance(-0.5, options), 0.0);
  EXPECT_DOUBLE_EQ(slack_to_distance(0.0, options), 0.0);
  EXPECT_DOUBLE_EQ(slack_to_distance(0.1, options), 50.0);
  EXPECT_DOUBLE_EQ(slack_to_distance(10.0, options), 100.0);  // clamped
  EXPECT_DOUBLE_EQ(slack_to_distance(kNoRequired, options), 100.0);
}

}  // namespace
}  // namespace mbrc::sta

namespace mbrc::sta {
namespace {

// Hold-analysis tests appended alongside the setup suite above.
class HoldFixture : public ::testing::Test {
protected:
  HoldFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 100, 20}) {
    // Two registers with a very short direct path a.Q -> b.D: the classic
    // hold hazard; plus a longer path b.Q -> inv -> a.D.
    const auto* dff = library.register_by_name("DFFP_B1_X1");
    const auto* inv = library.comb_by_name("INV_X1");
    reg_a = design.add_register("a", dff, {10, 9});
    reg_b = design.add_register("b", dff, {14, 9});
    const netlist::CellId gate = design.add_comb("inv", inv, {50, 9});

    const netlist::NetId clock = design.create_net(true);
    design.connect(design.register_clock_pin(reg_a), clock);
    design.connect(design.register_clock_pin(reg_b), clock);

    const netlist::NetId short_net = design.create_net();
    design.connect(design.register_q_pin(reg_a, 0), short_net);
    design.connect(design.register_d_pin(reg_b, 0), short_net);

    const netlist::NetId bq = design.create_net();
    design.connect(design.register_q_pin(reg_b, 0), bq);
    netlist::PinId gin, gout;
    for (netlist::PinId p : design.cell(gate).pins)
      (design.pin(p).is_output ? gout : gin) = p;
    design.connect(gin, bq);
    const netlist::NetId back = design.create_net();
    design.connect(gout, back);
    design.connect(design.register_d_pin(reg_a, 0), back);
  }

  lib::Library library;
  netlist::Design design;
  netlist::CellId reg_a, reg_b;
};

TEST_F(HoldFixture, CleanWithoutSkew) {
  TimingOptions options;
  options.clock_period = 1.0;
  const TimingReport report = run_sta(design, options);
  EXPECT_EQ(report.failing_hold_endpoints(), 0);
  EXPECT_GE(report.hold_wns(), 0.0);
  // The short hop has little hold margin; the long path has plenty.
  const double short_margin = report.register_d_hold_slack(design, reg_b);
  const double long_margin = report.register_d_hold_slack(design, reg_a);
  EXPECT_LT(short_margin, long_margin);
  EXPECT_GE(short_margin, 0.0);
}

TEST_F(HoldFixture, CaptureSkewConsumesHoldSlack) {
  TimingOptions options;
  options.clock_period = 1.0;
  const TimingReport base = run_sta(design, options);
  const double margin = base.register_d_hold_slack(design, reg_b);
  ASSERT_GT(margin, 0.0);

  // Push b's clock later by more than the margin: the short hop now fails
  // hold.
  SkewMap skew;
  skew[reg_b] = margin + 0.02;
  const TimingReport shifted = run_sta(design, options, skew);
  EXPECT_GT(shifted.failing_hold_endpoints(), 0);
  EXPECT_LT(shifted.hold_wns(), 0.0);
  EXPECT_NEAR(shifted.register_d_hold_slack(design, reg_b),
              -0.02, 1e-9);
}

TEST_F(HoldFixture, LaunchSkewEarlierConsumesDownstreamHold) {
  TimingOptions options;
  options.clock_period = 1.0;
  const TimingReport base = run_sta(design, options);
  const double q_margin = base.register_q_hold_slack(design, reg_a);
  ASSERT_GT(q_margin, 0.0);

  SkewMap skew;
  skew[reg_a] = -(q_margin + 0.02);  // launch earlier than the margin allows
  const TimingReport shifted = run_sta(design, options, skew);
  EXPECT_GT(shifted.failing_hold_endpoints(), 0);
}

TEST_F(HoldFixture, UsefulSkewStaysHoldClean) {
  // Tight period: setup wants big skews, but the optimizer must not buy
  // setup slack with hold violations.
  TimingOptions options;
  options.clock_period = 0.08;
  const UsefulSkewResult result = optimize_useful_skew(design, options, {});
  const TimingReport after = run_sta(design, options, result.skew);
  EXPECT_EQ(after.failing_hold_endpoints(), 0)
      << "hold_wns=" << after.hold_wns();
}

}  // namespace
}  // namespace mbrc::sta
