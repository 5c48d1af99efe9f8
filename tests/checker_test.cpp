// Flow-integrity checker tests: a clean generated design passes every
// check, each planted corruption is caught by the matching check (and only
// that check), and the flow's stage guard runs clean end to end at both
// checking levels.
#include <gtest/gtest.h>

#include <algorithm>

#include "benchgen/generator.hpp"
#include "check/checker.hpp"
#include "mbr/flow.hpp"
#include "sta/timing_engine.hpp"
#include "util/assert.hpp"

namespace mbrc::check {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;

class CheckerFixture : public ::testing::Test {
protected:
  CheckerFixture() : library(lib::make_default_library()) {
    benchgen::DesignProfile profile;
    profile.seed = 77;
    profile.register_cells = 150;
    profile.comb_per_register = 3.0;
    generated.emplace(benchgen::generate_design(library, profile));
  }

  netlist::Design& design() { return generated->design; }

  /// All violations of the full structural check set (no timing).
  CheckReport full_report(const DesignChecker::Baseline& baseline) {
    DesignChecker checker(design());
    checker.check_structure()
        .check_nets()
        .check_placement()
        .check_scan_chains()
        .check_conservation(baseline);
    return checker.report();
  }

  static bool mentions(const CheckReport& report, const std::string& check) {
    return std::any_of(report.violations.begin(), report.violations.end(),
                       [&](const Violation& v) { return v.check == check; });
  }

  lib::Library library;
  std::optional<benchgen::GeneratedDesign> generated;
};

TEST_F(CheckerFixture, CleanDesignPassesEveryCheck) {
  const auto baseline = DesignChecker::capture(design());
  const CheckReport report = full_report(baseline);
  EXPECT_TRUE(report.ok()) << report.to_string();

  sta::TimingOptions timing;
  timing.clock_period = generated->calibrated_clock_period;
  sta::TimingEngine engine(design(), timing);
  DesignChecker checker(design());
  checker.check_timing(engine);
  EXPECT_TRUE(checker.report().ok()) << checker.report().to_string();
}

TEST_F(CheckerFixture, OffGridPlacementCaught) {
  const CellId reg = design().registers().front();
  design().cell(reg).position.y += 0.7;  // between rows
  design().notify_moved(reg);
  DesignChecker checker(design());
  checker.check_placement();
  ASSERT_TRUE(mentions(checker.report(), "placement"))
      << checker.report().to_string();
  EXPECT_NE(checker.report().to_string().find("row grid"), std::string::npos);
}

TEST_F(CheckerFixture, OverlapCaught) {
  const auto regs = design().registers();
  ASSERT_GE(regs.size(), 2u);
  design().cell(regs[1]).position = design().cell(regs[0]).position;
  design().notify_moved(regs[1]);
  DesignChecker checker(design());
  checker.check_placement();
  ASSERT_TRUE(mentions(checker.report(), "placement"));
  EXPECT_NE(checker.report().to_string().find("overlap"), std::string::npos);
}

TEST_F(CheckerFixture, OutsideCoreCaught) {
  const CellId reg = design().registers().front();
  design().cell(reg).position.x = design().core().xhi + 5.0;
  design().notify_moved(reg);
  DesignChecker checker(design());
  checker.check_placement();
  ASSERT_TRUE(mentions(checker.report(), "placement"));
  EXPECT_NE(checker.report().to_string().find("outside the core"),
            std::string::npos);
}

TEST_F(CheckerFixture, DanglingNetCaught) {
  // Disconnect the driver of a driven multi-sink signal net: its sinks float.
  for (std::int32_t i = 0; i < design().net_count(); ++i) {
    const netlist::Net& net = design().net(NetId{i});
    if (net.is_clock || !net.driver.valid() || net.sinks.empty()) continue;
    design().disconnect(net.driver);
    break;
  }
  DesignChecker checker(design());
  checker.check_nets();
  ASSERT_TRUE(mentions(checker.report(), "nets"))
      << checker.report().to_string();
  EXPECT_NE(checker.report().to_string().find("no driver"), std::string::npos);
}

TEST_F(CheckerFixture, CorruptedBackReferenceCaught) {
  // Point a connected input pin at a different net without fixing the sink
  // lists -- the classic half-finished rewire.
  for (std::int32_t i = 0; i < design().pin_count(); ++i) {
    netlist::Pin& p = design().pin(PinId{i});
    if (p.is_output || !p.net.valid()) continue;
    p.net = NetId{(p.net.index + 1) % design().net_count()};
    break;
  }
  DesignChecker checker(design());
  checker.check_structure();
  EXPECT_TRUE(mentions(checker.report(), "structure"))
      << checker.report().to_string();
}

TEST_F(CheckerFixture, InputPinMissingFromItsNetsSinkListCaught) {
  // Point a connected input pin at a net that does not list it: the pin's
  // side of the check must name the pin and the net it points at.
  PinId moved;
  NetId target;
  for (std::int32_t i = 0; i < design().pin_count() && !moved.valid(); ++i) {
    const netlist::Pin& p = design().pin(PinId{i});
    if (p.is_output || !p.net.valid()) continue;
    for (std::int32_t n = 0; n < design().net_count(); ++n) {
      const auto& sinks = design().net(NetId{n}).sinks;
      if (NetId{n} == p.net || sinks.empty() ||
          std::find(sinks.begin(), sinks.end(), PinId{i}) != sinks.end())
        continue;
      moved = PinId{i};
      target = NetId{n};
      break;
    }
  }
  ASSERT_TRUE(moved.valid());
  design().pin(moved).net = target;

  DesignChecker checker(design());
  checker.check_structure();
  const std::string expected =
      "input pin " + std::to_string(moved.index) +
      " missing from the sink list of its net " + std::to_string(target.index);
  EXPECT_NE(checker.report().to_string().find(expected), std::string::npos)
      << checker.report().to_string();
}

TEST_F(CheckerFixture, LostRegisterBitsCaught) {
  const auto baseline = DesignChecker::capture(design());
  design().remove_cell(design().registers().front());
  DesignChecker checker(design());
  checker.check_conservation(baseline);
  ASSERT_TRUE(mentions(checker.report(), "conservation"));
  EXPECT_NE(checker.report().to_string().find("connected register bits"),
            std::string::npos);
}

TEST_F(CheckerFixture, BrokenScanLinkCaught) {
  // Cutting one mid-chain SI link splits a partition chain in two: the walk
  // from the single remaining head no longer covers every element, or a
  // second head appears.
  bool cut = false;
  for (CellId reg : design().registers()) {
    const netlist::Cell& cell = design().cell(reg);
    if (!cell.reg->function.is_scan || cell.scan.partition < 0) continue;
    for (PinId pin_id : cell.pins) {
      const netlist::Pin& p = design().pin(pin_id);
      if (p.role == netlist::PinRole::kScanIn && p.net.valid()) {
        design().disconnect(pin_id);
        cut = true;
        break;
      }
    }
    if (cut) break;
  }
  ASSERT_TRUE(cut) << "generated design has no stitched scan chain";
  DesignChecker checker(design());
  checker.check_scan_chains();
  EXPECT_TRUE(mentions(checker.report(), "scan"))
      << checker.report().to_string();
}

TEST_F(CheckerFixture, StaleTimingEngineCaught) {
  sta::TimingOptions timing;
  timing.clock_period = generated->calibrated_clock_period;
  sta::TimingEngine engine(design(), timing);
  engine.update();

  // Move a register far away *without* notify_moved: the engine's cached
  // report is now stale relative to a fresh run_sta, which is exactly the
  // corruption the paranoid level exists to catch.
  const CellId reg = design().registers().front();
  design().cell(reg).position.x = design().core().xlo;
  design().cell(reg).position.y = design().core().ylo;

  DesignChecker checker(design());
  checker.check_timing(engine);
  EXPECT_TRUE(mentions(checker.report(), "timing"))
      << checker.report().to_string();
}

TEST_F(CheckerFixture, EnforceStageThrowsWithStageName) {
  const auto baseline = DesignChecker::capture(design());
  const CellId reg = design().registers().front();
  design().cell(reg).position.y += 0.7;
  design().notify_moved(reg);

  // kOff never throws, whatever the state.
  enforce_stage(design(), "legalize", CheckLevel::kOff, {}, baseline, nullptr,
                {});
  try {
    enforce_stage(design(), "legalize", CheckLevel::kStageBoundaries, {},
                  baseline, nullptr, {});
    FAIL() << "expected a flow-integrity violation";
  } catch (const util::AssertionError& e) {
    EXPECT_NE(std::string(e.what()).find("stage 'legalize'"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(CheckerFixture, ExpectationsSkipLegitimatelyBrokenInvariants) {
  const auto baseline = DesignChecker::capture(design());
  const CellId reg = design().registers().front();
  design().cell(reg).position.y += 0.7;
  design().notify_moved(reg);
  StageExpectations expect;
  expect.placement_legal = false;  // mid-flow: apply ran, legalize has not
  enforce_stage(design(), "apply", CheckLevel::kStageBoundaries, expect,
                baseline, nullptr, {});  // no throw
}

// The acceptance-level smoke: a full composition flow runs clean under the
// strictest checking at both checking levels.
TEST(CheckerFlow, ParanoidFlowRunsClean) {
  const lib::Library library = lib::make_default_library();
  benchgen::DesignProfile profile;
  profile.seed = 9;
  profile.register_cells = 300;
  profile.comb_per_register = 4.0;
  for (const CheckLevel level :
       {CheckLevel::kStageBoundaries, CheckLevel::kParanoid}) {
    benchgen::GeneratedDesign generated =
        benchgen::generate_design(library, profile);
    mbr::FlowOptions options;
    options.timing.clock_period = generated.calibrated_clock_period;
    options.check_level = level;
    const mbr::FlowResult r =
        run_composition_flow(generated.design, options);
    EXPECT_GT(r.mbrs_created, 0) << to_string(level);
  }
}

TEST(CheckerFlow, ParanoidCoversDebankAndHeuristic) {
  const lib::Library library = lib::make_default_library();
  benchgen::DesignProfile profile;
  profile.seed = 21;
  profile.register_cells = 300;
  profile.width_mix = {{1, 0.3}, {2, 0.2}, {4, 0.2}, {8, 0.3}};
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  mbr::FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  options.check_level = CheckLevel::kParanoid;
  options.composition.allocator = mbr::Allocator::kHeuristic;
  options.debank_loop = true;
  const mbr::FlowResult r = run_composition_flow(generated.design, options);
  EXPECT_GE(r.mbrs_created, 0);
  // The loop split banks, so its commits ran under the guard too.
  ASSERT_FALSE(r.debank_iterations.empty());
  EXPECT_TRUE(r.stages.contains("debank.apply"));
}

}  // namespace
}  // namespace mbrc::check
