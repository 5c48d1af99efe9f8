// Randomized flow fuzzer (the adversarial half of src/check).
//
// Each seed derives a benchgen profile and a random flow configuration
// (ILP vs heuristic allocator, useful skew on/off, multi-objective cost
// knobs, bank/debank loop)
// and runs the full composition flow at CheckLevel::kParanoid twice -- at
// jobs=1 and jobs=4 -- so every stage boundary is validated against the
// structural invariants *and* the incremental engine is cross-checked
// against a fresh run_sta while the parallel runtime is active. Because the
// guard runs per stage, any integrity failure is reported as an
// util::AssertionError that already names the first broken stage; the test
// additionally saves the pristine input design as a .mbrc artifact so the
// failure reproduces outside the fuzzer:
//
//   MBRC_FUZZ_SEEDS         comma/space-separated seed list overriding the
//                           built-in 24 (lets CI pin a small fixed set and a
//                           developer replay one seed)
//   MBRC_FUZZ_ARTIFACT_DIR  where failing inputs are written
//                           (default: ./fuzz-artifacts)
//
// On top of the integrity checks, every run must keep the paper's
// no-degradation guarantees: register count never increases, area stays
// flat, the clock tree never grows, TNS stays within the calibrated band,
// a hold-clean design stays hold-clean, and the jobs=1 / jobs=4 runs are
// bit-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "netlist/io.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mbrc::mbr {
namespace {

std::vector<std::uint64_t> fuzz_seeds() {
  std::vector<std::uint64_t> seeds;
  if (const char* env = std::getenv("MBRC_FUZZ_SEEDS")) {
    std::string text(env);
    for (char& c : text)
      if (c == ',') c = ' ';
    std::istringstream is(text);
    std::uint64_t seed = 0;
    while (is >> seed) seeds.push_back(seed);
  }
  if (seeds.empty())
    for (std::uint64_t s = 1; s <= 24; ++s) seeds.push_back(s);
  return seeds;
}

std::string artifact_dir() {
  if (const char* env = std::getenv("MBRC_FUZZ_ARTIFACT_DIR")) return env;
  return "fuzz-artifacts";
}

/// Saves the pristine input so a failure replays without the fuzzer:
/// load the .mbrc and run the printed options by hand.
void dump_artifact(const netlist::Design& input, std::uint64_t seed,
                   const std::string& config) {
  const std::filesystem::path dir(artifact_dir());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path =
      (dir / ("seed" + std::to_string(seed) + ".mbrc")).string();
  if (netlist::save_design_file(input, path))
    ADD_FAILURE() << "failing input saved to " << path << " (config: "
                  << config << ")";
  else
    ADD_FAILURE() << "could not save failing input to " << path;
}

class FlowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowFuzz, ParanoidFlowKeepsEveryGuarantee) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);

  benchgen::DesignProfile profile;
  profile.name = "fuzz" + std::to_string(seed);
  profile.seed = seed * 7919 + 17;
  profile.register_cells = static_cast<int>(rng.uniform_int(150, 450));
  profile.comb_per_register = rng.uniform_real(2.0, 5.0);
  const double eight = rng.uniform_real(0.0, 0.5);
  profile.width_mix = {{1, (1.0 - eight) * 0.5},
                       {2, (1.0 - eight) * 0.3},
                       {4, (1.0 - eight) * 0.2},
                       {8, eight}};
  profile.scan_partitions = static_cast<int>(rng.uniform_int(1, 4));

  FlowOptions options;
  options.check_level = check::CheckLevel::kParanoid;
  options.composition.allocator =
      rng.chance(0.5) ? Allocator::kIlp : Allocator::kHeuristic;
  // This draw once chose the removed decompose pre-pass; it is still taken
  // so that every seed keeps the knob values it always had.
  (void)rng.chance(0.5);
  options.apply_useful_skew = rng.chance(0.8);
  // Multi-objective cost knobs: half the seeds run the paper's pure-weight
  // objective, the rest price power and area in.
  if (rng.chance(0.5)) {
    options.cost.alpha = rng.uniform_real(0.0, 1.0);
    options.cost.beta = rng.uniform_real(0.0, 1.0);
    options.cost.gamma = rng.uniform_real(0.0, 0.5);
  }
  options.debank_loop = rng.chance(0.4);

  std::ostringstream config;
  config << "seed=" << seed << " regs=" << profile.register_cells
         << " allocator="
         << (options.composition.allocator == Allocator::kIlp ? "ilp"
                                                              : "heuristic")
         << " skew=" << options.apply_useful_skew
         << " cost=" << options.cost.alpha << "/" << options.cost.beta
         << "/" << options.cost.gamma
         << " debank=" << options.debank_loop;
  SCOPED_TRACE(config.str());

  const lib::Library library = lib::make_default_library();
  const benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  options.timing.clock_period = generated.calibrated_clock_period;

  std::vector<FlowResult> results;
  for (const int jobs : {1, 4}) {
    netlist::Design design = generated.design;  // each run gets a fresh copy
    options.jobs = jobs;
    try {
      results.push_back(run_composition_flow(design, options));
      design.check_consistency();
    } catch (const util::AssertionError& e) {
      // The per-stage guard already names the first broken stage.
      dump_artifact(generated.design, seed, config.str());
      FAIL() << "jobs=" << jobs << ": " << e.what();
    }
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    const FlowResult& r = results[i];
    SCOPED_TRACE(i == 0 ? "jobs=1" : "jobs=4");
    // An accepted debank iteration deliberately trades register count (and
    // possibly area/clock cap) for the combined objective, so the paper's
    // structural no-degradation guarantees only bind when no split was
    // kept; the loop's own guarantee -- monotone non-increasing cost --
    // binds instead.
    bool debank_accepted = false;
    for (const FlowResult::DebankIteration& it : r.debank_iterations) {
      if (it.accepted) {
        debank_accepted = true;
        EXPECT_LT(it.cost_after, it.cost_before);
      }
    }
    if (!r.debank_iterations.empty())
      EXPECT_LE(r.final_cost, r.debank_iterations.front().cost_before + 1e-9);
    if (!debank_accepted) {
      // The paper's no-degradation guarantees.
      EXPECT_LE(r.after.design.total_registers,
                r.before.design.total_registers);
      EXPECT_LE(r.after.design.area, r.before.design.area * 1.005);
      EXPECT_LE(r.after.clock_cap, r.before.clock_cap * 1.0001);
      EXPECT_GE(r.after.tns, r.before.tns * 1.15 - 0.5);
      EXPECT_GE(r.after.wns, r.before.wns * 1.15 - 0.1);
    }
    if (r.before.failing_hold_endpoints == 0) {
      EXPECT_EQ(r.after.failing_hold_endpoints, 0);
      EXPECT_GE(r.after.hold_wns, 0.0);
    }
    EXPECT_TRUE(r.legalization.success);
    // Register accounting closes exactly (accepted debank splits add pieces
    // outside the merge ledger).
    if (!debank_accepted)
      EXPECT_EQ(r.before.design.total_registers - r.registers_merged +
                    r.mbrs_created,
                r.after.design.total_registers);
  }

  // jobs=1 and jobs=4 are bit-identical (the parallel runtime's contract).
  const FlowResult& serial = results[0];
  const FlowResult& parallel = results[1];
  EXPECT_EQ(serial.mbrs_created, parallel.mbrs_created);
  EXPECT_EQ(serial.registers_merged, parallel.registers_merged);
  EXPECT_EQ(serial.after.design.total_registers,
            parallel.after.design.total_registers);
  EXPECT_EQ(serial.after.tns, parallel.after.tns);
  EXPECT_EQ(serial.after.wns, parallel.after.wns);
  EXPECT_EQ(serial.after.clock_cap, parallel.after.clock_cap);
  EXPECT_EQ(serial.after.overflow_edges, parallel.after.overflow_edges);
  EXPECT_EQ(serial.final_cost, parallel.final_cost);
  EXPECT_EQ(serial.debank_iterations.size(), parallel.debank_iterations.size());
  // Work counters are part of the determinism contract; in particular the
  // infinite-weight drop tally (candidates whose blocker count reaches
  // their bit width) must not depend on the parallel schedule.
  const auto dropped = [](const FlowResult& r) {
    const auto it =
        r.counters.counters.find("flow.candidates.dropped_infinite_weight");
    return it == r.counters.counters.end() ? std::int64_t{0} : it->second;
  };
  EXPECT_EQ(dropped(serial), dropped(parallel));
  EXPECT_GE(dropped(serial), 0);

  if (::testing::Test::HasFailure())
    dump_artifact(generated.design, seed, config.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowFuzz, ::testing::ValuesIn(fuzz_seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace mbrc::mbr
