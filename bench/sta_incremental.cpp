// Incremental vs full-rebuild timing for the useful-skew loop's query
// pattern: a fixed subset of registers (the newly composed MBRs in the real
// flow) gets its skews nudged every iteration, and the flow needs a fresh
// timing report after each nudge.
//
//   full:        run_sta() per iteration (build + propagate from scratch)
//   incremental: one TimingEngine build, then a dirty-cone repair per
//                iteration
//
// Both arms produce bit-identical reports (checked per iteration here and
// enforced by tests/sta_incremental_test.cpp); the bench measures only the
// runtime gap on the largest standard benchgen profile and writes the
// results as machine-readable JSON (BENCH_sta_incremental.json by default,
// or argv[1]).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "obs/json.hpp"
#include "runtime/thread_pool.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace mbrc;

namespace {

constexpr int kIterations = 40;
constexpr int kSkewedRegisters = 32;  // "new MBR" subset the loop retunes

struct RunResult {
  int jobs = 0;
  double full_seconds = 0.0;
  double incremental_seconds = 0.0;  // includes the engine's initial build
  double speedup = 0.0;
  double avg_repaired_pins = 0.0;
  bool identical = true;
};

// The deterministic skew trajectory both arms replay: per iteration, every
// register of the subset moves to a fresh offset.
std::vector<sta::SkewMap> make_trajectory(const netlist::Design& design) {
  const auto registers = design.registers();
  std::vector<netlist::CellId> subset;
  const std::size_t stride =
      std::max<std::size_t>(1, registers.size() / kSkewedRegisters);
  for (std::size_t i = 0;
       i < registers.size() &&
       subset.size() < static_cast<std::size_t>(kSkewedRegisters);
       i += stride)
    subset.push_back(registers[i]);

  util::Rng rng(0x5ca1ed);
  std::vector<sta::SkewMap> trajectory;
  sta::SkewMap skew;
  for (int iter = 0; iter < kIterations; ++iter) {
    for (netlist::CellId reg : subset)
      skew[reg] = rng.uniform_real(-0.12, 0.12);
    trajectory.push_back(skew);
  }
  return trajectory;
}

RunResult run_at_jobs(const netlist::Design& design, double clock_period,
                      int jobs, const std::vector<sta::SkewMap>& trajectory) {
  RunResult r;
  r.jobs = jobs;

  sta::TimingOptions options;
  options.clock_period = clock_period;
  options.jobs = jobs;

  std::vector<double> full_wns;
  full_wns.reserve(trajectory.size());
  {
    util::Stopwatch clock;
    for (const sta::SkewMap& skew : trajectory)
      full_wns.push_back(sta::run_sta(design, options, skew).wns());
    r.full_seconds = clock.seconds();
  }

  {
    sta::TimingEngine engine(design, options);
    util::Stopwatch clock;
    std::size_t repaired = 0;
    for (std::size_t i = 0; i < trajectory.size(); ++i) {
      const sta::TimingReport& report = engine.update(trajectory[i]);
      repaired += engine.stats().last_repaired_pins;
      if (report.wns() != full_wns[i]) r.identical = false;
    }
    r.incremental_seconds = clock.seconds();
    r.avg_repaired_pins = static_cast<double>(repaired) /
                          static_cast<double>(trajectory.size());
  }

  r.speedup = r.incremental_seconds > 0.0
                  ? r.full_seconds / r.incremental_seconds
                  : 0.0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_sta_incremental.json";

  const lib::Library library = lib::make_default_library();
  const auto profiles = benchgen::standard_profiles();
  const benchgen::DesignProfile* largest = &profiles.front();
  for (const benchgen::DesignProfile& p : profiles)
    if (p.register_cells > largest->register_cells) largest = &p;
  const benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, *largest);

  const std::vector<sta::SkewMap> trajectory =
      make_trajectory(generated.design);

  std::vector<RunResult> runs;
  runs.push_back(run_at_jobs(generated.design,
                             generated.calibrated_clock_period, 1, trajectory));
  const int hw_jobs = runtime::default_jobs();
  if (hw_jobs > 1)
    runs.push_back(run_at_jobs(generated.design,
                               generated.calibrated_clock_period, hw_jobs,
                               trajectory));

  std::printf("sta_incremental: %s, %d pins, %d iterations x %d registers\n",
              largest->name.c_str(), generated.design.pin_count(), kIterations,
              kSkewedRegisters);
  std::printf("%6s %12s %12s %9s %14s %10s\n", "jobs", "full_s", "incr_s",
              "speedup", "repaired/iter", "identical");
  for (const RunResult& r : runs)
    std::printf("%6d %12.4f %12.4f %8.1fx %14.1f %10s\n", r.jobs,
                r.full_seconds, r.incremental_seconds, r.speedup,
                r.avg_repaired_pins, r.identical ? "yes" : "NO");

  std::ofstream out(out_path);
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", 1).kv("bench", "sta_incremental");
  w.kv("hardware_threads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.key("design").begin_object();
  w.kv("profile", largest->name)
      .kv("register_cells", largest->register_cells)
      .kv("pins", generated.design.pin_count());
  w.end_object();
  w.kv("iterations", kIterations).kv("skewed_registers", kSkewedRegisters);
  w.key("runs").begin_array();
  for (const RunResult& r : runs) {
    w.begin_object()
        .kv("jobs", r.jobs)
        .kv("full_seconds", r.full_seconds)
        .kv("incremental_seconds", r.incremental_seconds)
        .kv("speedup", r.speedup)
        .kv("avg_repaired_pins", r.avg_repaired_pins)
        .kv("bit_identical", r.identical)
        .end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';

  bool ok = true;
  for (const RunResult& r : runs) ok = ok && r.identical && r.speedup >= 3.0;
  if (!ok)
    std::printf("FAIL: expected bit-identical reports and >= 3x speedup\n");
  return ok ? 0 : 1;
}
