// File-based composition: load a placed design from the mbrc text format,
// run the incremental MBR composition flow, save the result, and print the
// metric deltas. This is the "tool" entry point a downstream user scripts
// against.
//
//   ./compose_file in.mbrc out.mbrc [clock_period_ns] [jobs]
//
// `jobs` sets the parallel runtime's thread count (default: hardware
// threads; 1 = serial). The composed result is bit-identical either way.
//
// With no arguments, the program writes a demo: it generates a design,
// saves it, round-trips it through this same path and reports the result.
#include <iostream>
#include <string>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "netlist/io.hpp"

using namespace mbrc;

namespace {

int compose(const lib::Library& library, const std::string& in_path,
            const std::string& out_path, double clock_period, int jobs) {
  auto design = netlist::load_design_file(library, in_path);
  if (!design) {
    std::cerr << "cannot open " << in_path << '\n';
    return 1;
  }
  std::cout << "Loaded " << in_path << ": "
            << design->stats().total_registers << " registers, "
            << design->stats().cells << " cells\n";

  mbr::FlowOptions options;
  options.timing.clock_period = clock_period;
  if (jobs > 0) options.jobs = jobs;
  const mbr::FlowResult result = mbr::run_composition_flow(*design, options);

  std::cout << "Composed " << result.mbrs_created << " MBRs from "
            << result.registers_merged << " registers; total "
            << result.before.design.total_registers << " -> "
            << result.after.design.total_registers << " registers, clock cap "
            << result.before.clock_cap << " -> " << result.after.clock_cap
            << " fF, TNS " << result.before.tns << " -> " << result.after.tns
            << " ns\n";

  if (!netlist::save_design_file(*design, out_path)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "Saved " << out_path << "\n\nStage timings (jobs="
            << options.jobs << "):\n"
            << obs::format_stage_table(result.stages);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const lib::Library library = lib::make_default_library();

  if (argc >= 3) {
    double period = 0.5;
    int jobs = 0;
    try {
      if (argc >= 4) period = std::stod(argv[3]);
      if (argc >= 5) jobs = std::stoi(argv[4]);
    } catch (const std::exception&) {
      std::cerr << "usage: compose_file <in.mbrc> <out.mbrc> [period_ns] "
                   "[jobs] (numeric arguments)\n";
      return 1;
    }
    return compose(library, argv[1], argv[2], period, jobs);
  }

  // Demo mode: generate -> save -> compose from the file -> save.
  std::cout << "(demo mode: pass <in.mbrc> <out.mbrc> [period_ns] to run on "
               "your own design)\n\n";
  benchgen::DesignProfile profile;
  profile.register_cells = 800;
  profile.comb_per_register = 5.0;
  profile.seed = 7;
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);
  if (!netlist::save_design_file(generated.design, "demo_in.mbrc")) {
    std::cerr << "cannot write demo_in.mbrc\n";
    return 1;
  }
  std::cout << "Wrote demo_in.mbrc (" << generated.design.cell_count()
            << " cells, calibrated period "
            << generated.calibrated_clock_period << " ns)\n";
  return compose(library, "demo_in.mbrc", "demo_out.mbrc",
                 generated.calibrated_clock_period, 0);
}
