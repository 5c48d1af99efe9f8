// Traced composition flow: runs the full incremental flow on a generated
// design with FlowOptions::trace enabled and writes the two observability
// artifacts (DESIGN.md §11):
//
//   flow_trace.json   Chrome trace_event spans -- open in Perfetto
//                     (https://ui.perfetto.dev) or chrome://tracing
//   flow_report.json  machine-readable run report: Table-1 metrics,
//                     per-stage wall times, work counters, options echo
//
//   ./traced_flow [trace.json] [report.json]
#include <iostream>
#include <string>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"

using namespace mbrc;

int main(int argc, char** argv) {
  const lib::Library library = lib::make_default_library();

  benchgen::DesignProfile profile;
  profile.name = "traced-demo";
  profile.register_cells = 800;
  profile.comb_per_register = 6.0;
  profile.seed = 2017;

  std::cout << "Generating design '" << profile.name << "' ("
            << profile.register_cells << " registers)...\n";
  benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile);

  mbr::FlowOptions options;
  options.timing.clock_period = generated.calibrated_clock_period;
  options.trace = true;
  options.trace_path = argc > 1 ? argv[1] : "flow_trace.json";
  options.report_path = argc > 2 ? argv[2] : "flow_report.json";

  const mbr::FlowResult result =
      mbr::run_composition_flow(generated.design, options);

  std::cout << "Composition: " << result.mbrs_created << " new MBRs from "
            << result.registers_merged << " registers in "
            << result.total_seconds << " s\n\n";
  std::cout << "Stages:\n" << obs::format_stage_table(result.stages);
  std::cout << "\nWork counters (bit-identical at any jobs value):\n"
            << obs::format_counters(result.counters);
  std::cout << "\nTrace: " << result.trace.events.size() << " spans on "
            << result.trace.thread_names.size() << " threads -> "
            << options.trace_path << "\nReport -> " << options.report_path
            << '\n';
  return 0;
}
