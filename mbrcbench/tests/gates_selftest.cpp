// Planted-failure self-test: proves the benchmark's correctness gates trip.
//
//   1. A composed design passes check_flow_output; a copy with one cell
//      moved onto its neighbour (an overlap) is flagged.
//   2. An injected "ok":false response raises the service error rate.
//   3. Two flows on copies of one input give one digest; a different jobs
//      value gives the same digest too.
//
// Exits non-zero on the first gate that fails to trip.
#include <cstdio>
#include <string>

#include "benchgen/generator.hpp"
#include "gates.hpp"

namespace {

int failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s: %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++failures;
}

}  // namespace

int main() {
  using namespace mbrc;
  const lib::Library library = lib::make_default_library();
  benchgen::DesignProfile profile;
  profile.name = "selftest";
  profile.register_cells = 300;
  profile.seed = 4242;
  const benchgen::GeneratedDesign input =
      benchgen::generate_design(library, profile);
  const check::DesignChecker::Baseline baseline =
      check::DesignChecker::capture(input.design);

  mbr::FlowOptions options;
  options.timing.clock_period = input.calibrated_clock_period;
  options.jobs = 2;
  netlist::Design composed = input.design;
  const mbr::FlowResult result = mbr::run_composition_flow(composed, options);
  expect(result.mbrs_created > 0, "the flow composes MBRs");
  expect(mbrcbench::check_flow_output(composed, baseline).ok(),
         "a composed design passes the output gate");

  // Plant an overlap: move the first live register onto another cell.
  netlist::Design planted = composed;
  const std::vector<netlist::CellId> regs = planted.registers();
  netlist::CellId victim, target;
  for (netlist::CellId r : regs) {
    if (planted.cell(r).fixed) continue;
    if (!victim.valid()) {
      victim = r;
    } else if (planted.cell(r).position.y == planted.cell(victim).position.y ||
               !target.valid()) {
      target = r;
      if (planted.cell(r).position.y == planted.cell(victim).position.y) break;
    }
  }
  planted.cell(victim).position = planted.cell(target).position;
  planted.notify_moved(victim);
  const check::CheckReport report =
      mbrcbench::check_flow_output(planted, baseline);
  expect(!report.ok() && report.to_string().find("placement") !=
                             std::string::npos,
         "one overlapping cell is flagged by the output gate");

  // error_rate rises on an injected failed response.
  mbrcbench::ResponseTally tally;
  tally.score("{\"id\":1,\"ok\":true,\"applied\":1}");
  expect(tally.error_rate() == 0.0, "ok responses leave error_rate at 0");
  tally.score("{\"id\":2,\"ok\":false,\"error\":\"injected\"}");
  expect(tally.failed == 1 && tally.error_rate() > 0.0,
         "an injected ok:false response raises error_rate");
  tally.score("");
  expect(tally.failed == 2, "a missing response counts as failed");

  // Digest gate: repetition and jobs invariance.
  netlist::Design again = input.design;
  options.jobs = 1;
  const mbr::FlowResult serial = mbr::run_composition_flow(again, options);
  expect(mbrcbench::flow_digest(serial) == mbrcbench::flow_digest(result),
         "jobs 1 and jobs 2 flows share one digest");
  mbr::FlowResult tampered = serial;
  tampered.after.tns += 1e-9;
  expect(mbrcbench::flow_digest(tampered) != mbrcbench::flow_digest(result),
         "a perturbed final TNS changes the digest");

  std::printf("%s\n", failures == 0 ? "all gates trip as expected"
                                     : "some gates did not trip");
  return failures == 0 ? 0 : 1;
}
