// Reproduces Fig. 6: the number of total registers after composition,
// normalized to the pre-composition count, when allocation is done by the
// placement-aware ILP versus the maximal-clique greedy heuristic (refs
// [8]/[12] style). Expected shape (paper): the ILP wins on every design,
// ~12% fewer registers on average. Both allocators plan the same subgraphs
// (plan_on_graph runs either per subgraph). Exits 2 unless the ILP ends
// with fewer registers than the heuristic on every design.
#include <iostream>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "util/table.hpp"

using namespace mbrc;

int main() {
  const lib::Library library = lib::make_default_library();

  util::Table table({"Design", "Base regs", "ILP regs", "Heur regs",
                     "ILP norm", "Heur norm", "ILP advantage"});
  double advantage_sum = 0.0;
  int designs = 0;
  std::vector<std::string> not_dominated;

  for (const benchgen::DesignProfile& profile : benchgen::standard_profiles()) {
    std::int64_t base = 0, ilp = 0, heuristic = 0;
    for (const mbr::Allocator allocator :
         {mbr::Allocator::kIlp, mbr::Allocator::kHeuristic}) {
      benchgen::GeneratedDesign generated =
          benchgen::generate_design(library, profile);
      mbr::FlowOptions options;
      options.timing.clock_period = generated.calibrated_clock_period;
      options.composition.allocator = allocator;
      const mbr::FlowResult result =
          mbr::run_composition_flow(generated.design, options);
      base = result.before.design.total_registers;
      (allocator == mbr::Allocator::kIlp ? ilp : heuristic) =
          result.after.design.total_registers;
    }

    const double ilp_norm = static_cast<double>(ilp) / base;
    const double heur_norm = static_cast<double>(heuristic) / base;
    const double advantage = (heur_norm - ilp_norm) / heur_norm;
    advantage_sum += advantage;
    ++designs;
    if (ilp >= heuristic) not_dominated.push_back(profile.name);

    table.row()
        .cell(profile.name)
        .cell(base)
        .cell(ilp)
        .cell(heuristic)
        .cell(ilp_norm, 3)
        .cell(heur_norm, 3)
        .percent(advantage);
  }

  std::cout << "=== Fig. 6: normalized register count, ILP vs heuristic ===\n\n";
  table.print(std::cout);
  std::cout << "\nAverage ILP advantage: "
            << 100.0 * advantage_sum / designs
            << " % fewer registers than the heuristic (paper: ~12 %).\n";
  if (!not_dominated.empty()) {
    std::cerr << "FAIL: the ILP does not end with fewer registers than the "
                 "heuristic on";
    for (const std::string& name : not_dominated) std::cerr << ' ' << name;
    std::cerr << '\n';
    return 2;
  }
  return 0;
}
