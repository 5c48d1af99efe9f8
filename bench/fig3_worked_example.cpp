// Reproduces Fig. 3: the candidate MBRs of the six-register worked example
// (Figs. 1-2) with their placement-aware weights, and the ILP selections
// with incomplete MBRs disabled and enabled.
//
// Weights follow the paper's formula (Sec. 3.2): w = 1/b for clean
// candidates, b*2^n with n blockers, infinity (dropped) when n >= b.
// EXPERIMENTS.md discusses the two cells of the printed figure where the
// paper's table deviates from its own formula.
#include <iostream>
#include <map>

#include "mbr/candidates.hpp"
#include "mbr/composition.hpp"
#include "mbr/worked_example.hpp"
#include "util/table.hpp"

using namespace mbrc;

namespace {

std::string member_names(const std::vector<int>& nodes) {
  std::string s;
  for (int n : nodes) s += mbr::WorkedExample::node_name(n);
  return s;
}

void print_selection(const std::string& title,
                     const std::vector<mbr::Candidate>& candidates,
                     const ilp::SetPartitionResult& solved) {
  std::cout << title << " (objective " << solved.objective << "): ";
  for (int index : solved.chosen) {
    const mbr::Candidate& c = candidates[index];
    std::cout << member_names(c.nodes);
    if (c.is_incomplete()) std::cout << "(inc" << c.mapped_width << ")";
    std::cout << ' ';
  }
  std::cout << "-> " << solved.chosen.size() << " registers\n";
}

}  // namespace

int main() {
  const mbr::WorkedExample example = mbr::make_worked_example();
  const mbr::CompatibilityGraph& graph = example.graph;
  std::vector<int> subgraph(graph.node_count());
  for (int i = 0; i < graph.node_count(); ++i) subgraph[i] = i;
  const mbr::BlockerIndex blockers(graph);

  // Fig. 3 lists the incomplete candidates (AE, ACE) even though the flow's
  // 5% area rule would reject them ("In reality, incomplete register AE
  // would have been rejected since its area is significantly larger") -- so
  // this printer lifts the area-overhead cap to make them visible. It also
  // keeps the blocked rows (BC, ABC, BCF), which the planner never
  // enumerates because they cost more than their singletons.
  mbr::EnumerationOptions with_incomplete;
  with_incomplete.allow_incomplete = true;
  with_incomplete.incomplete_area_overhead = 10.0;
  with_incomplete.keep_dominated = true;
  const auto enumeration = mbr::enumerate_candidates(
      graph, *example.library, blockers, subgraph, with_incomplete);

  // Group candidates by connected bits, like the figure's columns.
  std::map<int, std::vector<const mbr::Candidate*>> by_bits;
  for (const mbr::Candidate& c : enumeration.candidates)
    by_bits[c.bits].push_back(&c);

  std::cout << "=== Fig. 3: MBR candidates and their weights ===\n\n";
  util::Table table({"bits", "candidate", "blockers n", "weight w", "maps to"});
  for (const auto& [bits, list] : by_bits) {
    for (const mbr::Candidate* c : list) {
      table.row()
          .cell(bits)
          .cell(member_names(c->nodes))
          .cell(c->blockers)
          .cell(c->weight, 3)
          .cell(std::to_string(c->mapped_width) + "-bit" +
                (c->is_incomplete() ? " incomplete" : ""));
    }
  }
  table.print(std::cout);

  // Selections, as in the bottom band of Fig. 3.
  std::cout << '\n';
  mbr::EnumerationOptions no_incomplete;
  no_incomplete.allow_incomplete = false;
  const auto enum_complete = mbr::enumerate_candidates(
      graph, *example.library, blockers, subgraph, no_incomplete);
  print_selection("Incomplete disabled", enum_complete.candidates,
                  mbr::solve_subgraph(subgraph, enum_complete.candidates));
  print_selection("Incomplete enabled ", enumeration.candidates,
                  mbr::solve_subgraph(subgraph, enumeration.candidates));

  std::cout << "\nPaper: 6 registers reduce to 3 (e.g. {B,F}, {A,C,D}, E).\n";
  return 0;
}
