#include "mbr/worked_example.hpp"

#include "sta/feasible_region.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

const char* WorkedExample::node_name(int node) {
  static const char* names[] = {"A", "B", "C", "D", "E", "F"};
  MBRC_ASSERT(node >= 0 && node < 6);
  return names[node];
}

namespace {

RegisterInfo make_node(const lib::Library& library, int bits,
                       geom::Point position, double slack,
                       const CompatibilityOptions& options) {
  // The weakest (X1) plain variant.
  const auto variants =
      library.drive_variants({}, bits, lib::ScanStyle::kNone);
  MBRC_ASSERT(!variants.empty());
  const lib::RegisterCell* cell = variants.front();

  RegisterInfo info;
  info.cell = netlist::CellId{};  // no backing design in the worked example
  info.lib_cell = cell;
  info.bits = bits;
  info.footprint = {position.x, position.y, position.x + cell->width,
                    position.y + cell->height};
  info.region = info.footprint.inflate(
      sta::slack_to_distance(slack, options.region));
  info.d_slack = slack;
  info.q_slack = slack;
  info.drive_resistance = cell->drive_resistance;
  info.clock_net = netlist::NetId{0};  // one shared clock
  return info;
}

}  // namespace

WorkedExample make_worked_example() {
  WorkedExample example;
  lib::DefaultLibraryOptions lib_options;
  lib_options.widths = {1, 2, 4, 8};
  lib_options.include_width_3 = true;  // the paper's example library has 3-bit cells
  example.library =
      std::make_shared<lib::Library>(lib::make_default_library(lib_options));

  CompatibilityOptions& options = example.options;
  options.max_distance = 40.0;     // shapes Fig. 1's edge set geometrically
  options.slack_similarity = 0.20;

  // Placement shaped like Fig. 2. Slacks are picked so that timing
  // compatibility removes the D-E and D-F edges (both are geometrically
  // close) while keeping every Fig. 1 edge:
  //   A, B, C: 0.10 ns;  D: 0.02 ns (critical-ish);  E, F: 0.24 ns.
  auto& graph = example.graph;
  graph.add_node(make_node(*example.library, 1, {14.0, 24.0}, 0.10, options));
  graph.add_node(make_node(*example.library, 1, {34.0, 26.0}, 0.10, options));
  graph.add_node(make_node(*example.library, 1, {36.0, 8.0}, 0.10, options));
  graph.add_node(make_node(*example.library, 1, {34.5, 17.0}, 0.02, options));
  graph.add_node(make_node(*example.library, 4, {8.0, 6.0}, 0.24, options));
  graph.add_node(make_node(*example.library, 2, {48.0, 14.0}, 0.24, options));

  // Edges come from the real pairwise rules, not a hand-wired list; the
  // tests assert the result equals Fig. 1's edge set.
  for (int i = 0; i < graph.node_count(); ++i) {
    for (int j = i + 1; j < graph.node_count(); ++j) {
      const RegisterInfo& a = graph.node(i);
      const RegisterInfo& b = graph.node(j);
      if (functionally_compatible(a, b) && scan_compatible(a, b) &&
          placement_compatible(a, b, options) &&
          timing_compatible(a, b, options))
        graph.add_edge(i, j);
    }
  }
  graph.finalize();
  return example;
}

}  // namespace mbrc::mbr
