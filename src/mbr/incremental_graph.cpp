#include "mbr/incremental_graph.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

// The pins whose slack or net feeds a RegisterInfo (feasible region and
// D/Q slacks).
bool is_data_role(netlist::PinRole role) {
  return role == netlist::PinRole::kD || role == netlist::PinRole::kQ ||
         role == netlist::PinRole::kScanIn ||
         role == netlist::PinRole::kScanOut;
}

}  // namespace

IncrementalCompatibilityGraph::IncrementalCompatibilityGraph(
    const netlist::Design& design, const CompatibilityOptions& options)
    : design_(design), options_(options) {}

void IncrementalCompatibilityGraph::sync(sta::TimingEngine& engine) {
  static obs::Counter& c_full = obs::counter("mbr.compat.full_builds");
  static obs::Counter& c_inc = obs::counter("mbr.compat.incremental_updates");
  static obs::Histogram& h_dirty = obs::histogram("mbr.compat.dirty_registers");
  MBRC_ASSERT_MSG(&engine.design() == &design_,
                  "compatibility graph synced against another design's engine");

  if (!built_ || design_.topology_version() != seen_topology_ ||
      engine.stats().full_builds != seen_full_builds_) {
    obs::Span span("mbr.compat.full_build");
    rebuild(engine.report());
    built_ = true;
    seen_topology_ = design_.topology_version();
    seen_full_builds_ = engine.stats().full_builds;
    ++stats_.full_builds;
    stats_.last_dirty_registers = 0;
    c_full.add(1);
  } else {
    obs::Span span("mbr.compat.update");
    const std::vector<int> dirty = dirty_nodes(engine);
    refresh(engine.report(), dirty);
    ++stats_.incremental_updates;
    stats_.last_dirty_registers = dirty.size();
    c_inc.add(1);
    h_dirty.record(static_cast<std::int64_t>(dirty.size()));
  }
  journal_cursor_ = design_.touched_cells().size();
  engine.clear_changed_pins();
}

void IncrementalCompatibilityGraph::rebuild(const sta::TimingReport& report) {
  graph_ = build_compatibility_graph(design_, report, options_, &pairs_);
  blockers_.emplace(graph_);
  node_of_cell_.assign(static_cast<std::size_t>(design_.cell_count()), -1);
  data_net_.assign(static_cast<std::size_t>(design_.net_count()), 0);
  for (int i = 0; i < graph_.node_count(); ++i) {
    const netlist::CellId cell = graph_.node(i).cell;
    node_of_cell_[cell.index] = i;
    for (netlist::PinId pin_id : design_.cell(cell).pins) {
      const netlist::Pin& pin = design_.pin(pin_id);
      if (is_data_role(pin.role) && pin.net.valid())
        data_net_[pin.net.index] = 1;
    }
  }
  dirty_.assign(static_cast<std::size_t>(graph_.node_count()), 0);
}

// Rules 1-3 of the header. Returns the dirty nodes ascending; their dirty_
// flags stay set until refresh() clears them.
std::vector<int> IncrementalCompatibilityGraph::dirty_nodes(
    const sta::TimingEngine& engine) {
  std::vector<int> dirty;
  const auto mark = [&](netlist::CellId cell) {
    const int node = node_of_cell_[cell.index];
    if (node < 0 || dirty_[node] != 0) return;
    dirty_[node] = 1;
    dirty.push_back(node);
  };
  const auto mark_data_pin = [&](netlist::PinId pin_id) {
    const netlist::Pin& pin = design_.pin(pin_id);
    if (is_data_role(pin.role)) mark(pin.cell);
  };

  const std::vector<netlist::CellId>& journal = design_.touched_cells();
  for (std::size_t k = journal_cursor_; k < journal.size(); ++k) {
    const netlist::Cell& cell = design_.cell(journal[k]);
    if (cell.dead) continue;  // removal bumps the topology version anyway
    mark(journal[k]);
    for (netlist::PinId pin_id : cell.pins) {
      const netlist::NetId net_id = design_.pin(pin_id).net;
      if (!net_id.valid() || data_net_[net_id.index] == 0) continue;
      const netlist::Net& net = design_.net(net_id);
      if (net.driver.valid()) mark_data_pin(net.driver);
      for (netlist::PinId sink : net.sinks) mark_data_pin(sink);
    }
  }
  for (const std::int32_t pin : engine.changed_pins())
    mark_data_pin(netlist::PinId{pin});

  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

void IncrementalCompatibilityGraph::refresh(const sta::TimingReport& report,
                                            const std::vector<int>& dirty) {
  for (int i : dirty) graph_.clear_edges(i);

  for (int i : dirty) {
    const geom::Point from = graph_.node(i).center();
    RegisterInfo info =
        make_register_info(design_, report, graph_.node(i).cell, options_);
    MBRC_ASSERT_MSG(PairIndex::signature(info) ==
                        PairIndex::signature(graph_.node(i)),
                    "register signature changed without a topology edit");
    graph_.node_mutable(i) = std::move(info);
    pairs_.rebin(graph_, i, from);
    blockers_->move(i, from, graph_.node(i).center());
  }

  graph_.derive_edges(dirty, pairs_, options_, scratch_);
  for (int i : dirty) dirty_[i] = 0;
}

}  // namespace mbrc::mbr
