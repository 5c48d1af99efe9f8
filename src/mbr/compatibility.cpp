#include "mbr/compatibility.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "runtime/thread_pool.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

bool CompatibilityGraph::has_edge(int a, int b) const {
  MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph read before finalize()");
  const auto& adj = adjacency_[a];
  return std::binary_search(adj.begin(), adj.end(), b);
}

std::int64_t CompatibilityGraph::edge_count() const {
  MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph read before finalize()");
  std::int64_t total = 0;
  for (const auto& adj : adjacency_) total += static_cast<std::int64_t>(adj.size());
  return total / 2;
}

int CompatibilityGraph::add_node(RegisterInfo info) {
  nodes_.push_back(std::move(info));
  adjacency_.emplace_back();
  return node_count() - 1;
}

// O(1) append; a sorted-insert here is O(degree) per edge and turns dense
// subgraph construction quadratic. finalize() restores the sorted/unique
// representation has_edge's binary search relies on.
void CompatibilityGraph::add_edge(int a, int b) {
  MBRC_ASSERT(a != b && a >= 0 && b >= 0 && a < node_count() &&
              b < node_count());
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  dirty_ = true;
}

void CompatibilityGraph::finalize() {
  for (auto& adj : adjacency_) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  dirty_ = false;
}

void CompatibilityGraph::clear_edges(int i) {
  MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph edited before finalize()");
  for (int j : adjacency_[i]) {
    auto& adj = adjacency_[j];
    adj.erase(std::lower_bound(adj.begin(), adj.end(), i));
  }
  adjacency_[i].clear();
}

std::vector<std::vector<int>> CompatibilityGraph::components_of(
    const std::vector<int>& starts) const {
  MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph read before finalize()");
  std::vector<std::uint8_t> seen(nodes_.size(), 0);
  std::vector<std::vector<int>> components;
  for (int start : starts) {
    if (seen[start] != 0) continue;
    seen[start] = 1;
    std::vector<int> component{start};
    for (std::size_t k = 0; k < component.size(); ++k)
      for (int u : adjacency_[component[k]])
        if (seen[u] == 0) {
          seen[u] = 1;
          component.push_back(u);
        }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  std::sort(components.begin(), components.end(),
            [](const std::vector<int>& a, const std::vector<int>& b) {
              return a.front() < b.front();
            });
  return components;
}

std::vector<std::vector<int>> CompatibilityGraph::connected_components() const {
  std::vector<int> every(nodes_.size());
  std::iota(every.begin(), every.end(), 0);
  return components_of(every);
}

bool is_composable(const netlist::Design& design, netlist::CellId cell_id) {
  const netlist::Cell& cell = design.cell(cell_id);
  if (cell.dead || cell.kind != netlist::CellKind::kRegister) return false;
  if (cell.fixed || cell.size_only) return false;
  if (!design.register_clock_net(cell_id).valid()) return false;
  const std::vector<int>& widths =
      design.library().available_widths(cell.reg->function);
  if (widths.empty()) return false;
  // A register already at the widest library MBR of its class cannot grow.
  return cell.reg->bits < widths.back();
}

namespace {

double clamp_slack(double slack, const CompatibilityOptions& options) {
  if (slack == sta::kNoRequired) return options.slack_clamp;
  return std::clamp(slack, -options.slack_clamp, options.slack_clamp);
}

}  // namespace

RegisterInfo make_register_info(const netlist::Design& design,
                                const sta::TimingReport& timing,
                                netlist::CellId cell_id,
                                const CompatibilityOptions& options) {
  const netlist::Cell& cell = design.cell(cell_id);
  MBRC_ASSERT(cell.kind == netlist::CellKind::kRegister);
  RegisterInfo info;
  info.cell = cell_id;
  info.lib_cell = cell.reg;
  info.bits = cell.reg->bits;
  info.footprint = cell.footprint();
  info.region = sta::timing_feasible_region(design, timing, cell_id,
                                            options.region);
  info.d_slack = clamp_slack(timing.register_d_slack(design, cell_id), options);
  info.q_slack = clamp_slack(timing.register_q_slack(design, cell_id), options);
  info.drive_resistance = cell.reg->drive_resistance;
  info.clock_net = design.register_clock_net(cell_id);
  info.gating_group = cell.gating_group;
  using netlist::PinRole;
  info.reset_net = design.register_control_net(cell_id, PinRole::kReset);
  info.set_net = design.register_control_net(cell_id, PinRole::kSet);
  info.enable_net = design.register_control_net(cell_id, PinRole::kEnable);
  info.scan_enable_net =
      design.register_control_net(cell_id, PinRole::kScanEnable);
  info.scan = cell.scan;
  return info;
}

bool functionally_compatible(const RegisterInfo& a, const RegisterInfo& b) {
  return a.lib_cell->function == b.lib_cell->function &&
         a.clock_net == b.clock_net && a.gating_group == b.gating_group &&
         a.reset_net == b.reset_net && a.set_net == b.set_net &&
         a.enable_net == b.enable_net &&
         a.scan_enable_net == b.scan_enable_net;
}

bool scan_compatible(const RegisterInfo& a, const RegisterInfo& b) {
  // Registers may only share an MBR when they are allowed on the same scan
  // chain, i.e. belong to the same scan partition (Sec. 2). Whether an
  // ordered section additionally forces per-bit scan pins is decided per
  // candidate, where the full member set is known.
  return a.scan.partition == b.scan.partition;
}

bool placement_compatible(const RegisterInfo& a, const RegisterInfo& b,
                          const CompatibilityOptions& options) {
  if (geom::manhattan(a.center(), b.center()) > options.max_distance)
    return false;
  return a.region.overlaps(b.region);
}

bool timing_compatible(const RegisterInfo& a, const RegisterInfo& b,
                       const CompatibilityOptions& options) {
  // Opposite D/Q slack-sign profiles pull the useful-skew assignment of the
  // merged MBR in opposite directions (Sec. 2): a negative-D register wants
  // a later clock, a negative-Q register an earlier one.
  const double eps = options.sign_epsilon;
  const auto wants_later = [&](const RegisterInfo& r) {
    return r.d_slack < -eps && r.q_slack > eps;
  };
  const auto wants_earlier = [&](const RegisterInfo& r) {
    return r.q_slack < -eps && r.d_slack > eps;
  };
  if ((wants_later(a) && wants_earlier(b)) ||
      (wants_earlier(a) && wants_later(b)))
    return false;

  // Similar criticality on both sides.
  return std::abs(a.d_slack - b.d_slack) <= options.slack_similarity &&
         std::abs(a.q_slack - b.q_slack) <= options.slack_similarity;
}

PairIndex::Signature PairIndex::signature(const RegisterInfo& n) {
  return {n.lib_cell->function.encode(), n.clock_net.index, n.gating_group,
          n.reset_net.index,             n.set_net.index,   n.enable_net.index,
          n.scan_enable_net.index,       n.scan.partition};
}

// The bins are sorted flat (key, node) vectors rather than hash maps:
// probing walks a lower_bound range, so candidate pairs are visited in
// (bin key, node index) order on every platform. Probing works in integer
// bin coordinates: re-deriving a neighbor's key from the float point
// c + d*bin can land in the wrong bin when c sits at a bin boundary (the
// rounded sum crosses it), silently dropping compatible pairs.
PairIndex::PairIndex(const CompatibilityGraph& graph,
                     const CompatibilityOptions& options)
    : bin_(std::max(1.0, options.max_distance)) {
  std::map<Signature, std::vector<int>> members;
  for (int i = 0; i < graph.node_count(); ++i)
    members[signature(graph.node(i))].push_back(i);
  group_of_.assign(static_cast<std::size_t>(graph.node_count()), -1);
  bins_.reserve(members.size());
  for (const auto& group_members : members) {
    const std::vector<int>& nodes = group_members.second;
    const int group = static_cast<int>(bins_.size());
    std::vector<Bin>& bins = bins_.emplace_back();
    bins.reserve(nodes.size());
    for (int i : nodes) {
      group_of_[i] = group;
      const geom::Point c = graph.node(i).center();
      bins.emplace_back(key(coord(c.x), coord(c.y)), i);
    }
    std::sort(bins.begin(), bins.end());
  }
}

void PairIndex::rebin(const CompatibilityGraph& graph, int i,
                      geom::Point from) {
  const geom::Point to = graph.node(i).center();
  const Bin old_bin{key(coord(from.x), coord(from.y)), i};
  const Bin new_bin{key(coord(to.x), coord(to.y)), i};
  if (old_bin == new_bin) return;
  std::vector<Bin>& bins = bins_[group_of_[i]];
  const auto at = std::lower_bound(bins.begin(), bins.end(), old_bin);
  MBRC_ASSERT_MSG(at != bins.end() && *at == old_bin,
                  "PairIndex::rebin: node not in its old bin");
  bins.erase(at);
  bins.insert(std::lower_bound(bins.begin(), bins.end(), new_bin), new_bin);
}

void CompatibilityGraph::derive_edges(const std::vector<int>& nodes,
                                      const PairIndex& pairs,
                                      const CompatibilityOptions& options,
                                      NodeScratch& scratch) {
  MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph edited before finalize()");
  scratch.fit(nodes_.size());
  std::vector<std::uint8_t>& in_set = scratch.mark;
  for (int i : nodes) in_set[i] = 1;

  // Each task probes one node's 3x3 bin block and returns the nodes it
  // links to. Tasks only read the node array and the index, and the
  // reduction below appends in `nodes` order, so the lists are identical
  // at any job count.
  const std::vector<std::vector<int>> found = runtime::parallel_transform(
      &runtime::ThreadPool::global(), options.jobs, nodes,
      [&](int i) {
        std::vector<int> out;
        const RegisterInfo& a = nodes_[i];
        pairs.for_each_near(*this, i, [&](int j) {
          if (in_set[j] != 0 && j < i) return;  // probed from j
          const RegisterInfo& b = nodes_[j];
          if (!placement_compatible(a, b, options)) return;
          if (!timing_compatible(a, b, options)) return;
          MBRC_ASSERT(functionally_compatible(a, b) && scan_compatible(a, b));
          out.push_back(j);
        });
        return out;
      },
      /*grain=*/32);
  for (int i : nodes) in_set[i] = 0;

  // Exact degree pre-count, so the appends below never reallocate a list.
  // Only the lists that gain an edge are visited.
  std::vector<std::size_t>& added = scratch.count;
  std::vector<int> touched;
  const auto count = [&](int v, std::size_t edges) {
    if (added[v] == 0) touched.push_back(v);
    added[v] += edges;
  };
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    if (!found[k].empty()) count(nodes[k], found[k].size());
    for (int j : found[k]) count(j, 1);
  }
  for (int v : touched) adjacency_[v].reserve(adjacency_[v].size() + added[v]);
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    for (int j : found[k]) {
      adjacency_[nodes[k]].push_back(j);
      adjacency_[j].push_back(nodes[k]);
    }
  }
  for (int v : touched) {
    std::vector<int>& adj = adjacency_[v];
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
    added[v] = 0;
  }
}

CompatibilityGraph build_compatibility_graph(
    const netlist::Design& design, const sta::TimingReport& timing,
    const CompatibilityOptions& options, PairIndex* pairs) {
  CompatibilityGraph graph;
  // Node infos fan out over the pool: make_register_info only reads the
  // design and the timing report (timing_feasible_region dominates), each
  // writing its own pre-sized slot. add_node consumes the slots in register
  // order, so node ids match the serial loop at any job count.
  std::vector<netlist::CellId> composable;
  for (netlist::CellId cell : design.registers())
    if (is_composable(design, cell)) composable.push_back(cell);
  std::vector<RegisterInfo> infos = runtime::parallel_transform(
      &runtime::ThreadPool::global(), options.jobs, composable,
      [&](netlist::CellId cell) {
        return make_register_info(design, timing, cell, options);
      },
      /*grain=*/16);
  for (RegisterInfo& info : infos) graph.add_node(std::move(info));

  // Functional compatibility is an equivalence: group first, then do the
  // geometric/timing pair checks only within a group, with a spatial grid
  // to avoid the O(n^2) blowup on large designs.
  PairIndex index(graph, options);
  std::vector<int> every(static_cast<std::size_t>(graph.node_count()));
  std::iota(every.begin(), every.end(), 0);
  NodeScratch scratch;
  graph.derive_edges(every, index, options, scratch);
  if (pairs != nullptr) *pairs = std::move(index);
  return graph;
}

}  // namespace mbrc::mbr
