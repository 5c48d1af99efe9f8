#include "mbr/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/convex_hull.hpp"
#include "obs/counters.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

double candidate_weight(int bits, int blockers) {
  MBRC_ASSERT(bits >= 1 && blockers >= 0);
  if (blockers == 0) return 1.0 / bits;
  if (blockers < bits)
    return static_cast<double>(bits) * std::ldexp(1.0, blockers);  // b * 2^n
  return std::numeric_limits<double>::infinity();
}

BlockerIndex::BlockerIndex(const CompatibilityGraph& graph, double bin_size)
    : bin_size_(bin_size) {
  MBRC_ASSERT(bin_size > 0);
  for (int i = 0; i < graph.node_count(); ++i) {
    const geom::Point c = graph.node(i).center();
    bins_[key(c.x, c.y)].push_back({c, i});
  }
}

void BlockerIndex::move(int node, geom::Point from, geom::Point to) {
  const std::int64_t from_key = key(from.x, from.y);
  std::vector<Entry>& old_bin = bins_.at(from_key);
  const auto it = std::find_if(old_bin.begin(), old_bin.end(),
                               [&](const Entry& e) { return e.node == node; });
  MBRC_ASSERT_MSG(it != old_bin.end(), "BlockerIndex::move: unknown node");
  const std::int64_t to_key = key(to.x, to.y);
  if (to_key == from_key) {
    it->center = to;
    return;
  }
  old_bin.erase(it);
  bins_[to_key].push_back({to, node});
}

std::int64_t BlockerIndex::key(double x, double y) const {
  const auto bx = static_cast<std::int64_t>(std::floor(x / bin_size_));
  const auto by = static_cast<std::int64_t>(std::floor(y / bin_size_));
  return (bx << 32) ^ (by & 0xffffffff);
}

int BlockerIndex::count_blockers(const CompatibilityGraph& graph,
                                 const std::vector<int>& members) const {
  if (members.size() < 2) return 0;
  std::vector<geom::Rect> rects;
  rects.reserve(members.size());
  geom::Rect bbox = geom::Rect::empty();
  for (int m : members) {
    rects.push_back(graph.node(m).footprint);
    bbox = bbox.unite(rects.back());
  }
  const auto hull = geom::convex_hull_of_rects(rects);

  int count = 0;
  const auto lo_x = static_cast<std::int64_t>(std::floor(bbox.xlo / bin_size_));
  const auto hi_x = static_cast<std::int64_t>(std::floor(bbox.xhi / bin_size_));
  const auto lo_y = static_cast<std::int64_t>(std::floor(bbox.ylo / bin_size_));
  const auto hi_y = static_cast<std::int64_t>(std::floor(bbox.yhi / bin_size_));
  for (auto bx = lo_x; bx <= hi_x; ++bx) {
    for (auto by = lo_y; by <= hi_y; ++by) {
      const auto it = bins_.find((bx << 32) ^ (by & 0xffffffff));
      if (it == bins_.end()) continue;
      for (const Entry& e : it->second) {
        if (std::binary_search(members.begin(), members.end(), e.node))
          continue;
        if (geom::convex_contains_strict(hull, e.center)) ++count;
      }
    }
  }
  return count;
}

bool candidate_needs_per_bit_scan(const CompatibilityGraph& graph,
                                  const std::vector<int>& members) {
  // Collect the ordered-section memberships.
  int section = -2;  // -2: none seen yet
  std::vector<int> orders;
  bool mixed_sections = false;
  for (int m : members) {
    const netlist::ScanInfo& scan = graph.node(m).scan;
    if (scan.section < 0) continue;
    if (section == -2) {
      section = scan.section;
    } else if (section != scan.section) {
      mixed_sections = true;
    }
    orders.push_back(scan.order);
  }
  if (orders.empty()) return false;  // no ordering constraints at all
  if (mixed_sections) return true;   // two ordered chains cross the MBR
  if (orders.size() != members.size())
    return true;  // ordered and free registers mixed: chain exits and re-enters
  // Single section: an internal chain preserves the order only when the
  // member orders form one contiguous run of the section.
  std::sort(orders.begin(), orders.end());
  for (std::size_t i = 1; i < orders.size(); ++i)
    if (orders[i] != orders[i - 1] + 1) return true;
  return false;
}

namespace {

struct Enumerator {
  const CompatibilityGraph& graph;
  const lib::Library& library;
  const BlockerIndex& blockers;
  const EnumerationOptions& options;

  std::vector<int> nodes;              // subgraph, ascending graph indices
  std::vector<std::uint64_t> adjacency{};  // local masks
  const std::vector<int>* widths = nullptr;  // ascending library widths
  lib::RegisterFunction function{};
  bool has_per_bit_scan_cells = false;

  EnumerationResult result{};

  // DFS state. The inner loop reads only these flat SoA arrays (bit count
  // and feasible region per local node), not the ~150-byte RegisterInfo
  // records scattered through the graph's node table.
  std::vector<int> members_local{};
  std::vector<int> node_bits{};
  std::vector<geom::Rect> node_region{};

  // The physical outcome the cost model prices: a keep-as-is singleton
  // keeps its own cell, a merge creates (at least) the cheapest cell of
  // the mapped width (the mapper's stand-in, matching the incomplete-MBR
  // area rule's convention). Null for hand-built graphs whose nodes carry
  // no library cell -- pricing then skips the beta/gamma terms.
  const lib::RegisterCell* priced_cell(const std::vector<int>& members,
                                       int mapped_width) const {
    if (members.size() == 1) return graph.node(members.front()).lib_cell;
    return library.cheapest_cell(function, mapped_width);
  }

  // Keep-as-is candidate for one node, priced exactly like the singletons
  // the main enumeration path emits: the paper weight with zero blockers
  // (a singleton's hull is its own footprint) and the node's own cell under
  // the cost model. The truncation guard below uses this so cap-recovered
  // singletons are never cheaper than their enumerated twins would have
  // been -- an unpriced singleton would bias the ILP toward leaving the
  // whole subgraph unmerged whenever the cap was hit.
  Candidate singleton_candidate(int graph_node) const {
    const RegisterInfo& info = graph.node(graph_node);
    Candidate singleton;
    singleton.nodes = {graph_node};
    singleton.bits = info.bits;
    singleton.mapped_width = info.bits;
    singleton.weight =
        options.use_weights ? candidate_weight(info.bits, 0) : 1.0;
    singleton.weight =
        options.cost.candidate_cost(singleton.weight, info.lib_cell);
    singleton.common_region = info.region;
    return singleton;
  }

  void emit(int bits, const geom::Rect& region) {
    if (result.candidates.size() >= options.max_candidates_per_subgraph) {
      result.truncated = true;
      return;
    }
    std::vector<int> members;
    members.reserve(members_local.size());
    for (int l : members_local) members.push_back(nodes[l]);
    std::sort(members.begin(), members.end());

    const bool complete =
        std::binary_search(widths->begin(), widths->end(), bits);
    int mapped_width = bits;
    if (!complete) {
      if (!options.allow_incomplete || members.size() < 2) return;
      const auto up = std::upper_bound(widths->begin(), widths->end(), bits);
      if (up == widths->end()) return;  // no wider cell
      mapped_width = *up;
      const lib::RegisterCell* cell =
          library.cheapest_cell(function, mapped_width);
      if (cell == nullptr) return;
      // Sec. 3: the incomplete MBR's area per (physical) bit must be below
      // the average area per bit of the registers it replaces.
      double replaced_area = 0.0;
      for (int m : members) replaced_area += graph.node(m).lib_cell->area;
      const double avg_per_bit = replaced_area / bits;
      if (cell->area / cell->bits >= avg_per_bit) return;
      // Flow-level 5% rule, applied eagerly with the cheapest cell so the
      // ILP never selects a candidate doomed at mapping time.
      if (cell->area >
          replaced_area * (1.0 + options.incomplete_area_overhead))
        return;
    }

    const bool per_bit_scan = candidate_needs_per_bit_scan(graph, members);
    if (per_bit_scan && members.size() > 1 && !has_per_bit_scan_cells)
      return;  // required scan style not in the library

    int n_blockers = 0;
    double weight = 1.0;
    if (options.use_weights) {
      n_blockers = blockers.count_blockers(graph, members);
      weight = candidate_weight(bits, n_blockers);
      if (!std::isfinite(weight)) {
        // n >= b: dropped (w = infinity). Tallied locally and flushed to
        // the flow.candidates.dropped_infinite_weight counter once per
        // subgraph, so the coverage loss is visible in flow_report.json.
        ++result.dropped_infinite_weight;
        return;
      }
    }
    weight = options.cost.candidate_cost(weight,
                                         priced_cell(members, mapped_width));

    Candidate candidate;
    candidate.nodes = std::move(members);
    candidate.bits = bits;
    candidate.mapped_width = mapped_width;
    candidate.blockers = n_blockers;
    candidate.weight = weight;
    candidate.needs_per_bit_scan = per_bit_scan;
    candidate.common_region = region;
    result.candidates.push_back(std::move(candidate));
  }

  void dfs(int last_local, int bits, const geom::Rect& region) {
    if (result.candidates.size() >= options.max_candidates_per_subgraph) {
      result.truncated = true;
      return;
    }
    const int n = static_cast<int>(nodes.size());
    const int max_width = widths->back();
    for (int v = last_local + 1; v < n; ++v) {
      // v must be adjacent to every current member (clique property).
      bool adjacent_to_all = true;
      for (int m : members_local) {
        if (!(adjacency[m] >> v & 1)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (!adjacent_to_all) continue;

      const int new_bits = bits + node_bits[static_cast<std::size_t>(v)];
      if (new_bits > max_width) continue;  // other (narrower) nodes may fit
      const geom::Rect new_region =
          region.intersect(node_region[static_cast<std::size_t>(v)]);
      if (new_region.is_empty()) continue;  // no shared spot for the MBR

      members_local.push_back(v);
      emit(new_bits, new_region);
      dfs(v, new_bits, new_region);
      members_local.pop_back();
      if (result.truncated) return;
    }
  }

  void run() {
    const int n = static_cast<int>(nodes.size());
    MBRC_ASSERT_MSG(n <= 64, "subgraph larger than 64 nodes");
    if (n == 0) return;

    function = graph.node(nodes.front()).lib_cell->function;
    widths = &library.available_widths(function);
    MBRC_ASSERT_MSG(!widths->empty(), "composable register with no widths");

    for (int width : *widths) {
      for (const lib::RegisterCell* cell :
           library.cells_for(function, width)) {
        if (cell->scan_style == lib::ScanStyle::kPerBitPins)
          has_per_bit_scan_cells = true;
      }
    }

    // Local adjacency masks by merging each node's sorted neighbor list
    // against the sorted subgraph (O(degree + n) per node) instead of the
    // n^2/2 has_edge binary searches this replaces.
    adjacency.assign(static_cast<std::size_t>(n), 0);
    node_bits.resize(static_cast<std::size_t>(n));
    node_region.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const std::vector<int>& neighbors = graph.neighbors(nodes[i]);
      std::size_t a = 0;
      std::size_t b = 0;
      std::uint64_t mask = 0;
      while (a < neighbors.size() && b < nodes.size()) {
        if (neighbors[a] < nodes[b]) {
          ++a;
        } else if (neighbors[a] > nodes[b]) {
          ++b;
        } else {
          mask |= std::uint64_t{1} << b;
          ++a;
          ++b;
        }
      }
      adjacency[static_cast<std::size_t>(i)] = mask;
      const RegisterInfo& info = graph.node(nodes[i]);
      node_bits[static_cast<std::size_t>(i)] = info.bits;
      node_region[static_cast<std::size_t>(i)] = info.region;
    }

    // Singletons first (always feasible cover), then the DFS over cliques
    // of size >= 2 starting at each node.
    for (int v = 0; v < n; ++v) {
      members_local.assign(1, v);
      emit(node_bits[static_cast<std::size_t>(v)],
           node_region[static_cast<std::size_t>(v)]);
      dfs(v, node_bits[static_cast<std::size_t>(v)],
          node_region[static_cast<std::size_t>(v)]);
      members_local.clear();
    }

    // Truncation guard: the set-partitioning ILP needs a singleton per node
    // to stay feasible. If the candidate cap cut enumeration short, append
    // any singletons that were lost (no effect on non-truncated runs).
    if (result.truncated) {
      std::vector<bool> has_singleton(n, false);
      for (const Candidate& c : result.candidates)
        if (c.nodes.size() == 1)
          for (int v = 0; v < n; ++v)
            if (nodes[v] == c.nodes.front()) has_singleton[v] = true;
      for (int v = 0; v < n; ++v) {
        if (has_singleton[v]) continue;
        result.candidates.push_back(singleton_candidate(nodes[v]));
      }
    }
  }
};

}  // namespace

EnumerationResult enumerate_candidates(const CompatibilityGraph& graph,
                                       const lib::Library& library,
                                       const BlockerIndex& blockers,
                                       const std::vector<int>& subgraph,
                                       const EnumerationOptions& options) {
  Enumerator enumerator{graph, library, blockers, options, subgraph};
  enumerator.run();

  static obs::Counter& c_calls = obs::counter("mbr.candidates.calls");
  static obs::Counter& c_found = obs::counter("mbr.candidates.enumerated");
  static obs::Counter& c_dropped =
      obs::counter("flow.candidates.dropped_infinite_weight");
  static obs::Histogram& h_per =
      obs::histogram("mbr.candidates.per_subgraph");
  c_calls.add(1);
  c_found.add(static_cast<std::int64_t>(enumerator.result.candidates.size()));
  c_dropped.add(enumerator.result.dropped_infinite_weight);
  h_per.record(static_cast<std::int64_t>(enumerator.result.candidates.size()));
  return std::move(enumerator.result);
}

}  // namespace mbrc::mbr
