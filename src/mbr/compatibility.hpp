// Register compatibility rules and the compatibility graph (Sec. 2).
//
// Nodes are the *composable* registers of the design: not fixed/size-only,
// clocked, with a larger functionally-equivalent MBR available in the
// library. An edge connects two registers that are pairwise compatible in
// all four senses:
//   functional: same function signature, same clock net, same clock-gating
//               group, identical control nets (reset/set/enable/scan-enable);
//   scan:       same scan partition (ordered-section details are handled at
//               candidate granularity, where the per-bit-scan requirement is
//               derived);
//   placement:  timing-feasible regions overlap (plus a distance pre-filter);
//   timing:     same D/Q slack signs (no opposite useful-skew pull) and
//               similar slack magnitudes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "geom/rect.hpp"
#include "netlist/design.hpp"
#include "sta/feasible_region.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {

class PairIndex;

/// Per-node scratch for CompatibilityGraph::derive_edges. Every entry is
/// zero between calls and each call clears only what it set, so a call
/// costs what it touches rather than the node count.
/// IncrementalCompatibilityGraph, which derives edges on every sync(), keeps
/// one; the calls grow it to the graph's node count.
struct NodeScratch {
  std::vector<std::uint8_t> mark;
  std::vector<std::size_t> count;

  /// Grows both arrays, zero-filled, to at least `nodes` entries.
  void fit(std::size_t nodes) {
    if (mark.size() < nodes) mark.resize(nodes, 0);
    if (count.size() < nodes) count.resize(nodes, 0);
  }
};

struct CompatibilityOptions {
  /// Max |slack_a - slack_b| on the D side and on the Q side (ns). Sec. 2:
  /// registers of very different criticality must not merge.
  double slack_similarity = 0.20;
  /// Slacks are clamped to +/- this before sign/similarity checks, so a
  /// hugely positive slack does not block merging with a modest one.
  double slack_clamp = 0.40;
  /// Treat slacks within +/- this of zero as sign-neutral when enforcing the
  /// "no opposite D/Q signs" rule.
  double sign_epsilon = 0.01;
  /// Cheap pre-filter: register centers farther apart than this never merge
  /// (um). Keeps the graph sparse on large designs.
  double max_distance = 60.0;
  sta::FeasibleRegionOptions region;
  /// Thread lanes for the per-register info pass and the per-node edge
  /// probe. Both fan out over pre-sized slots and reduce on the calling
  /// thread in node order, so the graph is bit-identical at any job count;
  /// 1 runs the serial loops. compatibility_with_jobs overrides this with
  /// the flow-wide jobs knob.
  int jobs = 1;
};

/// Everything the composition engine needs to know about one composable
/// register, precomputed once.
struct RegisterInfo {
  netlist::CellId cell;
  const lib::RegisterCell* lib_cell = nullptr;
  int bits = 1;
  geom::Rect footprint;
  geom::Rect region;  // timing-feasible placement region
  double d_slack = 0.0;  // worst D-side slack (clamped)
  double q_slack = 0.0;  // worst Q-side slack (clamped)
  double drive_resistance = 0.0;
  netlist::NetId clock_net;
  int gating_group = 0;
  // Control net signature (invalid ids when the function lacks the pin).
  netlist::NetId reset_net;
  netlist::NetId set_net;
  netlist::NetId enable_net;
  netlist::NetId scan_enable_net;
  netlist::ScanInfo scan;

  geom::Point center() const { return footprint.center(); }
};

class CompatibilityGraph {
public:
  const std::vector<RegisterInfo>& nodes() const { return nodes_; }
  const RegisterInfo& node(int i) const { return nodes_[i]; }
  /// Mutable access for hand-built graphs (tests, fixtures).
  RegisterInfo& node_mutable(int i) { return nodes_[i]; }
  int node_count() const { return static_cast<int>(nodes_.size()); }

  const std::vector<int>& neighbors(int i) const {
    MBRC_ASSERT_MSG(!dirty_, "CompatibilityGraph read before finalize()");
    return adjacency_[i];
  }
  bool has_edge(int a, int b) const;
  std::int64_t edge_count() const;

  /// The connected components that hold a node of `starts`, each a sorted
  /// list of node indices, listed in ascending order of their smallest node.
  std::vector<std::vector<int>> components_of(
      const std::vector<int>& starts) const;
  /// Every connected component: components_of every node.
  std::vector<std::vector<int>> connected_components() const;

  // Hand construction (tests, fixtures, the worked example). Edges are
  // appended in O(1); call finalize() once after the last add_edge to sort
  // and deduplicate the adjacency lists. Reads (neighbors/has_edge/...)
  // assert that the graph is finalized.
  int add_node(RegisterInfo info);
  void add_edge(int a, int b);
  void finalize();

  /// The one edge derivation, for a fresh build and a kept graph's refresh.
  /// Each node of `nodes` (unique, without edges: fresh, or after
  /// clear_edges) probes its 3x3 bin block in `pairs` at options.jobs and
  /// links to every node passing the placement and timing rules; a pair
  /// inside `nodes` is probed from its smaller node. Only the lists that
  /// gained edges are visited again (reserved, then sorted).
  void derive_edges(const std::vector<int>& nodes, const PairIndex& pairs,
                    const CompatibilityOptions& options, NodeScratch& scratch);
  /// Removes every edge of node `i`; the other lists stay sorted.
  void clear_edges(int i);

private:
  std::vector<RegisterInfo> nodes_;
  std::vector<std::vector<int>> adjacency_;  // sorted once finalized
  bool dirty_ = false;                       // edges appended, not yet sorted
};

/// True when `cell` may be composed at all (Sec. 5's 'Comp-Regs' notion):
/// a live, clocked, non-fixed register whose functional class has a library
/// MBR wider than the register itself.
bool is_composable(const netlist::Design& design, netlist::CellId cell);

/// Collects the RegisterInfo of one composable register.
RegisterInfo make_register_info(const netlist::Design& design,
                                const sta::TimingReport& timing,
                                netlist::CellId cell,
                                const CompatibilityOptions& options);

// Pairwise rules (exposed for tests; build_compatibility_graph applies all).
bool functionally_compatible(const RegisterInfo& a, const RegisterInfo& b);
bool scan_compatible(const RegisterInfo& a, const RegisterInfo& b);
bool placement_compatible(const RegisterInfo& a, const RegisterInfo& b,
                          const CompatibilityOptions& options);
bool timing_compatible(const RegisterInfo& a, const RegisterInfo& b,
                       const CompatibilityOptions& options);

/// The candidate pairs of the compatibility graph. Nodes are grouped by the
/// signature functional and scan compatibility compare (function, clock,
/// gating group, control nets, scan partition) and binned per group by
/// center in max_distance cells. Two registers within max_distance of each
/// other lie in each other's 3x3 bin block, so probing that block finds
/// every edge, and the probe is symmetric: j is found from i exactly when i
/// is found from j.
class PairIndex {
public:
  PairIndex() = default;
  PairIndex(const CompatibilityGraph& graph,
            const CompatibilityOptions& options);

  /// Calls fn(j) for every node j != i of i's group in the 3x3 bin block
  /// around i's center, in (bin key, node) order.
  template <typename Fn>
  void for_each_near(const CompatibilityGraph& graph, int i, Fn&& fn) const {
    const std::vector<Bin>& bins = bins_[group_of_[i]];
    const geom::Point c = graph.node(i).center();
    const std::int64_t bx = coord(c.x);
    const std::int64_t by = coord(c.y);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        const std::int64_t probe = key(bx + dx, by + dy);
        for (auto it = std::lower_bound(bins.begin(), bins.end(),
                                        Bin{probe, -1});
             it != bins.end() && it->first == probe; ++it)
          if (it->second != i) fn(it->second);
      }
    }
  }

  /// Re-bins node `i` after its center moved away from `from`; the graph
  /// already holds the new center.
  void rebin(const CompatibilityGraph& graph, int i, geom::Point from);

  /// What groups a register: two registers can share an edge only when
  /// their signatures are equal.
  using Signature = std::tuple<unsigned, std::int32_t, int, std::int32_t,
                               std::int32_t, std::int32_t, std::int32_t, int>;
  static Signature signature(const RegisterInfo& info);

private:
  using Bin = std::pair<std::int64_t, int>;  // (bin key, node), sorted
  std::int64_t coord(double v) const {
    return static_cast<std::int64_t>(std::floor(v / bin_));
  }
  static std::int64_t key(std::int64_t bx, std::int64_t by) {
    return (bx << 32) ^ (by & 0xffffffff);
  }

  double bin_ = 1.0;
  std::vector<int> group_of_;
  std::vector<std::vector<Bin>> bins_;  // per group
};

/// Builds the full compatibility graph of `design`. When `pairs` is given,
/// it receives the pair index the build probed, for incremental re-probing.
CompatibilityGraph build_compatibility_graph(
    const netlist::Design& design, const sta::TimingReport& timing,
    const CompatibilityOptions& options = {}, PairIndex* pairs = nullptr);

}  // namespace mbrc::mbr
