// Candidate MBR enumeration and the placement-aware weights (Sec. 3, 3.2).
//
// A candidate is a clique of the compatibility subgraph whose total bit
// count either equals an available library width (complete MBR) or lies
// below one (incomplete MBR, allowed when its area-per-physical-bit is below
// the average area-per-bit of the registers it replaces). Candidates whose
// members have no common timing-feasible region are rejected -- pairwise
// region overlap does not imply a shared spot for the merged cell.
//
// Weights (Sec. 3.2): with b = connected bits and n = number of other
// composable registers whose center falls strictly inside the convex hull of
// the member footprint corners,
//      w = 1/b          when n == 0        (clean: bigger is better)
//      w = b * 2^n      when 0 < n < b     (blocked: smaller/cleaner wins)
//      w = infinity     when n >= b        (dropped)
//
// Note on enumeration strategy: the paper runs Bron-Kerbosch and then
// enumerates valid sub-cliques of each maximal clique with dynamic
// programming. Because every valid candidate has at most max-library-width
// members, we enumerate the valid cliques directly with a bounded DFS over
// the (<= 30-node) subgraph; the resulting candidate *set* is identical and
// no deduplication across overlapping maximal cliques is needed (a property
// test in tests/candidates_test.cpp checks the equivalence).
//
// The DFS (DESIGN.md §5 "Candidate enumeration kernel") carries each
// clique's sorted footprint corners down the recursion, so a hull is one
// monotone chain with no sort; takes blockers from one per-subgraph list
// instead of per-clique bin lookups; and skips whole any subtree in which
// every clique would be dropped. The candidate vector is the one the plain
// DFS produces, candidate for candidate, less the dominated cliques (a
// merge priced above keeping its members, never part of an optimal
// partition) unless EnumerationOptions::keep_dominated is set. Under the
// paper weight every blocked clique (n >= 1) is dominated, so a hull stops
// at its first blocker and a subtree is skipped once one blocker is sure.
#pragma once

#include <vector>

#include "mbr/cliques.hpp"
#include "mbr/compatibility.hpp"
#include "mbr/cost.hpp"

namespace mbrc::mbr {

struct EnumerationOptions {
  bool allow_incomplete = true;
  /// Flow-level area rule applied eagerly (Sec. 5): an incomplete MBR may
  /// cost at most this fraction more area than the registers it replaces.
  /// Checking it here keeps the ILP from selecting candidates the mapper
  /// would reject anyway (the mapper re-checks with the actual cell).
  double incomplete_area_overhead = 0.05;
  /// Ablation hook: false assigns every candidate weight 1 so the ILP
  /// minimizes the raw register count with no placement awareness.
  bool use_weights = true;
  /// Hard cap on candidates per subgraph (deterministic truncation guard;
  /// effectively never reached with the 30-node bound).
  std::size_t max_candidates_per_subgraph = 200'000;
  /// Multi-objective pricing applied on top of the paper weight (and on top
  /// of the flat weight 1 when use_weights is off). The defaults reproduce
  /// the paper's weights exactly; see mbr/cost.hpp.
  CostModel cost;
  /// False (the default) never emits a multi-member clique that costs more
  /// than keeping its members as singletons: swapping it for them gives a
  /// valid, strictly cheaper cover, so no optimal set partition selects it
  /// (DESIGN.md §5, "Dominance"). True keeps them, e.g. to list the
  /// paper's blocked Fig. 3 rows.
  bool keep_dominated = false;
};

struct Candidate {
  std::vector<int> nodes;   // graph node indices, ascending
  int bits = 0;             // connected D/Q bit pairs
  int mapped_width = 0;     // library width (> bits for incomplete MBRs)
  int blockers = 0;         // n_i of Sec. 3.2
  double weight = 0.0;      // w_i of Sec. 3.2
  bool needs_per_bit_scan = false;
  geom::Rect common_region; // intersection of member feasible regions

  bool is_incomplete() const { return mapped_width > bits; }
  bool is_singleton() const { return nodes.size() == 1; }
};

struct EnumerationResult {
  std::vector<Candidate> candidates;
  bool truncated = false;
  /// Cliques discarded because their weight was infinite (blockers >= bits,
  /// Sec. 3.2). Flushed to the flow.candidates.dropped_infinite_weight
  /// counter so the coverage loss is visible in flow_report.json. Counts
  /// only cliques that reach the weight test with n >= b known: a pruned
  /// subtree's cliques are never visited, and under the dominance rule a
  /// blocker count that stops at the first blocker files the clique under
  /// `dominated` instead.
  std::int64_t dropped_infinite_weight = 0;
  /// Cliques with a finite cost above their members' singleton costs,
  /// discarded by the dominance rule (mbr.candidates.dominated).
  std::int64_t dominated = 0;
  /// DFS subtrees skipped because every clique in them would be dropped
  /// or dominated (mbr.candidates.pruned_subtrees).
  std::int64_t pruned_subtrees = 0;
  /// Convex hulls built for blocker counts (mbr.candidates.hulls).
  std::int64_t hulls = 0;
};

/// Sec. 3.2 weight formula. `blockers >= bits` yields +infinity.
double candidate_weight(int bits, int blockers);

/// The dominance rule: true when a multi-member clique priced `cost` costs
/// more than `keep`, the sum of its members' singleton costs, by more than
/// a 1e-9 relative margin (so floating-point rounding never decides).
bool candidate_dominated(double cost, double keep);

/// Spatial index over the composable-register centers, the source of the
/// blocking registers of a candidate's convex hull.
class BlockerIndex {
public:
  struct Entry {
    geom::Point center;
    int node;  // graph node index
  };

  BlockerIndex(const CompatibilityGraph& graph, double bin_size = 25.0);

  /// Appends to `out` every entry whose center lies in the closed box
  /// `box`, in no particular order.
  void query(const geom::Rect& box, std::vector<Entry>& out) const;

  /// Moves node `node`'s center from `from` to `to` (the session graph's
  /// incremental maintenance). Queries do not depend on the order of nodes
  /// within a bin, so the index stays equal to a fresh one.
  void move(int node, geom::Point from, geom::Point to);

private:
  double bin_size_;
  std::unordered_map<std::int64_t, std::vector<Entry>> bins_;

  std::int64_t key(double x, double y) const;
};

/// Derives whether the member set can use an internal-scan MBR or requires
/// per-bit scan pins (ordered-section rules of Sec. 2). Returns false for
/// non-scan members.
bool candidate_needs_per_bit_scan(const CompatibilityGraph& graph,
                                  const std::vector<int>& members);

/// Enumerates all valid candidates of one subgraph (node indices into
/// `graph`, strictly ascending, at most kMaxSubgraphNodes). Singleton
/// keep-as-is candidates are always included, so the downstream
/// set-partitioning ILP is always feasible.
/// Only the library is needed (valid widths, incomplete-MBR area rule), so
/// hand-built graphs (e.g. the paper's worked example) work too.
EnumerationResult enumerate_candidates(const CompatibilityGraph& graph,
                                       const lib::Library& library,
                                       const BlockerIndex& blockers,
                                       const std::vector<int>& subgraph,
                                       const EnumerationOptions& options = {});

}  // namespace mbrc::mbr
