// Exact weighted set-partitioning solver, specialized for the MBR
// composition ILP of Sec. 3.1:
//
//   minimize   sum_i w_i x_i
//   subject to for every element j:  sum_{i : j in M_i} x_i = 1
//              x_i in {0, 1}
//
// Elements are the composable registers of one compatibility subgraph
// (<= 30 by construction, Sec. 3); candidates are the valid MBR cliques.
// The solver is a depth-first branch & bound. Each node branches on the
// uncovered element with the fewest still-placeable candidates and tries
// those candidates in ascending weight. A node is pruned when its cost plus
// an additive lower bound reaches the incumbent: each uncovered element must
// pay at least min over its covering candidates of (w / cover-size).
//
// Tests check it against plain exhaustive enumeration
// (tests/solver_oracles.hpp).
#pragma once

#include <cstdint>
#include <vector>

namespace mbrc::ilp {

struct SetPartitionCandidate {
  std::vector<int> elements;  // distinct element ids in [0, element_count)
  double weight = 0.0;
};

struct SetPartitionProblem {
  int element_count = 0;
  std::vector<SetPartitionCandidate> candidates;
};

struct SetPartitionResult {
  bool feasible = false;
  /// The chosen weights summed left to right in `chosen` order.
  double objective = 0.0;
  std::vector<int> chosen;  // indices into problem.candidates, ascending
  std::int64_t nodes_explored = 0;
};

struct SetPartitionOptions {
  /// Node budget; the search is exact well below this for <= 30-element
  /// instances. When exceeded, the search stops: if an incumbent exists it
  /// is returned (feasible=true) without an optimality guarantee, otherwise
  /// the result is feasible=false.
  std::int64_t max_nodes = 5'000'000;
};

/// Solves the weighted set-partitioning problem exactly (within the node
/// budget). Candidates with empty element lists are ignored.
SetPartitionResult solve_set_partition(const SetPartitionProblem& problem,
                                       const SetPartitionOptions& options = {});

}  // namespace mbrc::ilp
