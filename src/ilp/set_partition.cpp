#include "ilp/set_partition.hpp"

#include <algorithm>
#include <limits>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::ilp {

namespace {

struct Search {
  const SetPartitionProblem& problem;
  const SetPartitionOptions& options;

  // Element masks live SoA-flat: candidate c owns words
  // [c*words, (c+1)*words) of candidate_words, so building the search
  // state costs two allocations total instead of one per candidate, and
  // the masks the inner loop walks sit contiguously in cache.
  int words = 0;  // 64-bit words per element mask
  std::vector<std::uint64_t> candidate_words;
  std::vector<std::vector<int>> covering;    // per element: candidate ids by weight
  std::vector<double> min_ratio;             // per element: min w/|cover|

  std::vector<std::uint64_t> covered;
  std::vector<int> chosen;
  double cost = 0.0;
  double bound_remaining = 0.0;  // sum of min_ratio over uncovered elements

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_chosen;
  std::int64_t nodes = 0;
  std::int64_t bound_prunes = 0;
  bool budget_hit = false;

  const std::uint64_t* mask(int c) const {
    return candidate_words.data() + static_cast<std::size_t>(c) * words;
  }
  bool covered_test(int e) const {
    return (covered[e >> 6] >> (e & 63)) & 1;
  }
  bool mask_hits_covered(int c) const {
    const std::uint64_t* m = mask(c);
    for (int w = 0; w < words; ++w)
      if (m[w] & covered[w]) return true;
    return false;
  }

  Search(const SetPartitionProblem& p, const SetPartitionOptions& o)
      : problem(p),
        options(o),
        words((p.element_count + 63) / 64),
        covered(static_cast<std::size_t>((p.element_count + 63) / 64), 0) {
    const int n = p.element_count;
    covering.resize(n);
    min_ratio.assign(n, std::numeric_limits<double>::infinity());
    candidate_words.assign(p.candidates.size() * static_cast<std::size_t>(words),
                           0);
    for (std::size_t c = 0; c < p.candidates.size(); ++c) {
      const auto& cand = p.candidates[c];
      std::uint64_t* bits = candidate_words.data() + c * words;
      for (int e : cand.elements) {
        MBRC_ASSERT_MSG(e >= 0 && e < n, "element id out of range");
        MBRC_ASSERT_MSG(!((bits[e >> 6] >> (e & 63)) & 1),
                        "duplicate element in candidate");
        bits[e >> 6] |= std::uint64_t{1} << (e & 63);
      }
      if (cand.elements.empty()) continue;
      // The additive bound below charges every uncovered element
      // min(w / |cover|), which under-estimates the true cost only when
      // weights are non-negative. The MBR weights satisfy this by
      // construction: the paper's 1/b and b*2^n are positive, infinite
      // weights are dropped at enumeration, and the multi-objective
      // extension (mbr/cost.hpp) only adds non-negative power/area terms.
      MBRC_ASSERT_MSG(cand.weight >= 0.0 &&
                          cand.weight < std::numeric_limits<double>::infinity(),
                      "set-partition weights must be finite and non-negative");
      const double ratio =
          cand.weight / static_cast<double>(cand.elements.size());
      for (int e : cand.elements) min_ratio[e] = std::min(min_ratio[e], ratio);
    }
    // Branching explores each element's candidates by (weight, id). One
    // sort of the ids and a push in that order leaves every list sorted.
    std::vector<int> by_weight;
    by_weight.reserve(p.candidates.size());
    for (std::size_t c = 0; c < p.candidates.size(); ++c)
      if (!p.candidates[c].elements.empty())
        by_weight.push_back(static_cast<int>(c));
    std::sort(by_weight.begin(), by_weight.end(), [&](int a, int b) {
      const double wa = p.candidates[a].weight;
      const double wb = p.candidates[b].weight;
      if (wa != wb) return wa < wb;
      return a < b;
    });
    for (int c : by_weight)
      for (int e : p.candidates[c].elements) covering[e].push_back(c);
    for (int e = 0; e < n; ++e)
      if (!covering[e].empty()) bound_remaining += min_ratio[e];
  }

  // The uncovered element with the fewest candidates that are still placeable
  // (no overlap with covered). Returns -1 when everything is covered, -2 when
  // some uncovered element has no placeable candidate (dead end).
  int pick_element() const {
    int best = -1;
    int best_count = std::numeric_limits<int>::max();
    for (int e = 0; e < problem.element_count; ++e) {
      if (covered_test(e)) continue;
      int count = 0;
      for (int c : covering[e]) {
        if (!mask_hits_covered(c)) {
          ++count;
          if (count >= best_count) break;
        }
      }
      if (count == 0) return -2;
      if (count < best_count) {
        best_count = count;
        best = e;
      }
    }
    return best;
  }

  void run() {
    if (budget_hit) return;
    if (++nodes > options.max_nodes) {
      budget_hit = true;
      return;
    }
    if (cost + bound_remaining >= best_cost) {  // bound prune
      ++bound_prunes;
      return;
    }

    const int element = pick_element();
    if (element == -2) return;  // uncoverable
    if (element == -1) {
      if (cost < best_cost) {
        best_cost = cost;
        best_chosen = chosen;
      }
      return;
    }

    // Each branch starts from this node's cost and bound and restores them
    // as saved, so `cost` is always the exact left-to-right sum of the
    // chosen weights along the path, with no drift from undoing by `-=`.
    const double node_cost = cost;
    const double node_bound = bound_remaining;
    for (int c : covering[element]) {
      const auto& cand = problem.candidates[c];
      if (mask_hits_covered(c)) continue;
      // Apply.
      const std::uint64_t* m = mask(c);
      for (int w = 0; w < words; ++w) covered[w] |= m[w];
      chosen.push_back(c);
      cost = node_cost + cand.weight;
      double removed_bound = 0.0;
      for (int e : cand.elements) removed_bound += min_ratio[e];
      bound_remaining = node_bound - removed_bound;

      run();

      // Undo.
      bound_remaining = node_bound;
      cost = node_cost;
      chosen.pop_back();
      for (int w = 0; w < words; ++w) covered[w] &= ~m[w];
      if (budget_hit) return;
    }
  }
};

}  // namespace

SetPartitionResult solve_set_partition(const SetPartitionProblem& problem,
                                       const SetPartitionOptions& options) {
  SetPartitionResult result;
  if (problem.element_count == 0) {
    result.feasible = true;
    return result;
  }
  obs::Span span("ilp.set_partition");
  Search search(problem, options);
  // Quick infeasibility check: every element needs at least one candidate.
  for (int e = 0; e < problem.element_count; ++e) {
    if (search.covering[e].empty()) return result;
  }
  search.run();
  result.nodes_explored = search.nodes;

  // One flush per solve: work counts, never wall time (DESIGN.md §11).
  static obs::Counter& c_solves = obs::counter("ilp.set_partition.solves");
  static obs::Counter& c_nodes = obs::counter("ilp.set_partition.nodes");
  static obs::Counter& c_prunes =
      obs::counter("ilp.set_partition.bound_prunes");
  static obs::Counter& c_budget =
      obs::counter("ilp.set_partition.budget_hits");
  static obs::Histogram& h_nodes =
      obs::histogram("ilp.set_partition.nodes_per_solve");
  c_solves.add(1);
  c_nodes.add(search.nodes);
  c_prunes.add(search.bound_prunes);
  if (search.budget_hit) c_budget.add(1);
  h_nodes.record(search.nodes);
  if (search.best_cost == std::numeric_limits<double>::infinity()) return result;
  result.feasible = true;
  result.chosen = std::move(search.best_chosen);
  std::sort(result.chosen.begin(), result.chosen.end());
  for (const int c : result.chosen)
    result.objective += problem.candidates[c].weight;
  return result;
}

}  // namespace mbrc::ilp
