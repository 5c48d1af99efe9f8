#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "benchgen/generator.hpp"
#include "geom/convex_hull.hpp"
#include "mbr/candidates.hpp"
#include "mbr/cliques.hpp"
#include "mbr/composition.hpp"
#include "mbr/worked_example.hpp"
#include "obs/counters.hpp"
#include "sta/sta.hpp"
#include "util/rng.hpp"

namespace mbrc::mbr {
namespace {

std::string names(const std::vector<int>& nodes) {
  std::string s;
  for (int n : nodes) s += WorkedExample::node_name(n);
  return s;
}

// ---------------------------------------------------------------------------
// Reference enumerator: the plain bounded DFS with a per-clique blocker
// count over spatial bins, kept as it was as the oracle for the enumeration
// kernel (no subtree pruning, no carried corners, a sort per hull).
// ---------------------------------------------------------------------------
namespace reference {

class BinnedBlockers {
public:
  explicit BinnedBlockers(const CompatibilityGraph& graph,
                          double bin_size = 25.0)
      : bin_size_(bin_size) {
    for (int i = 0; i < graph.node_count(); ++i) {
      const geom::Point c = graph.node(i).center();
      bins_[key(c.x, c.y)].push_back({c, i});
    }
  }

  int count_blockers(const CompatibilityGraph& graph,
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

private:
  struct Entry {
    geom::Point center;
    int node;
  };
  double bin_size_;
  std::unordered_map<std::int64_t, std::vector<Entry>> bins_;

  std::int64_t key(double x, double y) const {
    const auto bx = static_cast<std::int64_t>(std::floor(x / bin_size_));
    const auto by = static_cast<std::int64_t>(std::floor(y / bin_size_));
    return (bx << 32) ^ (by & 0xffffffff);
  }
};

struct Enumerator {
  const CompatibilityGraph& graph;
  const lib::Library& library;
  const BinnedBlockers& blockers;
  const EnumerationOptions& options;

  std::vector<int> nodes;
  std::vector<std::uint64_t> adjacency{};
  const std::vector<int>* widths = nullptr;
  lib::RegisterFunction function{};
  bool has_per_bit_scan_cells = false;

  EnumerationResult result{};

  std::vector<int> members_local{};
  std::vector<int> node_bits{};
  std::vector<geom::Rect> node_region{};

  const lib::RegisterCell* priced_cell(const std::vector<int>& members,
                                       int mapped_width) const {
    if (members.size() == 1) return graph.node(members.front()).lib_cell;
    return library.cheapest_cell(function, mapped_width);
  }

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
      if (up == widths->end()) return;
      mapped_width = *up;
      const lib::RegisterCell* cell =
          library.cheapest_cell(function, mapped_width);
      if (cell == nullptr) return;
      double replaced_area = 0.0;
      for (int m : members) replaced_area += graph.node(m).lib_cell->area;
      const double avg_per_bit = replaced_area / bits;
      if (cell->area / cell->bits >= avg_per_bit) return;
      if (cell->area >
          replaced_area * (1.0 + options.incomplete_area_overhead))
        return;
    }

    const bool per_bit_scan = candidate_needs_per_bit_scan(graph, members);
    if (per_bit_scan && members.size() > 1 && !has_per_bit_scan_cells)
      return;

    int n_blockers = 0;
    double weight = 1.0;
    if (options.use_weights) {
      n_blockers = blockers.count_blockers(graph, members);
      weight = candidate_weight(bits, n_blockers);
      if (!std::isfinite(weight)) {
        ++result.dropped_infinite_weight;
        return;
      }
    }
    weight = options.cost.candidate_cost(weight,
                                         priced_cell(members, mapped_width));
    if (members.size() >= 2 && !options.keep_dominated) {
      // The dominance rule, applied after the fact: drop the clique when it
      // costs more than its members kept as singletons.
      double keep = 0.0;
      for (int m : members) keep += singleton_candidate(m).weight;
      if (candidate_dominated(weight, keep)) {
        ++result.dominated;
        return;
      }
    }

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
      bool adjacent_to_all = true;
      for (int m : members_local) {
        if (!(adjacency[m] >> v & 1)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (!adjacent_to_all) continue;

      const int new_bits = bits + node_bits[static_cast<std::size_t>(v)];
      if (new_bits > max_width) continue;
      const geom::Rect new_region =
          region.intersect(node_region[static_cast<std::size_t>(v)]);
      if (new_region.is_empty()) continue;

      members_local.push_back(v);
      emit(new_bits, new_region);
      dfs(v, new_bits, new_region);
      members_local.pop_back();
      if (result.truncated) return;
    }
  }

  void run() {
    const int n = static_cast<int>(nodes.size());
    if (n == 0) return;

    function = graph.node(nodes.front()).lib_cell->function;
    widths = &library.available_widths(function);

    for (int width : *widths) {
      for (const lib::RegisterCell* cell :
           library.cells_for(function, width)) {
        if (cell->scan_style == lib::ScanStyle::kPerBitPins)
          has_per_bit_scan_cells = true;
      }
    }

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

    for (int v = 0; v < n; ++v) {
      members_local.assign(1, v);
      emit(node_bits[static_cast<std::size_t>(v)],
           node_region[static_cast<std::size_t>(v)]);
      dfs(v, node_bits[static_cast<std::size_t>(v)],
          node_region[static_cast<std::size_t>(v)]);
      members_local.clear();
    }

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

EnumerationResult enumerate(const CompatibilityGraph& graph,
                            const lib::Library& library,
                            const std::vector<int>& subgraph,
                            const EnumerationOptions& options = {}) {
  const BinnedBlockers blockers(graph);
  Enumerator enumerator{graph, library, blockers, options, subgraph};
  enumerator.run();
  return std::move(enumerator.result);
}

}  // namespace reference

// Bitwise equality of two enumerations: same candidates in the same order,
// every field identical down to the bits of each double.
::testing::AssertionResult same_enumeration(const EnumerationResult& got,
                                            const EnumerationResult& want) {
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const auto same_rect = [&](const geom::Rect& a, const geom::Rect& b) {
    return bits(a.xlo) == bits(b.xlo) && bits(a.ylo) == bits(b.ylo) &&
           bits(a.xhi) == bits(b.xhi) && bits(a.yhi) == bits(b.yhi);
  };
  if (got.truncated != want.truncated)
    return ::testing::AssertionFailure()
           << "truncated " << got.truncated << " vs " << want.truncated;
  if (got.candidates.size() != want.candidates.size())
    return ::testing::AssertionFailure()
           << got.candidates.size() << " candidates vs "
           << want.candidates.size();
  for (std::size_t i = 0; i < got.candidates.size(); ++i) {
    const Candidate& a = got.candidates[i];
    const Candidate& b = want.candidates[i];
    if (a.nodes != b.nodes || a.bits != b.bits ||
        a.mapped_width != b.mapped_width || a.blockers != b.blockers ||
        bits(a.weight) != bits(b.weight) ||
        a.needs_per_bit_scan != b.needs_per_bit_scan ||
        !same_rect(a.common_region, b.common_region))
      return ::testing::AssertionFailure()
             << "candidate " << i << " differs (blockers " << a.blockers
             << " vs " << b.blockers << ", weight " << a.weight << " vs "
             << b.weight << ", " << a.nodes.size() << " vs "
             << b.nodes.size() << " nodes)";
  }
  return ::testing::AssertionSuccess();
}

TEST(CandidateWeight, Formula) {
  EXPECT_DOUBLE_EQ(candidate_weight(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(candidate_weight(3, 0), 1.0 / 3);
  EXPECT_DOUBLE_EQ(candidate_weight(8, 0), 0.125);
  EXPECT_DOUBLE_EQ(candidate_weight(2, 1), 4.0);   // b * 2^n
  EXPECT_DOUBLE_EQ(candidate_weight(3, 1), 6.0);   // the paper's ABC
  EXPECT_DOUBLE_EQ(candidate_weight(8, 1), 16.0);  // the paper's 8-bit case
  EXPECT_DOUBLE_EQ(candidate_weight(4, 1), 8.0);
  EXPECT_DOUBLE_EQ(candidate_weight(4, 3), 32.0);
  EXPECT_TRUE(std::isinf(candidate_weight(3, 3)));  // n >= b
  EXPECT_TRUE(std::isinf(candidate_weight(2, 5)));
}

TEST(CandidateWeight, PaperExampleTradeoff) {
  // Sec. 3.2: one blocked 8-bit (w=16) loses to a clean 4-bit plus a
  // blocked 4-bit (w = 0.25 + 8 = 8.25).
  EXPECT_GT(candidate_weight(8, 1),
            candidate_weight(4, 0) + candidate_weight(4, 1));
  // And clean big beats clean small pairs: 1/8 < 1/4 + 1/4.
  EXPECT_LT(candidate_weight(8, 0),
            2 * candidate_weight(4, 0));
}

class WorkedExampleCandidates : public ::testing::Test {
protected:
  WorkedExampleCandidates()
      : example(make_worked_example()), blockers(example.graph) {
    for (int i = 0; i < example.graph.node_count(); ++i) subgraph.push_back(i);
  }

  EnumerationResult enumerate(EnumerationOptions options = {}) {
    return enumerate_candidates(example.graph, *example.library, blockers,
                                subgraph, options);
  }

  WorkedExample example;
  BlockerIndex blockers;
  std::vector<int> subgraph;
};

TEST_F(WorkedExampleCandidates, Fig3WeightsExact) {
  EnumerationOptions options;
  options.incomplete_area_overhead = 10.0;  // list AE/ACE like the figure
  options.keep_dominated = true;            // and the blocked BC/ABC/BCF
  const EnumerationResult result = enumerate(options);

  std::map<std::string, const Candidate*> by_name;
  for (const Candidate& c : result.candidates) by_name[names(c.nodes)] = &c;

  const auto expect_weight = [&](const std::string& name, double weight,
                                 int blockers_n) {
    ASSERT_TRUE(by_name.contains(name)) << name;
    EXPECT_NEAR(by_name.at(name)->weight, weight, 1e-9) << name;
    EXPECT_EQ(by_name.at(name)->blockers, blockers_n) << name;
  };
  // Clean 2-bit pairs: 0.5 (Fig. 3).
  for (const std::string name : {"AB", "AC", "AD", "BD", "CD"})
    expect_weight(name, 0.5, 0);
  expect_weight("BC", 4.0, 1);    // blocked by D
  expect_weight("ABC", 6.0, 1);   // blocked by D
  for (const std::string name : {"ABD", "ACD", "BCD", "BF", "CF"})
    expect_weight(name, 1.0 / 3, 0);
  expect_weight("ABCD", 0.25, 0);
  expect_weight("BCF", 8.0, 1);   // 4 bits, blocked by D
  expect_weight("AE", 0.2, 0);    // 5 bits, incomplete 8
  expect_weight("ACE", 1.0 / 6, 0);
  // Singletons use the clean formula 1/b.
  expect_weight("A", 1.0, 0);
  expect_weight("E", 0.25, 0);
  expect_weight("F", 0.5, 0);

  // Incomplete mapping widths.
  EXPECT_EQ(by_name.at("AE")->mapped_width, 8);
  EXPECT_TRUE(by_name.at("AE")->is_incomplete());
  EXPECT_EQ(by_name.at("ABCD")->mapped_width, 4);
  EXPECT_FALSE(by_name.at("ABCD")->is_incomplete());
}

TEST_F(WorkedExampleCandidates, FlowAreaRuleRejectsWastefulIncomplete) {
  // With the paper's 5% overhead cap, AE and ACE disappear ("in reality,
  // incomplete register AE would have been rejected").
  const EnumerationResult result = enumerate();
  for (const Candidate& c : result.candidates) {
    EXPECT_NE(names(c.nodes), "AE");
    EXPECT_NE(names(c.nodes), "ACE");
  }
}

TEST_F(WorkedExampleCandidates, IncompleteDisabledDropsOddSizes) {
  EnumerationOptions options;
  options.allow_incomplete = false;
  const EnumerationResult result = enumerate(options);
  for (const Candidate& c : result.candidates) {
    EXPECT_FALSE(c.is_incomplete());
    EXPECT_EQ(c.bits, c.mapped_width);
  }
}

TEST_F(WorkedExampleCandidates, EveryCandidateIsACliqueWithCommonRegion) {
  EnumerationOptions options;
  options.incomplete_area_overhead = 10.0;
  const EnumerationResult result = enumerate(options);
  EXPECT_FALSE(result.truncated);
  for (const Candidate& c : result.candidates) {
    for (std::size_t a = 0; a < c.nodes.size(); ++a)
      for (std::size_t b = a + 1; b < c.nodes.size(); ++b)
        EXPECT_TRUE(example.graph.has_edge(c.nodes[a], c.nodes[b]))
            << names(c.nodes);
    EXPECT_FALSE(c.common_region.is_empty()) << names(c.nodes);
    // The common region is inside every member's region.
    for (int node : c.nodes) {
      const geom::Rect& r = example.graph.node(node).region;
      EXPECT_EQ(c.common_region.intersect(r), c.common_region)
          << names(c.nodes);
    }
  }
}

TEST_F(WorkedExampleCandidates, MatchesMaximalCliqueSubsetEnumeration) {
  // Equivalence with the paper's Bron-Kerbosch + sub-clique DP: every
  // candidate is a subset of some maximal clique, and every subset of a
  // maximal clique with a valid width and non-empty region appears.
  EnumerationOptions options;
  options.incomplete_area_overhead = 10.0;
  options.keep_dominated = true;
  const EnumerationResult result = enumerate(options);
  const auto maximal = maximal_cliques(example.graph, subgraph);

  std::set<std::vector<int>> produced;
  for (const Candidate& c : result.candidates) produced.insert(c.nodes);

  for (const Candidate& c : result.candidates) {
    bool inside_some_maximal = false;
    for (const auto& m : maximal) {
      if (std::includes(m.begin(), m.end(), c.nodes.begin(), c.nodes.end())) {
        inside_some_maximal = true;
        break;
      }
    }
    EXPECT_TRUE(inside_some_maximal) << names(c.nodes);
  }

  // Exhaustively check subsets of each maximal clique (cliques are tiny).
  const auto widths =
      example.library->available_widths(lib::RegisterFunction{});
  for (const auto& m : maximal) {
    const int n = static_cast<int>(m.size());
    for (unsigned mask = 1; mask < (1u << n); ++mask) {
      std::vector<int> subset;
      int bits = 0;
      geom::Rect region = geom::Rect::universe();
      for (int i = 0; i < n; ++i) {
        if (mask >> i & 1) {
          subset.push_back(m[i]);
          bits += example.graph.node(m[i]).bits;
          region = region.intersect(example.graph.node(m[i]).region);
        }
      }
      const bool complete =
          std::binary_search(widths.begin(), widths.end(), bits);
      if (!complete) continue;  // incomplete rules tested separately
      if (region.is_empty()) continue;
      const int blocked =
          reference::BinnedBlockers(example.graph)
              .count_blockers(example.graph, subset);
      if (blocked >= bits) continue;  // weight infinity: dropped
      EXPECT_TRUE(produced.contains(subset)) << names(subset);
    }
  }
}

TEST_F(WorkedExampleCandidates, TruncationGuard) {
  EnumerationOptions options;
  options.max_candidates_per_subgraph = 5;
  const EnumerationResult result = enumerate(options);
  EXPECT_TRUE(result.truncated);
  // The cap holds, except that lost singletons are appended afterwards so
  // the downstream ILP stays feasible.
  EXPECT_LE(result.candidates.size(), 5u + 6u);
  int singletons = 0;
  for (const Candidate& c : result.candidates) singletons += c.is_singleton();
  EXPECT_EQ(singletons, 6);
}

TEST_F(WorkedExampleCandidates, TruncatedEnumerationKeepsIlpFeasible) {
  // Even a pathologically small candidate cap must leave the exact-cover
  // ILP solvable (every node retains its keep-as-is option).
  for (const std::size_t cap : {1u, 2u, 3u, 7u}) {
    EnumerationOptions options;
    options.max_candidates_per_subgraph = cap;
    const EnumerationResult result = enumerate(options);
    const ilp::SetPartitionResult solved =
        mbr::solve_subgraph(subgraph, result.candidates);
    EXPECT_TRUE(solved.feasible) << "cap " << cap;
  }
}

TEST(BlockerIndexTest, CountsOnlyNonMembersStrictlyInside) {
  const WorkedExample example = make_worked_example();
  const BlockerIndex index(example.graph);
  std::vector<int> subgraph;
  for (int i = 0; i < example.graph.node_count(); ++i) subgraph.push_back(i);
  EnumerationOptions options;
  options.keep_dominated = true;  // ABC is blocked, so dominated
  const EnumerationResult result = enumerate_candidates(
      example.graph, *example.library, index, subgraph, options);
  const auto blockers_of = [&](const std::vector<int>& nodes) {
    for (const Candidate& c : result.candidates)
      if (c.nodes == nodes) return c.blockers;
    ADD_FAILURE() << "no candidate " << names(nodes);
    return -1;
  };
  using WE = WorkedExample;
  // D is inside hull(A, B, C) (Fig. 2).
  EXPECT_EQ(blockers_of({WE::kA, WE::kB, WE::kC}), 1);
  // ...but a member never blocks its own candidate.
  EXPECT_EQ(blockers_of({WE::kA, WE::kB, WE::kC, WE::kD}), 0);
  // Singletons have no hull to block.
  EXPECT_EQ(blockers_of({WE::kA}), 0);
}

TEST(PerBitScan, RuleMatrix) {
  const WorkedExample example = make_worked_example();
  CompatibilityGraph g;
  auto add = [&](int section, int order) {
    RegisterInfo info = example.graph.node(0);
    info.scan.partition = 0;
    info.scan.section = section;
    info.scan.order = order;
    return g.add_node(info);
  };
  const int free1 = add(-1, -1);
  const int free2 = add(-1, -1);
  const int s0_0 = add(0, 0);
  const int s0_1 = add(0, 1);
  const int s0_3 = add(0, 3);
  const int s1_0 = add(1, 0);

  // No ordering constraints at all.
  EXPECT_FALSE(candidate_needs_per_bit_scan(g, {free1, free2}));
  // One contiguous run of a single section.
  EXPECT_FALSE(candidate_needs_per_bit_scan(g, {s0_0, s0_1}));
  // Non-contiguous orders: the chain would have to leave and re-enter.
  EXPECT_TRUE(candidate_needs_per_bit_scan(g, {s0_0, s0_3}));
  // Two different ordered sections cross the MBR.
  EXPECT_TRUE(candidate_needs_per_bit_scan(g, {s0_0, s1_0}));
  // Ordered and free registers mixed.
  EXPECT_TRUE(candidate_needs_per_bit_scan(g, {s0_0, s0_1, free1}));
  // A single ordered register is fine.
  EXPECT_FALSE(candidate_needs_per_bit_scan(g, {s0_0}));
}

TEST(CostModelTest, DefaultReducesToPaperWeight) {
  const lib::Library library = lib::make_default_library();
  const lib::RegisterCell* cell = library.cheapest_cell({}, 4);
  ASSERT_NE(cell, nullptr);
  const CostModel defaults;
  EXPECT_FALSE(defaults.multi_objective());
  // alpha=1, beta=gamma=0: the candidate cost IS the paper weight,
  // bit-exactly, whatever cell would be created.
  for (const double w : {0.125, 1.0 / 3, 0.5, 4.0, 16.0}) {
    EXPECT_EQ(defaults.candidate_cost(w, cell), w);
    EXPECT_EQ(defaults.candidate_cost(w, nullptr), w);
  }

  CostModel priced;
  priced.beta = 0.1;
  priced.gamma = 0.05;
  EXPECT_TRUE(priced.multi_objective());
  EXPECT_DOUBLE_EQ(priced.candidate_cost(0.5, cell),
                   0.5 + 0.1 * cell->power_proxy() + 0.05 * cell->area);
}

TEST_F(WorkedExampleCandidates, TruncationGuardSingletonsCarryCostTerms) {
  // Regression (S1): the truncation guard used to append lost singletons
  // with the bare paper weight candidate_weight(bits, 0), silently dropping
  // the beta/gamma cost terms every regularly-enumerated candidate carries.
  // Under a multi-objective model that under-priced keeping a register
  // unmerged, so the truncated ILP was biased toward unmerged banks.
  EnumerationOptions costed;
  costed.cost.beta = 0.1;
  costed.cost.gamma = 0.05;
  const EnumerationResult full = enumerate(costed);
  std::map<std::string, double> full_weight;
  for (const Candidate& c : full.candidates)
    if (c.is_singleton()) full_weight[names(c.nodes)] = c.weight;
  ASSERT_FALSE(full_weight.empty());

  EnumerationOptions truncated = costed;
  truncated.max_candidates_per_subgraph = 1;
  const EnumerationResult result = enumerate(truncated);
  ASSERT_TRUE(result.truncated);
  int guarded = 0;
  for (const Candidate& c : result.candidates) {
    if (!c.is_singleton()) continue;
    ++guarded;
    const auto it = full_weight.find(names(c.nodes));
    ASSERT_NE(it, full_weight.end()) << names(c.nodes);
    // Identical to the untruncated enumeration's singleton pricing...
    EXPECT_DOUBLE_EQ(c.weight, it->second) << names(c.nodes);
    // ...which is strictly above the bare paper weight when beta/gamma on.
    EXPECT_GT(c.weight, candidate_weight(c.bits, 0)) << names(c.nodes);
  }
  EXPECT_EQ(guarded, 6);  // every worked-example node kept its keep-option
}

TEST(DroppedInfiniteWeight, TalliedAndFlushedToCounter) {
  // Two compatible registers at diagonal corners; two strangers sit
  // strictly inside the pair's convex hull. With 1-bit registers the pair
  // candidate has n=2 blockers >= b=2 bits -> infinite weight -> silently
  // dropped by enumeration. Regression (S2): that drop used to vanish
  // without a trace; it must be tallied in the result and flushed to the
  // flow.candidates.dropped_infinite_weight counter.
  const lib::Library library = lib::make_default_library();
  const auto build = [&](int bits) {
    const lib::RegisterCell* cell = library.cheapest_cell({}, bits);
    CompatibilityGraph graph;
    const auto add = [&](geom::Rect footprint) {
      RegisterInfo info;
      info.lib_cell = cell;
      info.bits = bits;
      info.footprint = footprint;
      info.region = {-100.0, -100.0, 100.0, 100.0};
      return graph.add_node(info);
    };
    const int a = add({0.0, 0.0, 1.0, 1.0});
    const int b = add({10.0, 10.0, 11.0, 11.0});
    add({4.0, 4.0, 5.0, 5.0});  // blocker, center (4.5, 4.5)
    add({5.0, 5.0, 6.0, 6.0});  // blocker, center (5.5, 5.5)
    graph.add_edge(a, b);
    graph.finalize();
    return graph;
  };
  const CompatibilityGraph graph = build(1);
  const int a = 0;
  const int b = 1;
  const BlockerIndex blockers(graph);
  // A blocked pair is dominated; keep it so that n >= b decides the drop.
  EnumerationOptions options;
  options.keep_dominated = true;
  {
    // The same geometry with 2-bit registers keeps the pair (n=2 < b=4),
    // so its Candidate::blockers shows the count that drops the 1-bit pair.
    const CompatibilityGraph wide = build(2);
    const EnumerationResult kept = enumerate_candidates(
        wide, library, BlockerIndex(wide), {a, b}, options);
    ASSERT_EQ(kept.candidates.size(), 3u);
    ASSERT_EQ(kept.candidates[1].nodes, (std::vector<int>{a, b}));
    ASSERT_EQ(kept.candidates[1].blockers, 2);
  }

  const obs::CountersSnapshot before = obs::counters_snapshot();
  const EnumerationResult result =
      enumerate_candidates(graph, library, blockers, {a, b}, options);
  const obs::CountersSnapshot delta =
      obs::counters_delta(before, obs::counters_snapshot());

  EXPECT_EQ(result.dropped_infinite_weight, 1);
  const auto it =
      delta.counters.find("flow.candidates.dropped_infinite_weight");
  ASSERT_NE(it, delta.counters.end());
  EXPECT_EQ(it->second, 1);
  // The pair is gone but both keep-as-is singletons survived.
  int singletons = 0;
  for (const Candidate& c : result.candidates) singletons += c.is_singleton();
  EXPECT_EQ(singletons, 2);
  EXPECT_EQ(result.candidates.size(), 2u);
}

// ---------------------------------------------------------------------------
// Differential oracle: the enumeration kernel against the reference DFS.
// ---------------------------------------------------------------------------

// A random hand-built subgraph plus strangers (composable registers outside
// the subgraph that still block hulls). Footprints sit on 1.8 um rows at
// 0.19 um sites, with a few off-grid ones, inside a box small enough that
// hulls routinely swallow several registers.
struct RandomCase {
  CompatibilityGraph graph;
  std::vector<int> subgraph;
};

RandomCase random_case(const lib::Library& library,
                       const lib::RegisterFunction& function, util::Rng& rng,
                       int max_nodes = 34) {
  RandomCase out;
  const std::vector<int>& widths = library.available_widths(function);
  const int nodes = static_cast<int>(rng.uniform_int(2, max_nodes));
  const int strangers = static_cast<int>(rng.uniform_int(0, 30));
  const double extent = rng.uniform_real(8.0, 60.0);
  const double edge_p = rng.uniform_real(0.3, 0.95);
  const int sections = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < nodes + strangers; ++i) {
    // Mostly narrow registers so cliques grow deep; now and then a wide one.
    const int bits = rng.chance(0.75)
                         ? widths.front()
                         : widths[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(widths.size()) - 2))];
    const lib::RegisterCell* cell = library.cheapest_cell(function, bits);
    RegisterInfo info;
    info.lib_cell = cell;
    info.bits = bits;
    const auto grid = [&](double pitch) {
      return pitch * static_cast<double>(rng.uniform_int(
                         0, static_cast<std::int64_t>(extent / pitch)));
    };
    double x = grid(0.19);
    double y = grid(1.8);
    if (rng.chance(0.15)) {
      x = rng.uniform_real(0.0, extent);
      y = rng.uniform_real(0.0, extent);
    }
    info.footprint = {x, y, x + cell->width, y + cell->height};
    const double cx = x + rng.uniform_real(-5.0, 5.0);
    const double cy = y + rng.uniform_real(-5.0, 5.0);
    const double half = rng.uniform_real(4.0, extent);
    info.region = {cx - half, cy - half, cx + half, cy + half};
    if (function.is_scan && sections > 0 && rng.chance(0.7)) {
      info.scan.partition = 0;
      info.scan.section = static_cast<int>(rng.uniform_int(0, sections - 1));
      info.scan.order = static_cast<int>(rng.uniform_int(0, 12));
    }
    out.graph.add_node(info);
  }
  // Subgraph: a sorted random subset of size `nodes`; the rest are strangers.
  std::vector<int> all(static_cast<std::size_t>(nodes + strangers));
  for (int i = 0; i < nodes + strangers; ++i)
    all[static_cast<std::size_t>(i)] = i;
  for (std::size_t i = all.size(); i > 1; --i)
    std::swap(all[i - 1], all[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(i) - 1))]);
  out.subgraph.assign(all.begin(), all.begin() + nodes);
  std::sort(out.subgraph.begin(), out.subgraph.end());
  for (int i = 0; i < nodes + strangers; ++i)
    for (int j = i + 1; j < nodes + strangers; ++j)
      if (rng.chance(edge_p)) out.graph.add_edge(i, j);
  out.graph.finalize();
  return out;
}

// Per candidate of `full` (an untruncated keep_dominated enumeration):
// whether it costs more than the singletons of its members that `full`
// holds.
std::vector<bool> dominated_mask(const EnumerationResult& full) {
  std::map<int, double> singleton_cost;
  for (const Candidate& c : full.candidates)
    if (c.is_singleton()) singleton_cost[c.nodes.front()] = c.weight;
  std::vector<bool> mask;
  mask.reserve(full.candidates.size());
  for (const Candidate& c : full.candidates) {
    double keep = 0.0;
    for (int m : c.nodes) {
      const auto it = singleton_cost.find(m);
      keep += it != singleton_cost.end()
                  ? it->second
                  : std::numeric_limits<double>::infinity();
    }
    mask.push_back(!c.is_singleton() && candidate_dominated(c.weight, keep));
  }
  return mask;
}

// `full` less its dominated candidates.
EnumerationResult without_dominated(const EnumerationResult& full) {
  const std::vector<bool> dominated = dominated_mask(full);
  EnumerationResult out;
  out.truncated = full.truncated;
  for (std::size_t i = 0; i < full.candidates.size(); ++i)
    if (!dominated[i]) out.candidates.push_back(full.candidates[i]);
  return out;
}

TEST(CandidatesOracle, MatchesReferenceOnRandomSubgraphs) {
  lib::DefaultLibraryOptions with3;
  with3.include_width_3 = true;
  lib::DefaultLibraryOptions no_per_bit;
  no_per_bit.per_bit_scan_variants = false;
  const lib::Library libraries[] = {lib::make_default_library(),
                                    lib::make_default_library(with3),
                                    lib::make_default_library(no_per_bit)};
  const lib::RegisterFunction functions[] = {{}, {.is_scan = true}};

  util::Rng rng(0x0c4ad1da7e5ULL);
  std::int64_t pruned = 0;
  std::int64_t truncated = 0;
  std::int64_t candidates = 0;
  std::int64_t pruned_default = 0;
  std::int64_t dominated = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const lib::Library& library =
        libraries[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const lib::RegisterFunction& function =
        functions[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    const RandomCase c = random_case(library, function, rng);

    EnumerationOptions options;
    options.allow_incomplete = rng.chance(0.7);
    options.use_weights = rng.chance(0.85);
    if (rng.chance(0.3)) options.incomplete_area_overhead = 10.0;
    if (rng.chance(0.3)) {
      options.cost.beta = 0.1;
      options.cost.gamma = 0.05;
    }
    if (rng.chance(0.2))
      options.max_candidates_per_subgraph =
          static_cast<std::size_t>(rng.uniform_int(1, 60));

    const BlockerIndex index(c.graph);
    // The full list, then the default one without dominated cliques.
    for (const bool keep_dominated : {true, false}) {
      options.keep_dominated = keep_dominated;
      const EnumerationResult got =
          enumerate_candidates(c.graph, library, index, c.subgraph, options);
      const EnumerationResult want =
          reference::enumerate(c.graph, library, c.subgraph, options);
      ASSERT_TRUE(same_enumeration(got, want))
          << "trial " << trial << " keep_dominated " << keep_dominated;
      EXPECT_LE(got.dropped_infinite_weight, want.dropped_infinite_weight);
      EXPECT_LE(got.dropped_infinite_weight + got.dominated,
                want.dropped_infinite_weight + want.dominated);
      if (keep_dominated) {
        EXPECT_EQ(got.dominated, 0);
        pruned += got.pruned_subtrees;
        truncated += got.truncated;
        candidates += static_cast<std::int64_t>(got.candidates.size());
      } else {
        pruned_default += got.pruned_subtrees;
        dominated += want.dominated;
      }
    }
  }
  // The trials must actually exercise the prune and the truncation guard,
  // and the default leg the dominance rule.
  EXPECT_GT(pruned, 0);
  EXPECT_GT(truncated, 0);
  EXPECT_GT(candidates, 0);
  EXPECT_GT(pruned_default, 0);
  EXPECT_GT(dominated, 0);
}

TEST(CandidatesOracle, PlantedHullPrunesSubtrees) {
  // Six mutually compatible 1-bit registers on the corners and edges of a
  // 40 um square; ten strangers sit in its middle, so the hull of any pair
  // of opposite registers already holds >= W = 8 of them and every clique
  // grown from such a pair is dropped.
  const lib::Library library = lib::make_default_library();
  const lib::RegisterCell* unit = library.cheapest_cell({}, 1);
  CompatibilityGraph graph;
  const auto add = [&](double x, double y) {
    RegisterInfo info;
    info.lib_cell = unit;
    info.bits = 1;
    info.footprint = {x, y, x + unit->width, y + unit->height};
    info.region = {-100.0, -100.0, 100.0, 100.0};
    return graph.add_node(info);
  };
  std::vector<int> subgraph;
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {0, 0}, {40, 40}, {0, 40}, {40, 0}, {20, 0}, {20, 40}})
    subgraph.push_back(add(x, y));
  for (int i = 0; i < 10; ++i) add(15.0 + i, 18.0 + 0.3 * i);
  for (std::size_t i = 0; i < subgraph.size(); ++i)
    for (std::size_t j = i + 1; j < subgraph.size(); ++j)
      graph.add_edge(subgraph[i], subgraph[j]);
  graph.finalize();

  const BlockerIndex index(graph);
  EnumerationOptions options;
  options.keep_dominated = true;
  const EnumerationResult got =
      enumerate_candidates(graph, library, index, subgraph, options);
  const EnumerationResult want =
      reference::enumerate(graph, library, subgraph, options);
  EXPECT_GT(got.pruned_subtrees, 0);
  EXPECT_LT(got.dropped_infinite_weight, want.dropped_infinite_weight);
  EXPECT_TRUE(same_enumeration(got, want));

  // Under the default options one blocker already prunes: the subtrees go
  // sooner, and fewer cliques are visited at all.
  const EnumerationResult pruned =
      enumerate_candidates(graph, library, index, subgraph, {});
  const EnumerationResult filtered =
      reference::enumerate(graph, library, subgraph, {});
  const auto visited = [](const EnumerationResult& r) {
    return static_cast<std::int64_t>(r.candidates.size()) +
           r.dropped_infinite_weight + r.dominated;
  };
  EXPECT_GT(pruned.pruned_subtrees, 0);
  EXPECT_GT(pruned.dominated, 0);
  EXPECT_LE(visited(pruned), visited(got));
  EXPECT_LE(pruned.hulls, got.hulls);
  EXPECT_TRUE(same_enumeration(pruned, filtered));
}

// Every subgraph of a generated design, enumerated both ways. The
// parameter is the profile name: D1-D5 (standard) and D1x4 (scaled).
class CandidatesOracleDesign : public ::testing::TestWithParam<std::string> {
protected:
  static benchgen::DesignProfile profile(const std::string& name) {
    std::vector<benchgen::DesignProfile> all = benchgen::standard_profiles();
    for (const benchgen::DesignProfile& p : benchgen::scaled_profiles(4))
      all.push_back(p);
    for (const benchgen::DesignProfile& p : all)
      if (p.name == name) return p;
    ADD_FAILURE() << "no profile " << name;
    return {};
  }
};

TEST_P(CandidatesOracleDesign, MatchesReferenceOnEverySubgraph) {
  const lib::Library library = lib::make_default_library();
  const benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, profile(GetParam()));
  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  const sta::TimingReport report = sta::run_sta(generated.design, timing);
  const CompositionOptions options;
  const CompatibilityGraph graph =
      build_compatibility_graph(generated.design, report, options.compatibility);
  const BlockerIndex index(graph);
  EnumerationOptions full = options.enumeration;
  full.keep_dominated = true;
  std::int64_t subgraphs = 0;
  std::int64_t pruned = 0;
  std::int64_t pruned_default = 0;
  for (const std::vector<int>& part :
       partition_graph(graph, generated.design, options.partition)) {
    const EnumerationResult got =
        enumerate_candidates(graph, library, index, part, full);
    const EnumerationResult want =
        reference::enumerate(graph, library, part, full);
    ASSERT_TRUE(same_enumeration(got, want)) << "subgraph " << subgraphs;
    // The default bound keeps every subgraph far below the candidate cap
    // (fewer than 65,536 candidates against 200,000): the truncation guard
    // exists for loaded designs, which are not bounded, not for these.
    ASSERT_FALSE(got.truncated) << "subgraph " << subgraphs;
    pruned += got.pruned_subtrees;
    // The planner's default list: the reference's, less dominated cliques.
    const EnumerationResult got_default = enumerate_candidates(
        graph, library, index, part, options.enumeration);
    ASSERT_TRUE(same_enumeration(got_default, without_dominated(want)))
        << "subgraph " << subgraphs << " (default options)";
    pruned_default += got_default.pruned_subtrees;
    ++subgraphs;
  }
  EXPECT_GT(subgraphs, 0);
  EXPECT_GT(pruned, 0);
  EXPECT_GT(pruned_default, 0);
}

INSTANTIATE_TEST_SUITE_P(Designs, CandidatesOracleDesign,
                         ::testing::Values("D1", "D2", "D3", "D4", "D5",
                                           "D1x4"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// ---------------------------------------------------------------------------
// Dominance oracle: dropping dominated cliques never moves the optimum.
// ---------------------------------------------------------------------------

TEST_F(WorkedExampleCandidates, DominatedBlockedRowsAreNotEnumerated) {
  // Fig. 3's three blocked rows (BC, ABC, BCF: n = 1) cost b * 2 against
  // singletons worth at most b, so the default enumeration leaves them out
  // and counts them; every other candidate is the full list's, in order.
  EnumerationOptions full_options;
  full_options.keep_dominated = true;
  const EnumerationResult full = enumerate(full_options);
  const obs::CountersSnapshot before = obs::counters_snapshot();
  const EnumerationResult pruned = enumerate();
  const obs::CountersSnapshot delta =
      obs::counters_delta(before, obs::counters_snapshot());

  std::set<std::string> gone;
  for (const Candidate& c : full.candidates) gone.insert(names(c.nodes));
  for (const Candidate& c : pruned.candidates) gone.erase(names(c.nodes));
  EXPECT_EQ(gone, (std::set<std::string>{"ABC", "BC", "BCF"}));
  EXPECT_TRUE(same_enumeration(pruned, without_dominated(full)));
  EXPECT_EQ(pruned.dominated, 3);
  EXPECT_EQ(full.dominated, 0);
  const auto it = delta.counters.find("mbr.candidates.dominated");
  ASSERT_NE(it, delta.counters.end());
  EXPECT_EQ(it->second, 3);
  // The selection is the same: the paper's 6 -> 3 registers.
  EXPECT_DOUBLE_EQ(mbr::solve_subgraph(subgraph, pruned.candidates).objective,
                   mbr::solve_subgraph(subgraph, full.candidates).objective);
}

// Enumerates `part` with and without dominated cliques, solves both lists
// and checks that the optimum is the same and that the full list's optimal
// solution holds no dominated clique. Solves that hit the node budget
// prove nothing and are only counted: the beta/gamma-heavy cost setting
// makes a few design subgraphs too hard to prove in test time.
struct OptimumTally {
  std::int64_t solves = 0;
  std::int64_t budget_hits = 0;
  std::int64_t dominated = 0;  // dominated cliques the planner never sees
  std::int64_t objectives_checked = 0;  // proven solves, objective bits checked
};

void expect_same_optimum(const CompatibilityGraph& graph,
                         const lib::Library& library,
                         const BlockerIndex& index,
                         const std::vector<int>& part,
                         EnumerationOptions options, OptimumTally& tally,
                         std::int64_t max_nodes = 5'000'000) {
  options.keep_dominated = true;
  const EnumerationResult full =
      enumerate_candidates(graph, library, index, part, options);
  options.keep_dominated = false;
  const EnumerationResult pruned =
      enumerate_candidates(graph, library, index, part, options);
  ASSERT_FALSE(full.truncated);
  ASSERT_TRUE(same_enumeration(pruned, without_dominated(full)));

  const ilp::SetPartitionOptions budget{.max_nodes = max_nodes};
  const ilp::SetPartitionResult a =
      solve_subgraph(part, full.candidates, budget);
  const ilp::SetPartitionResult b =
      solve_subgraph(part, pruned.candidates, budget);
  ASSERT_TRUE(a.feasible);
  ASSERT_TRUE(b.feasible);
  ++tally.solves;
  tally.dominated += static_cast<std::int64_t>(full.candidates.size() -
                                               pruned.candidates.size());
  if (a.nodes_explored > budget.max_nodes ||
      b.nodes_explored > budget.max_nodes) {
    ++tally.budget_hits;
    return;
  }
  // SetPartitionResult::objective is the chosen weights summed in `chosen`
  // order, bit for bit: no drift from the search's running cost.
  const auto chosen_cost = [](const ilp::SetPartitionResult& solved,
                              const EnumerationResult& list) {
    double sum = 0.0;
    for (int i : solved.chosen)
      sum += list.candidates[static_cast<std::size_t>(i)].weight;
    return sum;
  };
  const double want = chosen_cost(a, full);
  const double got = chosen_cost(b, pruned);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.objective),
            std::bit_cast<std::uint64_t>(want))
      << a.objective << " vs " << want;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.objective),
            std::bit_cast<std::uint64_t>(got))
      << b.objective << " vs " << got;
  ++tally.objectives_checked;
  EXPECT_LE(std::abs(got - want), 1e-12 * std::abs(want))
      << got << " vs " << want;
  const std::vector<bool> dominated = dominated_mask(full);
  for (int i : a.chosen)
    EXPECT_FALSE(dominated[static_cast<std::size_t>(i)])
        << "optimal solution selects a dominated clique";
}

// The three (alpha, beta, gamma) settings of bench/debank_convergence.cpp;
// the first is the default cost model.
const CostModel kDebankSettings[] = {
    {1.0, 0.0, 0.0}, {1.0, 0.3, 0.05}, {0.02, 1.0, 0.3}};

class DominanceOracleDesign : public ::testing::TestWithParam<std::string> {};

TEST_P(DominanceOracleDesign, OptimumDoesNotMoveOnEverySubgraph) {
  const lib::Library library = lib::make_default_library();
  std::vector<benchgen::DesignProfile> all = benchgen::standard_profiles();
  for (const benchgen::DesignProfile& p : benchgen::scenario_profiles())
    all.push_back(p);
  const auto profile = std::find_if(
      all.begin(), all.end(),
      [&](const benchgen::DesignProfile& p) { return p.name == GetParam(); });
  ASSERT_NE(profile, all.end()) << GetParam();
  const benchgen::GeneratedDesign generated =
      benchgen::generate_design(library, *profile);
  sta::TimingOptions timing;
  timing.clock_period = generated.calibrated_clock_period;
  const sta::TimingReport report = sta::run_sta(generated.design, timing);
  CompositionOptions options;
  const CompatibilityGraph graph =
      build_compatibility_graph(generated.design, report, options.compatibility);
  const BlockerIndex index(graph);
  OptimumTally tally;
  for (const int bound : {20, 30}) {
    options.partition.max_nodes = bound;
    for (const std::vector<int>& part :
         partition_graph(graph, generated.design, options.partition)) {
      for (const CostModel& cost : kDebankSettings) {
        options.enumeration.cost = cost;
        expect_same_optimum(graph, library, index, part, options.enumeration,
                            tally, 100'000);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(tally.solves, 0);
  EXPECT_GT(tally.dominated, 0);
  // Nearly every solve is proven optimal (D5: 62 of 3,156 hit the
  // budget).
  EXPECT_LE(tally.budget_hits * 50, tally.solves)
      << tally.budget_hits << " of " << tally.solves << " solves";
}

INSTANTIATE_TEST_SUITE_P(Designs, DominanceOracleDesign,
                         ::testing::Values("D1", "D2", "D3", "D4", "D5", "DM",
                                           "DP"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// Random subgraphs of up to 16 nodes: the optimum does not move without the
// dominated cliques, and each solve's objective is its chosen weights' sum,
// bit for bit, on all 400.
TEST(DominanceOracle, OptimumDoesNotMoveOnRandomSubgraphs) {
  lib::DefaultLibraryOptions with3;
  with3.include_width_3 = true;
  const lib::Library libraries[] = {lib::make_default_library(),
                                    lib::make_default_library(with3)};
  const lib::RegisterFunction functions[] = {{}, {.is_scan = true}};

  util::Rng rng(0xd0a11a7edULL);
  OptimumTally tally;
  for (int trial = 0; trial < 400; ++trial) {
    const lib::Library& library =
        libraries[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    const lib::RegisterFunction& function =
        functions[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    // At most 16 nodes: every list stays below the candidate cap and every
    // solve within the node budget, so both optima are proven.
    const RandomCase c = random_case(library, function, rng, 16);

    EnumerationOptions options;
    options.allow_incomplete = rng.chance(0.7);
    options.use_weights = rng.chance(0.85);
    if (rng.chance(0.3)) options.incomplete_area_overhead = 10.0;
    options.cost = kDebankSettings[static_cast<std::size_t>(
        rng.uniform_int(0, 2))];
    const BlockerIndex index(c.graph);
    SCOPED_TRACE("trial " + std::to_string(trial));
    expect_same_optimum(c.graph, library, index, c.subgraph, options, tally);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(tally.solves, 400);
  EXPECT_GT(tally.dominated, 0);
  EXPECT_EQ(tally.budget_hits, 0);
  EXPECT_EQ(tally.objectives_checked, 400);
}

}  // namespace
}  // namespace mbrc::mbr
