#include "mbr/candidates.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
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

bool candidate_dominated(double cost, double keep) {
  return cost > keep + 1e-9 * std::abs(keep);
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

void BlockerIndex::query(const geom::Rect& box, std::vector<Entry>& out) const {
  if (box.is_empty()) return;
  const auto take = [&](const std::vector<Entry>& bin) {
    for (const Entry& e : bin)
      if (box.contains(e.center)) out.push_back(e);
  };
  const auto lo_x = static_cast<std::int64_t>(std::floor(box.xlo / bin_size_));
  const auto hi_x = static_cast<std::int64_t>(std::floor(box.xhi / bin_size_));
  const auto lo_y = static_cast<std::int64_t>(std::floor(box.ylo / bin_size_));
  const auto hi_y = static_cast<std::int64_t>(std::floor(box.yhi / bin_size_));
  // A box wider than the occupied bins walks the bins, not the box.
  if (static_cast<double>(hi_x - lo_x + 1) * static_cast<double>(hi_y - lo_y + 1) >
      static_cast<double>(bins_.size())) {
    for (const auto& [bin_key, bin] : bins_) take(bin);
    return;
  }
  for (auto bx = lo_x; bx <= hi_x; ++bx) {
    for (auto by = lo_y; by <= hi_y; ++by) {
      const auto it = bins_.find((bx << 32) ^ (by & 0xffffffff));
      if (it != bins_.end()) take(it->second);
    }
  }
}

namespace {

// Ordered-section rules of Sec. 2 over `count` members whose ScanInfo
// `scan_of(i)` returns; `orders` is scratch space.
template <typename ScanOf>
bool needs_per_bit_scan(std::size_t count, ScanOf scan_of,
                        std::vector<int>& orders) {
  // Collect the ordered-section memberships.
  int section = -2;  // -2: none seen yet
  orders.clear();
  bool mixed_sections = false;
  for (std::size_t i = 0; i < count; ++i) {
    const netlist::ScanInfo& scan = scan_of(i);
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
  if (orders.size() != count)
    return true;  // ordered and free registers mixed: chain exits and re-enters
  // Single section: an internal chain preserves the order only when the
  // member orders form one contiguous run of the section.
  std::sort(orders.begin(), orders.end());
  for (std::size_t i = 1; i < orders.size(); ++i)
    if (orders[i] != orders[i - 1] + 1) return true;
  return false;
}

}  // namespace

bool candidate_needs_per_bit_scan(const CompatibilityGraph& graph,
                                  const std::vector<int>& members) {
  std::vector<int> orders;
  return needs_per_bit_scan(
      members.size(),
      [&](std::size_t i) -> const netlist::ScanInfo& {
        return graph.node(members[i]).scan;
      },
      orders);
}

namespace {

// The order convex_hull sorts its points in.
bool corner_less(const geom::Point& a, const geom::Point& b) {
  return a.x < b.x || (a.x == b.x && a.y < b.y);
}

// Blockers count toward a subtree bound only when they clear every hull
// edge line by this distance (um); see DESIGN.md §5.
constexpr double kPruneMargin = 1e-4;

struct Enumerator {
  const CompatibilityGraph& graph;
  const lib::Library& library;
  const BlockerIndex& blockers;
  const EnumerationOptions& options;

  std::vector<int> nodes;              // subgraph, ascending graph indices
  const std::vector<int>* widths = nullptr;  // ascending library widths
  int max_width = 0;
  std::vector<const lib::RegisterCell*> cheapest{};  // per entry of widths
  lib::RegisterFunction function{};
  bool has_per_bit_scan_cells = false;

  EnumerationResult result{};

  // Per local node, flat: the inner loop reads these, not the ~150-byte
  // RegisterInfo records scattered through the graph's node table.
  std::vector<std::uint64_t> adjacency{};  // local masks
  std::vector<int> node_bits{};
  std::vector<geom::Rect> node_region{};
  std::vector<geom::Rect> node_footprint{};
  std::vector<const netlist::ScanInfo*> node_scan{};
  std::vector<double> node_keep{};  // singleton_candidate(node).weight

  // Every BlockerIndex entry inside the subgraph's footprint box, by x;
  // `local` is the entry's subgraph index or -1.
  struct Blocker {
    geom::Point center;
    int local;
  };
  std::vector<Blocker> blocker_list{};

  // One frame per DFS depth: frames[d] describes the clique of d members.
  struct Frame {
    std::uint64_t members = 0;
    std::uint64_t common = 0;  // local nodes adjacent to every member
    int bits = 0;
    geom::Rect region;   // intersection of the member regions
    geom::Rect box;      // bounding box of the member footprints
    std::vector<geom::Point> corners;  // footprint corners, sorted, distinct
    // A lower bound on the blockers of this clique and every superset the
    // DFS can reach from it: `floor` blockers of this clique or of an
    // ancestor that stay strictly inside every larger hull, minus those
    // that joined. `floor_mask` holds the ones that are subgraph nodes and
    // so may still join. Unset until some hull on the path was built.
    bool has_floor = false;
    int floor = 0;
    std::uint64_t floor_mask = 0;
    double keep = 0.0;  // the members' singleton costs, summed in order
  };
  std::vector<Frame> frames{};

  // Scratch reused by every emit.
  std::vector<int> members_local{};
  std::vector<int> member_nodes{};
  std::vector<int> scan_orders{};
  std::vector<geom::Point> hull{};
  std::vector<double> edge_margin{};
  std::vector<int> width_count{};

  std::int64_t hulls = 0;
  std::int64_t pruned_subtrees = 0;

  // Under the paper weight (alpha > 0, no power/area terms) a blocked
  // clique costs alpha * b * 2^n >= 2 * alpha * b, while its singletons
  // cost alpha * sum(1/b_i) <= alpha * b: one blocker already dominates
  // (DESIGN.md §5). `drop_floor` is then 1, else b (w = infinity).
  bool blocker_dominates = false;
  int drop_floor(int bits) const { return blocker_dominates ? 1 : bits; }

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

  // Sets `out` to `from` merged with the corners of `r`: the sorted,
  // de-duplicated sequence convex_hull would build from all of them.
  static void merge_corners(const std::vector<geom::Point>& from,
                            const geom::Rect& r,
                            std::vector<geom::Point>& out) {
    geom::Point add[4] = {
        {r.xlo, r.ylo}, {r.xlo, r.yhi}, {r.xhi, r.ylo}, {r.xhi, r.yhi}};
    for (int i = 1; i < 4; ++i)  // insertion sort: a no-op unless xlo == xhi
      for (int j = i; j > 0 && corner_less(add[j], add[j - 1]); --j)
        std::swap(add[j], add[j - 1]);
    out.clear();
    std::size_t a = 0;
    int b = 0;
    const auto push = [&](const geom::Point& p) {
      if (out.empty() || !(out.back() == p)) out.push_back(p);
    };
    while (a < from.size() || b < 4) {
      if (b == 4 || (a < from.size() && !corner_less(add[b], from[a]))) {
        push(from[a++]);
      } else {
        push(add[b++]);
      }
    }
  }

  // Counts the blockers strictly inside the hull of frame `f` (what
  // convex_contains_strict decides), and stores in `f` the robust ones that
  // bound every superset (DESIGN.md §5) when they beat the inherited floor.
  // Stops at 2W - bits robust blockers: the clique is dropped by then, and
  // no prune in its subtree asks for a higher floor (subtree_dropped needs
  // at most bits + 2 * (W - bits)). When one blocker dominates, the subtree
  // needs floor - k >= 1 with k <= W - bits, so the count stops at
  // 1 + W - bits robust blockers, or at the first robust one no extension
  // can absorb (a stranger, or a node outside the later common
  // neighbours): that one blocks every clique below.
  int count_blockers(Frame& f) {
    ++hulls;
    geom::convex_hull_of_sorted(f.corners, hull);
    const std::size_t h = hull.size();
    if (h < 3) return 0;  // a segment or a point contains nothing strictly
    hull.push_back(hull.front());  // edge i runs hull[i] -> hull[i + 1]
    edge_margin.resize(h);
    for (std::size_t i = 0; i < h; ++i)
      edge_margin[i] = kPruneMargin * (std::abs(hull[i + 1].x - hull[i].x) +
                                       std::abs(hull[i + 1].y - hull[i].y));
    const int enough =
        blocker_dominates ? 1 + max_width - f.bits : 2 * max_width - f.bits;
    const int last = 63 - std::countl_zero(f.members);
    const std::uint64_t may_join =
        last >= 63 ? 0 : f.common & (~std::uint64_t{0} << (last + 1));
    bool settled = false;
    int count = 0;
    int robust = 0;
    std::uint64_t robust_mask = 0;
    const auto first = std::lower_bound(
        blocker_list.begin(), blocker_list.end(), f.box.xlo,
        [](const Blocker& e, double x) { return e.center.x < x; });
    for (auto it = first; it != blocker_list.end() &&
                          it->center.x <= f.box.xhi && robust < enough &&
                          !settled;
         ++it) {
      const geom::Point& p = it->center;
      if (p.y < f.box.ylo || p.y > f.box.yhi) continue;
      if (it->local >= 0 && (f.members >> it->local & 1)) continue;
      // convex_contains_strict's test, edge by edge, and the margin test.
      bool inside = true;
      bool clears = true;
      for (std::size_t i = 0; i < h && inside; ++i) {
        const double c = geom::cross(hull[i], hull[i + 1], p);
        inside = c >= geom::kHullEps;
        clears = clears && c >= edge_margin[i];
      }
      if (!inside) continue;
      ++count;
      if (!clears) continue;
      ++robust;
      if (it->local >= 0) robust_mask |= std::uint64_t{1} << it->local;
      settled = blocker_dominates &&
                (it->local < 0 || !(may_join >> it->local & 1));
    }
    if (!f.has_floor || robust >= f.floor) {
      f.has_floor = true;
      f.floor = robust;
      f.floor_mask = robust_mask;
    }
    return count;
  }

  void emit(int depth) {
    if (result.candidates.size() >= options.max_candidates_per_subgraph) {
      result.truncated = true;
      return;
    }
    Frame& f = frames[static_cast<std::size_t>(depth)];
    const int bits = f.bits;
    member_nodes.clear();  // ascending: local order is graph order
    for (int l : members_local) member_nodes.push_back(nodes[l]);
    const std::size_t size = member_nodes.size();

    // The narrowest library width holding `bits`: equal for a complete
    // MBR, wider for an incomplete one.
    const auto at = std::lower_bound(widths->begin(), widths->end(), bits);
    if (at == widths->end()) return;  // no cell that wide
    const int mapped_width = *at;
    const lib::RegisterCell* merged_cell =
        cheapest[static_cast<std::size_t>(at - widths->begin())];
    if (mapped_width != bits) {
      if (!options.allow_incomplete || size < 2) return;
      // Sec. 3: the incomplete MBR's area per (physical) bit must be below
      // the average area per bit of the registers it replaces.
      double replaced_area = 0.0;
      for (int m : member_nodes) replaced_area += graph.node(m).lib_cell->area;
      const double avg_per_bit = replaced_area / bits;
      if (merged_cell->area / merged_cell->bits >= avg_per_bit) return;
      // Flow-level 5% rule, applied eagerly with the cheapest cell so the
      // ILP never selects a candidate doomed at mapping time.
      if (merged_cell->area >
          replaced_area * (1.0 + options.incomplete_area_overhead))
        return;
    }

    const bool per_bit_scan = needs_per_bit_scan(
        size,
        [&](std::size_t i) -> const netlist::ScanInfo& {
          return *node_scan[static_cast<std::size_t>(members_local[i])];
        },
        scan_orders);
    if (per_bit_scan && size > 1 && !has_per_bit_scan_cells)
      return;  // required scan style not in the library

    int n_blockers = 0;
    double weight = 1.0;
    if (options.use_weights) {
      // A floor at or above drop_floor already drops the clique: the hull
      // is not needed to know it.
      if (size >= 2 && !(f.has_floor && f.floor >= drop_floor(bits)))
        n_blockers = count_blockers(f);
      else if (size >= 2)
        n_blockers = f.floor;
      weight = candidate_weight(bits, n_blockers);
      if (!std::isfinite(weight)) {
        // n >= b: dropped (w = infinity). Tallied locally and flushed to
        // the flow.candidates.dropped_infinite_weight counter once per
        // subgraph, so the coverage loss is visible in flow_report.json.
        ++result.dropped_infinite_weight;
        return;
      }
    }
    // The physical outcome the cost model prices: a keep-as-is singleton
    // keeps its own cell, a merge creates (at least) the cheapest cell of
    // the mapped width (the mapper's stand-in, matching the incomplete-MBR
    // area rule's convention). Null for hand-built graphs whose nodes carry
    // no library cell -- pricing then skips the beta/gamma terms.
    weight = options.cost.candidate_cost(
        weight, size == 1 ? graph.node(member_nodes.front()).lib_cell
                          : merged_cell);
    if (size >= 2 && !options.keep_dominated &&
        candidate_dominated(weight, f.keep)) {
      ++result.dominated;
      return;
    }

    Candidate candidate;
    candidate.nodes = member_nodes;
    candidate.bits = bits;
    candidate.mapped_width = mapped_width;
    candidate.blockers = n_blockers;
    candidate.weight = weight;
    candidate.needs_per_bit_scan = per_bit_scan;
    candidate.common_region = f.region;
    result.candidates.push_back(std::move(candidate));
  }

  // Fills frames[depth + 1] with frames[depth] plus local node v.
  void extend(int depth, int v, int bits, const geom::Rect& region) {
    if (frames.size() <= static_cast<std::size_t>(depth + 1))
      frames.resize(static_cast<std::size_t>(depth + 2));
    const Frame& f = frames[static_cast<std::size_t>(depth)];
    Frame& child = frames[static_cast<std::size_t>(depth + 1)];
    const std::uint64_t bit = std::uint64_t{1} << v;
    const auto lv = static_cast<std::size_t>(v);
    child.members = f.members | bit;
    child.common = f.common & adjacency[lv];
    child.bits = bits;
    child.region = region;
    child.box = f.box.unite(node_footprint[lv]);
    if (options.use_weights)
      merge_corners(f.corners, node_footprint[lv], child.corners);
    child.has_floor = f.has_floor;
    child.floor = f.floor - ((f.floor_mask & bit) ? 1 : 0);
    child.floor_mask = f.floor_mask & ~bit;
    child.keep = f.keep + node_keep[lv];
  }

  // True when every extension S u T of frame f's clique S, T drawn from
  // `reach`, has n >= drop_floor(b). T adds at most min(W - bits(S),
  // reach_bits) bits, and at most k floor blockers can join it: the most
  // nodes of floor_mask & reach that fit in room = W - bits(S), narrowest
  // first. So n(S u T) >= floor - k and b(S u T) <= bits(S) + min(room,
  // reach_bits).
  bool subtree_dropped(const Frame& f, std::uint64_t reach, int reach_bits) {
    const int room = max_width - f.bits;
    const int need = drop_floor(f.bits + std::min(room, reach_bits));
    if (f.floor < need) return false;
    const std::uint64_t joinable = f.floor_mask & reach;
    if (f.floor - std::popcount(joinable) >= need) return true;
    width_count.assign(static_cast<std::size_t>(room) + 1, 0);
    for (std::uint64_t m = joinable; m != 0; m &= m - 1)
      ++width_count[static_cast<std::size_t>(
          node_bits[static_cast<std::size_t>(std::countr_zero(m))])];
    int k = width_count[0];
    int left = room;
    for (int b = 1; b <= left; ++b) {
      const int take = std::min(width_count[static_cast<std::size_t>(b)], left / b);
      k += take;
      left -= take * b;
    }
    return f.floor - k >= need;
  }

  void dfs(int depth, int last_local) {
    if (result.candidates.size() >= options.max_candidates_per_subgraph) {
      result.truncated = true;
      return;
    }
    const Frame& f = frames[static_cast<std::size_t>(depth)];
    // The nodes any extension can draw from: later, adjacent to every
    // member (clique property), narrow enough, and sharing the region.
    const std::uint64_t later =
        last_local >= 63 ? 0 : ~std::uint64_t{0} << (last_local + 1);
    std::uint64_t reach = 0;
    int reach_bits = 0;
    for (std::uint64_t m = f.common & later; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const auto lv = static_cast<std::size_t>(v);
      if (f.bits + node_bits[lv] > max_width) continue;
      if (f.region.intersect(node_region[lv]).is_empty()) continue;
      reach |= std::uint64_t{1} << v;
      reach_bits += node_bits[lv];
    }
    if (reach == 0) return;
    if (f.has_floor && subtree_dropped(f, reach, reach_bits)) {
      ++pruned_subtrees;
      return;
    }

    for (std::uint64_t m = reach; m != 0; m &= m - 1) {
      const int v = std::countr_zero(m);
      const auto lv = static_cast<std::size_t>(v);
      const Frame& parent = frames[static_cast<std::size_t>(depth)];
      extend(depth, v, parent.bits + node_bits[lv],
             parent.region.intersect(node_region[lv]));
      members_local.push_back(v);
      emit(depth + 1);
      dfs(depth + 1, v);
      members_local.pop_back();
      if (result.truncated) return;
    }
  }

  void collect_blockers() {
    geom::Rect box = geom::Rect::empty();
    for (const geom::Rect& r : node_footprint) box = box.unite(r);
    std::vector<BlockerIndex::Entry> entries;
    blockers.query(box, entries);
    blocker_list.clear();
    blocker_list.reserve(entries.size());
    for (const BlockerIndex::Entry& e : entries) {
      const auto it = std::lower_bound(nodes.begin(), nodes.end(), e.node);
      const bool local = it != nodes.end() && *it == e.node;
      blocker_list.push_back(
          {e.center, local ? static_cast<int>(it - nodes.begin()) : -1});
    }
    // By x for the per-hull range scan; the count does not depend on the
    // order among equal x.
    std::sort(blocker_list.begin(), blocker_list.end(),
              [](const Blocker& a, const Blocker& b) {
                if (a.center.x != b.center.x) return a.center.x < b.center.x;
                if (a.center.y != b.center.y) return a.center.y < b.center.y;
                return a.local < b.local;
              });
  }

  void run() {
    const int n = static_cast<int>(nodes.size());
    MBRC_ASSERT_MSG(n <= kMaxSubgraphNodes, "subgraph larger than 64 nodes");
    MBRC_ASSERT_MSG(std::adjacent_find(nodes.begin(), nodes.end(),
                                       std::greater_equal<>()) == nodes.end(),
                    "subgraph nodes must be strictly ascending");
    if (n == 0) return;

    function = graph.node(nodes.front()).lib_cell->function;
    widths = &library.available_widths(function);
    MBRC_ASSERT_MSG(!widths->empty(), "composable register with no widths");
    max_width = widths->back();

    for (int width : *widths) {
      cheapest.push_back(library.cheapest_cell(function, width));
      if (!library.drive_variants(function, width, lib::ScanStyle::kPerBitPins)
               .empty())
        has_per_bit_scan_cells = true;
    }

    // Local adjacency masks by merging each node's sorted neighbor list
    // against the sorted subgraph (O(degree + n) per node) instead of the
    // n^2/2 has_edge binary searches this replaces.
    const auto un = static_cast<std::size_t>(n);
    adjacency.assign(un, 0);
    node_bits.resize(un);
    node_region.resize(un);
    node_footprint.resize(un);
    node_scan.resize(un);
    node_keep.resize(un);
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
      const auto li = static_cast<std::size_t>(i);
      adjacency[li] = mask;
      const RegisterInfo& info = graph.node(nodes[i]);
      node_bits[li] = info.bits;
      node_region[li] = info.region;
      node_footprint[li] = info.footprint;
      node_scan[li] = &info.scan;
      node_keep[li] = singleton_candidate(nodes[i]).weight;
    }
    if (options.use_weights) collect_blockers();
    blocker_dominates = options.use_weights && !options.keep_dominated &&
                        options.cost.alpha > 0.0 &&
                        !options.cost.multi_objective();

    // Singletons first (always feasible cover), then the DFS over cliques
    // of size >= 2 starting at each node.
    frames.resize(2);
    for (int v = 0; v < n; ++v) {
      const auto lv = static_cast<std::size_t>(v);
      Frame& f = frames[1];
      f.members = std::uint64_t{1} << v;
      f.common = adjacency[lv];
      f.bits = node_bits[lv];
      f.region = node_region[lv];
      f.box = node_footprint[lv];
      if (options.use_weights)
        merge_corners({}, node_footprint[lv], f.corners);
      f.has_floor = false;
      f.keep = node_keep[lv];
      members_local.assign(1, v);
      emit(1);
      dfs(1, v);
      members_local.clear();
    }

    // Truncation guard: the set-partitioning ILP needs a singleton per node
    // to stay feasible. If the candidate cap cut enumeration short, append
    // any singletons that were lost (no effect on non-truncated runs).
    if (result.truncated) {
      std::vector<bool> has_singleton(un, false);
      for (const Candidate& c : result.candidates)
        if (c.nodes.size() == 1)
          for (int v = 0; v < n; ++v)
            if (nodes[v] == c.nodes.front()) has_singleton[v] = true;
      for (int v = 0; v < n; ++v) {
        if (has_singleton[v]) continue;
        result.candidates.push_back(singleton_candidate(nodes[v]));
      }
    }
    result.hulls = hulls;
    result.pruned_subtrees = pruned_subtrees;
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
  static obs::Counter& c_pruned =
      obs::counter("mbr.candidates.pruned_subtrees");
  static obs::Counter& c_hulls = obs::counter("mbr.candidates.hulls");
  static obs::Counter& c_dominated =
      obs::counter("mbr.candidates.dominated");
  static obs::Histogram& h_per =
      obs::histogram("mbr.candidates.per_subgraph");
  const EnumerationResult& result = enumerator.result;
  c_calls.add(1);
  c_found.add(static_cast<std::int64_t>(result.candidates.size()));
  c_dropped.add(result.dropped_infinite_weight);
  c_pruned.add(result.pruned_subtrees);
  c_hulls.add(result.hulls);
  c_dominated.add(result.dominated);
  h_per.record(static_cast<std::int64_t>(result.candidates.size()));
  return std::move(enumerator.result);
}

}  // namespace mbrc::mbr
