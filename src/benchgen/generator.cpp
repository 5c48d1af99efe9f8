#include "benchgen/generator.hpp"

#include <algorithm>
#include <cmath>

#include "mbr/rewire.hpp"
#include "place/legalizer.hpp"
#include "sta/sta.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mbrc::benchgen {

namespace {

using netlist::CellId;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

struct ClusterSpec {
  geom::Point center;
  int function_index = 0;  // into the class table below
  int clock_domain = 0;
  int gating_group = 0;
  int scan_partition = -1;
  int logic_depth = 2;               // shared cone depth: slack coherence
  int width = 1;                     // register banks hold words of one width
  double y_sigma = 2.2;              // strip-like bank vs 2-D blob
  std::vector<int> source_clusters;  // where this cluster's data comes from
  std::vector<CellId> registers;
};

// Functional classes used by the generator, with their sampling weight.
struct ClassSpec {
  lib::RegisterFunction function;
  double weight;
};

const std::vector<ClassSpec>& class_table() {
  static const std::vector<ClassSpec> table = {
      {{}, 0.30},
      {{.has_reset = true}, 0.30},
      {{.has_reset = true, .has_enable = true}, 0.15},
      {{.is_scan = true}, 0.15},
      {{.has_reset = true, .is_scan = true}, 0.10},
  };
  return table;
}

int sample_class(util::Rng& rng) {
  double total = 0.0;
  for (const ClassSpec& c : class_table()) total += c.weight;
  double draw = rng.uniform_real(0.0, total);
  for (std::size_t i = 0; i < class_table().size(); ++i) {
    draw -= class_table()[i].weight;
    if (draw <= 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(class_table().size()) - 1;
}

int sample_width(util::Rng& rng, const std::map<int, double>& mix) {
  double total = 0.0;
  for (const auto& [w, f] : mix) total += f;
  double draw = rng.uniform_real(0.0, total);
  for (const auto& [w, f] : mix) {
    draw -= f;
    if (draw <= 0.0) return w;
  }
  return mix.rbegin()->first;
}

// Picks the register cell of (function, width) with the sampled drive
// strength (X1-heavy) from the base-scan-style family, weakest first.
const lib::RegisterCell* sample_register_cell(util::Rng& rng,
                                              const lib::Library& library,
                                              const lib::RegisterFunction& f,
                                              int width) {
  const auto cells =
      library.drive_variants(f, width, lib::base_scan_style(f));
  MBRC_ASSERT_MSG(!cells.empty(), "library lacks a register class/width");
  const double draw = rng.uniform_real(0.0, 1.0);
  const std::size_t index = draw < 0.80 ? 0 : (draw < 0.95 ? 1 : 2);
  return cells[std::min(index, cells.size() - 1)];
}

// For every cluster, the `pool` nearest clusters by manhattan center
// distance (the cluster itself included, at distance zero). An
// expanding-ring search over a uniform bucket grid finds them in roughly
// linear total time -- scaled profiles reach tens of thousands of clusters,
// where a full sort per cluster (C^2 log C comparisons) would dominate
// generation. Ties on distance are broken by cluster index.
std::vector<std::vector<int>> nearest_cluster_pools(
    const std::vector<ClusterSpec>& clusters, double core_w, double core_h,
    int pool) {
  const int cluster_count = static_cast<int>(clusters.size());
  std::vector<std::vector<int>> pools(clusters.size());
  MBRC_ASSERT(pool >= 1 && pool <= cluster_count);

  // Bucket grid with ~one cluster per bucket.
  const int grid = std::max(
      1, static_cast<int>(std::sqrt(static_cast<double>(cluster_count))));
  const double cell_w = std::max(core_w, 1e-9) / grid;
  const double cell_h = std::max(core_h, 1e-9) / grid;
  const auto bucket_x = [&](double x) {
    return std::clamp(static_cast<int>(x / cell_w), 0, grid - 1);
  };
  const auto bucket_y = [&](double y) {
    return std::clamp(static_cast<int>(y / cell_h), 0, grid - 1);
  };
  std::vector<std::vector<int>> buckets(
      static_cast<std::size_t>(grid) * grid);
  for (int k = 0; k < cluster_count; ++k)
    buckets[static_cast<std::size_t>(bucket_y(clusters[k].center.y)) * grid +
            bucket_x(clusters[k].center.x)]
        .push_back(k);

  std::vector<std::pair<double, int>> best;  // (distance, index), ascending
  for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
    const geom::Point center = clusters[ci].center;
    const int cx = bucket_x(center.x);
    const int cy = bucket_y(center.y);
    best.clear();
    for (int ring = 0; ring < 2 * grid; ++ring) {
      bool visited_any = false;
      for (int by = cy - ring; by <= cy + ring; ++by) {
        if (by < 0 || by >= grid) continue;
        // Ring cells only: full row on the top/bottom edge, two cells else.
        const int step =
            (by == cy - ring || by == cy + ring) ? 1 : std::max(1, 2 * ring);
        for (int bx = cx - ring; bx <= cx + ring; bx += step) {
          if (bx < 0 || bx >= grid) continue;
          visited_any = true;
          for (int k :
               buckets[static_cast<std::size_t>(by) * grid + bx])
            best.emplace_back(geom::manhattan(clusters[k].center, center), k);
        }
      }
      std::sort(best.begin(), best.end());
      if (static_cast<int>(best.size()) > pool)
        best.resize(static_cast<std::size_t>(pool));
      // Everything beyond ring r sits at least (r * min cell extent) away;
      // once the pool's worst member beats that bound, no further ring can
      // improve it.
      const double ring_floor = ring * std::min(cell_w, cell_h);
      if (static_cast<int>(best.size()) == pool &&
          best.back().first < ring_floor)
        break;
      if (!visited_any && ring > 0) break;  // ring left the grid entirely
    }
    pools[ci].reserve(static_cast<std::size_t>(pool));
    for (const auto& [distance, k] : best) pools[ci].push_back(k);
  }
  return pools;
}

struct Builder {
  const lib::Library& library;
  const DesignProfile& profile;
  util::Rng rng;

  Builder(const lib::Library& lib, const DesignProfile& prof)
      : library(lib), profile(prof), rng(prof.seed) {}

  // Pre-sampled register plan entries.
  struct RegisterPlan {
    const lib::RegisterCell* cell;
    int cluster;
  };

  GeneratedDesign build() {
    // --- sample clusters and registers -------------------------------
    const int cluster_count =
        std::max(1, profile.register_cells * profile.clusters_per_1000_regs /
                        1000);
    std::vector<ClusterSpec> clusters(cluster_count);
    for (ClusterSpec& c : clusters) {
      c.function_index = sample_class(rng);
      c.clock_domain =
          static_cast<int>(rng.uniform_int(0, profile.clock_domains - 1));
      c.gating_group =
          static_cast<int>(rng.uniform_int(0, profile.gating_groups - 1));
      if (class_table()[c.function_index].function.is_scan)
        c.scan_partition =
            static_cast<int>(rng.uniform_int(0, profile.scan_partitions - 1));
      c.width = sample_width(rng, profile.width_mix);
      // Roughly half the banks are neat row strips, the rest 2-D pockets --
      // mixed geometry is where exact allocation beats greedy tiling.
      c.y_sigma = rng.chance(0.55) ? 2.2 : 5.5;
      if (rng.chance(profile.deep_cluster_fraction)) {
        c.logic_depth = static_cast<int>(rng.uniform_int(
            profile.deep_depth_min, profile.deep_depth_max));
      } else {
        c.logic_depth = 1;
        while (c.logic_depth < profile.max_shallow_depth &&
               rng.chance(profile.cone_extend_probability))
          ++c.logic_depth;
      }
    }

    std::vector<RegisterPlan> plans;
    plans.reserve(profile.register_cells);
    double register_area = 0.0;
    for (int i = 0; i < profile.register_cells; ++i) {
      const int cluster =
          static_cast<int>(rng.uniform_int(0, cluster_count - 1));
      const lib::RegisterFunction f =
          class_table()[clusters[cluster].function_index].function;
      // Banks are width-homogeneous (a word stored as N k-bit MBRs), with a
      // little contamination from nearby miscellaneous registers.
      const int width = rng.chance(0.85) ? clusters[cluster].width
                                         : sample_width(rng, profile.width_mix);
      const lib::RegisterCell* cell =
          sample_register_cell(rng, library, f, width);
      register_area += cell->area;
      plans.push_back({cell, cluster});
    }

    const int comb_budget = static_cast<int>(
        profile.register_cells * profile.comb_per_register);
    const double avg_comb_area = 1.6;
    const double total_area =
        (register_area + comb_budget * avg_comb_area) /
        profile.core_utilization;
    const double core_w = std::sqrt(total_area * profile.core_aspect);
    const double core_h = total_area / core_w;
    const geom::Rect core{0.0, 0.0, core_w, core_h};

    GeneratedDesign out{Design(&library, core), 0.0};
    Design& design = out.design;
    place::RowGrid grid(core);

    // Cluster centers away from the boundary.
    for (ClusterSpec& c : clusters) {
      c.center = {rng.uniform_real(core_w * 0.05, core_w * 0.95),
                  rng.uniform_real(core_h * 0.05, core_h * 0.95)};
    }

    // Data flows between nearby cluster pairs, the way pipeline stages feed
    // each other in a placed design: registers of one cluster then see
    // similar path lengths and end up with similar slacks (timing
    // compatibility), and wiring stays local (realistic congestion).
    // Only the `pool` nearest clusters are ever drawn from, so the pools are
    // computed before the rng draws (neighbor search consumes no rng either
    // way, keeping the stream identical across both search strategies).
    const int pool = std::min<int>(cluster_count, 5);
    const std::vector<std::vector<int>> near_pools =
        nearest_cluster_pools(clusters, core_w, core_h, pool);
    for (int ci = 0; ci < cluster_count; ++ci) {
      ClusterSpec& c = clusters[ci];
      const int fanin = rng.chance(0.75) ? 1 : 2;
      for (int s = 0; s < fanin; ++s)
        c.source_clusters.push_back(near_pools[static_cast<std::size_t>(ci)]
            [static_cast<std::size_t>(rng.uniform_int(0, pool - 1))]);
    }

    // --- clock, control and scan-enable infrastructure ----------------
    std::vector<NetId> clock_nets(profile.clock_domains);
    for (int d = 0; d < profile.clock_domains; ++d) {
      clock_nets[d] = design.create_net(/*is_clock=*/true);
      const CellId port = design.add_port("clk" + std::to_string(d), true,
                                          {0.0, core_h / 2});
      design.connect(design.cell(port).pins.front(), clock_nets[d]);
    }

    // Control nets shared per (domain, gating group): this is what makes
    // registers of different clusters functionally compatible.
    const auto control_driver = [&](const std::string& name) {
      const lib::CombCell* inv = library.comb_by_name("INV_X4");
      const geom::Point target{rng.uniform_real(0.0, core_w),
                               rng.uniform_real(0.0, core_h)};
      const auto spot = grid.find_nearest_free(target, inv->width);
      MBRC_ASSERT(spot.has_value());
      const CellId cell = design.add_comb(name, inv, *spot);
      grid.occupy(grid.row_of(spot->y), spot->x, inv->width);
      const NetId net = design.create_net();
      design.connect(design.cell(cell).pins.back(), net);  // output pin
      return net;
    };

    struct ControlNets {
      NetId reset, set, enable;
    };
    std::vector<ControlNets> controls(
        static_cast<std::size_t>(profile.clock_domains) *
        profile.gating_groups);
    for (int d = 0; d < profile.clock_domains; ++d) {
      for (int g = 0; g < profile.gating_groups; ++g) {
        auto& c = controls[d * profile.gating_groups + g];
        const std::string tag = std::to_string(d) + "_" + std::to_string(g);
        c.reset = control_driver("rst_drv" + tag);
        c.set = control_driver("set_drv" + tag);
        c.enable = control_driver("en_drv" + tag);
      }
    }
    std::vector<NetId> scan_enable(profile.scan_partitions);
    for (int p = 0; p < profile.scan_partitions; ++p)
      scan_enable[p] = control_driver("se_drv" + std::to_string(p));

    // --- place registers cluster by cluster ---------------------------
    std::vector<CellId> all_registers;
    all_registers.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const RegisterPlan& plan = plans[i];
      ClusterSpec& cluster = clusters[plan.cluster];
      // Banks are row-oriented strips, as placers leave them: wide in x,
      // only a couple of rows tall. Consecutive runs then have clean convex
      // hulls, which is what the Sec. 3.2 weights reward.
      const geom::Point target{
          cluster.center.x + rng.gaussian(0.0, profile.cluster_radius),
          cluster.center.y + rng.gaussian(0.0, cluster.y_sigma)};
      const auto spot = grid.find_nearest_free(target, plan.cell->width);
      MBRC_ASSERT_MSG(spot.has_value(), "core too full for registers");
      const CellId reg = design.add_register(
          "reg" + std::to_string(i), plan.cell, *spot);
      grid.occupy(grid.row_of(spot->y), spot->x, plan.cell->width);

      netlist::Cell& cell = design.cell(reg);
      cell.gating_group = cluster.gating_group;
      cell.scan.partition = cluster.scan_partition;
      design.connect(design.register_clock_pin(reg),
                     clock_nets[cluster.clock_domain]);
      const ControlNets& ctrl =
          controls[cluster.clock_domain * profile.gating_groups +
                   cluster.gating_group];
      const auto connect_if = [&](PinRole role, NetId net) {
        const PinId pin = design.register_control_pin(reg, role);
        if (pin.valid()) design.connect(pin, net);
      };
      connect_if(PinRole::kReset, ctrl.reset);
      connect_if(PinRole::kSet, ctrl.set);
      connect_if(PinRole::kEnable, ctrl.enable);
      if (plan.cell->function.is_scan && cluster.scan_partition >= 0)
        connect_if(PinRole::kScanEnable,
                   scan_enable[cluster.scan_partition]);

      cluster.registers.push_back(reg);
      all_registers.push_back(reg);
    }

    // Designer constraints.
    for (CellId reg : all_registers) {
      const double draw = rng.uniform_real(0.0, 1.0);
      if (draw < profile.fixed_fraction)
        design.cell(reg).fixed = true;
      else if (draw < profile.fixed_fraction + profile.size_only_fraction)
        design.cell(reg).size_only = true;
    }

    // Ordered scan sections: consecutive runs of scan registers within a
    // cluster get (section, order) locks.
    int next_section = 0;
    for (ClusterSpec& cluster : clusters) {
      if (cluster.scan_partition < 0) continue;
      std::size_t i = 0;
      while (i < cluster.registers.size()) {
        if (!rng.chance(profile.ordered_section_fraction)) {
          ++i;
          continue;
        }
        const std::size_t take = std::min<std::size_t>(
            static_cast<std::size_t>(
                rng.uniform_int(2, profile.registers_per_section)),
            cluster.registers.size() - i);
        if (take < 2) break;
        for (std::size_t k = 0; k < take; ++k) {
          netlist::Cell& cell = design.cell(cluster.registers[i + k]);
          cell.scan.section = next_section;
          cell.scan.order = static_cast<int>(k);
        }
        ++next_section;
        i += take;
      }
    }

    // --- IO ports ------------------------------------------------------
    const int in_ports = std::max(4, profile.register_cells / 40);
    const int out_ports = std::max(4, profile.register_cells / 40);
    std::vector<PinId> input_drivers;
    for (int i = 0; i < in_ports; ++i) {
      const CellId port = design.add_port(
          "in" + std::to_string(i), true,
          {0.0, rng.uniform_real(0.0, core_h)});
      input_drivers.push_back(design.cell(port).pins.front());
    }

    // --- combinational cones -------------------------------------------
    const std::vector<const lib::CombCell*> gate_menu = {
        library.comb_by_name("NAND2_X1"), library.comb_by_name("NOR2_X1"),
        library.comb_by_name("AOI22_X1"), library.comb_by_name("XOR2_X1"),
        library.comb_by_name("INV_X1"),   library.comb_by_name("BUF_X2")};

    int comb_created = 0;
    std::vector<PinId> comb_outputs;  // global pool (output-port taps)
    comb_outputs.reserve(comb_budget);
    // Per-cluster pools keep fanout reuse local, preserving the slack
    // coherence that makes registers timing-compatible.
    std::vector<std::vector<PinId>> cluster_outputs(cluster_count);

    // A launch pin for logic feeding `sink_cluster`: a Q pin from one of its
    // source clusters (keeping path lengths, and so slacks, coherent within
    // the cluster), occasionally an existing comb output or an input port.
    const auto random_source = [&](int sink_cluster) -> PinId {
      const auto& local = cluster_outputs[sink_cluster];
      if (!local.empty() && rng.chance(0.15))
        return local[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(local.size()) - 1))];
      if (rng.chance(0.06))
        return input_drivers[static_cast<std::size_t>(
            rng.uniform_int(0, in_ports - 1))];
      const auto& sources = clusters[sink_cluster].source_clusters;
      for (int tries = 0; tries < 4; ++tries) {
        const int sc = sources[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(sources.size()) - 1))];
        if (clusters[sc].registers.empty()) continue;
        const CellId reg = clusters[sc].registers[static_cast<std::size_t>(
            rng.uniform_int(
                0,
                static_cast<std::int64_t>(clusters[sc].registers.size()) - 1))];
        const int bits = design.cell(reg).reg->bits;
        const int bit = static_cast<int>(rng.uniform_int(0, bits - 1));
        return design.register_q_pin(reg, bit);
      }
      // Degenerate fallback: any register at all.
      const CellId reg = all_registers[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(all_registers.size()) - 1))];
      return design.register_q_pin(reg, 0);
    };

    const auto net_of_driver = [&](PinId driver) {
      const NetId existing = design.pin(driver).net;
      if (existing.valid()) return existing;
      const NetId net = design.create_net();
      design.connect(driver, net);
      return net;
    };

    // Creates one gate near `near` fed from `sink_cluster`'s sources,
    // returns its output pin (invalid when the comb budget is exhausted).
    const auto make_gate = [&](const geom::Point& near,
                               int sink_cluster) -> PinId {
      if (comb_created >= comb_budget) return PinId{};
      const lib::CombCell* type = gate_menu[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(gate_menu.size()) - 1))];
      const geom::Point target{near.x + rng.gaussian(0.0, 10.0),
                               near.y + rng.gaussian(0.0, 10.0)};
      const auto spot = grid.find_nearest_free(target, type->width);
      if (!spot) return PinId{};
      const CellId gate = design.add_comb(
          "g" + std::to_string(comb_created), type, *spot);
      grid.occupy(grid.row_of(spot->y), spot->x, type->width);
      ++comb_created;

      PinId output;
      for (PinId pin : design.cell(gate).pins) {
        if (design.pin(pin).is_output) {
          output = pin;
        } else {
          const PinId src = random_source(sink_cluster);
          design.connect(pin, net_of_driver(src));
        }
      }
      comb_outputs.push_back(output);
      cluster_outputs[sink_cluster].push_back(output);
      return output;
    };

    // One cone per register D bit, generated cluster by cluster; the depth
    // is the cluster's (slightly jittered) and fanout reuse is local, so
    // registers of a cluster have similar arrival times.
    for (int sink_cluster = 0; sink_cluster < cluster_count; ++sink_cluster) {
    for (CellId reg : clusters[sink_cluster].registers) {
      const int bits = design.cell(reg).reg->bits;
      // Global placement never puts each register at its wire-optimal spot;
      // the cone is anchored a little off the register, leaving exactly the
      // slack the wire-length-minimizing MBR placement (Sec. 4.2) recovers.
      const geom::Point anchor{
          design.cell(reg).position.x + rng.gaussian(0.0, 7.0),
          design.cell(reg).position.y + rng.gaussian(0.0, 7.0)};
      for (int b = 0; b < bits; ++b) {
        const PinId d_pin = design.register_d_pin(reg, b);
        PinId driver;
        const auto& local_pool = cluster_outputs[sink_cluster];
        if (!local_pool.empty() &&
            rng.chance(profile.fanout_reuse_probability)) {
          driver = local_pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(local_pool.size()) - 1))];
        } else {
          int depth = clusters[sink_cluster].logic_depth;
          if (rng.chance(0.2)) depth += rng.chance(0.5) ? 1 : -1;
          depth = std::clamp(depth, 1, profile.deep_depth_max);
          PinId head;
          for (int level = 0; level < depth; ++level) {
            const PinId gate_out = make_gate(anchor, sink_cluster);
            if (!gate_out.valid()) break;
            if (head.valid()) {
              // Chain: previous head feeds one input of the new gate by
              // replacing one random input connection.
              const netlist::Cell& gate_cell =
                  design.cell(design.pin(gate_out).cell);
              for (PinId pin : gate_cell.pins) {
                if (!design.pin(pin).is_output) {
                  design.disconnect(pin);
                  design.connect(pin, net_of_driver(head));
                  break;
                }
              }
            }
            head = gate_out;
          }
          driver = head.valid() ? head : random_source(sink_cluster);
        }
        design.connect(d_pin, net_of_driver(driver));
      }
    }
    }

    // Output ports: tap random comb outputs / Q pins.
    for (int i = 0; i < out_ports; ++i) {
      const CellId port = design.add_port(
          "out" + std::to_string(i), false,
          {core_w, rng.uniform_real(0.0, core_h)});
      const PinId src = random_source(static_cast<int>(
          rng.uniform_int(0, cluster_count - 1)));
      design.connect(design.cell(port).pins.front(), net_of_driver(src));
    }

    // Scan chains.
    mbr::restitch_scan_chains(design);

    // --- clock-period calibration ---------------------------------------
    sta::TimingOptions probe;
    probe.clock_period = 1.0;
    const sta::TimingReport report = sta::run_sta(design, probe);
    std::vector<double> pressure;  // arrival + setup = period at zero slack
    pressure.reserve(report.endpoints.size());
    for (const auto& e : report.endpoints)
      pressure.push_back(probe.clock_period - e.slack);
    std::sort(pressure.begin(), pressure.end());
    const std::size_t keep = static_cast<std::size_t>(
        pressure.size() * (1.0 - profile.failing_endpoint_fraction));
    const std::size_t index = std::min(keep, pressure.size() - 1);
    out.calibrated_clock_period = std::max(0.05, pressure[index]);
    return out;
  }
};

}  // namespace

std::vector<DesignProfile> standard_profiles() {
  std::vector<DesignProfile> profiles(5);

  profiles[0].name = "D1";
  profiles[0].seed = 101;
  profiles[0].register_cells = 2940;
  profiles[0].width_mix = {{1, 0.55}, {2, 0.25}, {4, 0.15}, {8, 0.05}};
  profiles[0].comb_per_register = 8.0;

  profiles[1].name = "D2";
  profiles[1].seed = 202;
  profiles[1].register_cells = 3740;
  profiles[1].width_mix = {{1, 0.50}, {2, 0.30}, {4, 0.15}, {8, 0.05}};
  profiles[1].comb_per_register = 11.0;
  profiles[1].gating_groups = 8;

  profiles[2].name = "D3";
  profiles[2].seed = 303;
  profiles[2].register_cells = 3450;
  profiles[2].width_mix = {{1, 0.45}, {2, 0.30}, {4, 0.15}, {8, 0.10}};
  profiles[2].comb_per_register = 9.5;
  profiles[2].clock_domains = 2;

  profiles[3].name = "D4";  // already 8-bit rich: composition has less to do
  profiles[3].seed = 404;
  profiles[3].register_cells = 5040;
  profiles[3].width_mix = {{1, 0.20}, {2, 0.15}, {4, 0.25}, {8, 0.40}};
  profiles[3].comb_per_register = 15.0;
  profiles[3].gating_groups = 10;

  profiles[4].name = "D5";
  profiles[4].seed = 505;
  profiles[4].register_cells = 3450;
  profiles[4].width_mix = {{1, 0.50}, {2, 0.25}, {4, 0.15}, {8, 0.10}};
  profiles[4].comb_per_register = 10.0;
  profiles[4].scan_partitions = 6;

  return profiles;
}

std::vector<DesignProfile> scenario_profiles() {
  std::vector<DesignProfile> profiles(2);

  // DM: multi-clock stress for the bank/debank loop. Four domains shrink
  // the compatibility pockets (banks only form within a domain), and the
  // high failing fraction plus deep critical cones leave composed banks on
  // the critical path -- exactly the state debanking targets.
  profiles[0].name = "DM";
  profiles[0].seed = 606;
  profiles[0].register_cells = 1200;
  profiles[0].width_mix = {{1, 0.30}, {2, 0.20}, {4, 0.25}, {8, 0.25}};
  profiles[0].comb_per_register = 10.0;
  profiles[0].clock_domains = 4;
  profiles[0].gating_groups = 8;
  profiles[0].failing_endpoint_fraction = 0.45;
  profiles[0].deep_cluster_fraction = 0.40;

  // DP: power-capped scenario. Mostly 1-bit registers (maximal composition
  // headroom) under many gating groups: the beta/gamma-dominant cost
  // settings must hold clock power and area while the alpha-dominant ones
  // chase timing.
  profiles[1].name = "DP";
  profiles[1].seed = 707;
  profiles[1].register_cells = 1400;
  profiles[1].width_mix = {{1, 0.70}, {2, 0.20}, {4, 0.08}, {8, 0.02}};
  profiles[1].comb_per_register = 9.0;
  profiles[1].gating_groups = 12;
  profiles[1].failing_endpoint_fraction = 0.25;

  return profiles;
}

std::vector<DesignProfile> scaled_profiles(int factor) {
  MBRC_ASSERT(factor >= 1);
  std::vector<DesignProfile> profiles = standard_profiles();
  for (DesignProfile& p : profiles) {
    p.name += "x";
    p.name += std::to_string(factor);
    p.register_cells *= factor;
  }
  return profiles;
}

GeneratedDesign generate_design(const lib::Library& library,
                                const DesignProfile& profile) {
  Builder builder(library, profile);
  return builder.build();
}

}  // namespace mbrc::benchgen
