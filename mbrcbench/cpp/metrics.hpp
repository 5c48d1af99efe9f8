// The metric catalogue. Every workload reports every metric of the list its
// mode prints (BENCHMARK.json names the same lists); a per-layer metric a
// workload does not exercise reads 0.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace mbrcbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed with --trace 0. All are nonzero on every
/// workload.
inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"flow_wall_s", "s"},
      {"cpu_s", "s"},
      {"peak_rss_mb", "MB"},
      {"success_pct", "%"},
      {"registers_saved_pct", "%"},
      {"neg_tns_after_ns", "ns"},
  };
  return defs;
}

/// Per-layer metrics, printed with --trace 1.
inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"benchgen.generate_s", "s"},
      {"sta.full_build_s", "s"},
      {"sta.full_builds", "count"},
      {"sta.incremental_updates", "count"},
      {"sta.early_stops", "count"},
      {"sta.useful_skew_s", "s"},
      {"mbr.graph_build_s", "s"},
      {"mbr.graph_edges", "count"},
      {"mbr.partition_s", "s"},
      {"mbr.subgraphs", "count"},
      {"mbr.max_subgraph_nodes", "count"},
      {"mbr.enumerate_s", "s"},
      {"mbr.candidates", "count"},
      {"mbr.candidates_dropped", "count"},
      {"ilp.solve_s", "s"},
      {"ilp.nodes", "count"},
      {"ilp.budget_hits", "count"},
      {"runtime.plan_task_sum_s", "s"},
      {"runtime.plan_longest_task_s", "s"},
      {"runtime.plan_efficiency", "ratio"},
      {"mbr.apply_s", "s"},
      {"mbr.mbrs_created", "count"},
      {"place.legalize_s", "s"},
      {"place.cells_legalized", "count"},
      {"mbr.restitch_s", "s"},
      {"mbr.size_s", "s"},
      {"mbr.evaluate_s", "s"},
      {"cts.estimate_s", "s"},
      {"route.congestion_s", "s"},
      {"mbr.debank_loop_s", "s"},
      {"mbr.debank_iterations", "count"},
      {"mbr.region_plan_s", "s"},
      {"netlist.restores", "count"},
      {"netlist.snapshot_s", "s"},
      {"session.apply_us", "us"},
      {"session.query_us", "us"},
      {"session.recompose_ms", "ms"},
      {"session.region_graph_share", "ratio"},
      {"service.dispatch_us", "us"},
      {"service.queue_depth_max", "count"},
      {"service.query_timing_p50_ms", "ms"},
      {"service.query_timing_p99_ms", "ms"},
      {"service.recompose_region_p50_ms", "ms"},
      {"service.recompose_region_p95_ms", "ms"},
      {"service.apply_edits_p50_ms", "ms"},
      {"service.rounds_per_s", "1/s"},
      {"qor.clock_power_saved_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.replay_matches", "bool"},
  };
  return defs;
}

/// Emits every metric of `defs` into `result`, in catalogue order, taking
/// values from `values` (absent names read 0). Names in `values` that the
/// catalogue does not list are a programming error and fail the run.
inline void emit(const std::vector<MetricDef>& defs,
                 const std::map<std::string, double>& values, Result& result) {
  for (const MetricDef& def : defs) {
    const auto it = values.find(def.name);
    result.metric(def.name, it == values.end() ? 0.0 : it->second, def.unit);
  }
  for (const auto& [name, value] : values) {
    bool listed = false;
    for (const MetricDef& def : defs) listed = listed || name == def.name;
    if (!listed) result.fail("metric not in the catalogue: " + name);
  }
}

}  // namespace mbrcbench
