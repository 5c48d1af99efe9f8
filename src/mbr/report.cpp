#include "mbr/report.hpp"

#include "mbr/flow.hpp"
#include "obs/json.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

namespace {

const char* allocator_name(Allocator allocator) {
  switch (allocator) {
    case Allocator::kIlp: return "ilp";
    case Allocator::kHeuristic: return "heuristic";
  }
  return "unknown";
}

void write_metrics(obs::JsonWriter& w, const Metrics& m) {
  w.begin_object()
      .kv("cells", m.design.cells)
      .kv("area", m.design.area)
      .kv("total_registers", m.design.total_registers)
      .kv("register_bits", m.design.register_bits)
      .kv("composable_registers", m.composable_registers)
      .kv("wns", m.wns)
      .kv("tns", m.tns)
      .kv("failing_endpoints", m.failing_endpoints)
      .kv("total_endpoints", m.total_endpoints)
      .kv("hold_wns", m.hold_wns)
      .kv("failing_hold_endpoints", m.failing_hold_endpoints)
      .kv("clock_buffers", m.clock_buffers)
      .kv("clock_cap", m.clock_cap)
      .kv("clock_power_uw", m.clock_power_uw)
      .kv("leakage_nw", m.leakage_nw)
      .kv("clock_wire", m.clock_wire)
      .kv("signal_wire", m.signal_wire)
      .kv("overflow_edges", m.overflow_edges)
      .kv("max_congestion", m.max_congestion)
      .end_object();
}

}  // namespace

void write_flow_report(std::ostream& os, const FlowOptions& options,
                       const FlowResult& result) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", kFlowReportSchema);

  // Complete echo of FlowOptions, nested to mirror the struct: a report is
  // only reproducible if it records EVERY knob the run used.
  // tests/obs_test.cpp (FlowReport.OptionsEchoIsComplete) pins the exact
  // key-path set and asserts each leaf tracks its field -- extend both when
  // adding an option.
  w.key("options").begin_object();
  w.kv("allocator", allocator_name(options.allocator));
  w.key("timing").begin_object();
  w.kv("clock_period", options.timing.clock_period)
      .kv("wire_cap_per_um", options.timing.wire_cap_per_um)
      .kv("wire_res_per_um", options.timing.wire_res_per_um)
      .kv("input_delay", options.timing.input_delay)
      .kv("output_margin", options.timing.output_margin)
      .kv("jobs", options.timing.jobs);
  w.end_object();
  w.key("composition").begin_object();
  w.key("compatibility").begin_object();
  w.kv("slack_similarity", options.composition.compatibility.slack_similarity)
      .kv("slack_clamp", options.composition.compatibility.slack_clamp)
      .kv("sign_epsilon", options.composition.compatibility.sign_epsilon)
      .kv("max_distance", options.composition.compatibility.max_distance);
  w.key("region").begin_object();
  w.kv("skew_balanced", options.composition.compatibility.region.skew_balanced)
      .kv("delay_per_um", options.composition.compatibility.region.delay_per_um)
      .kv("max_radius", options.composition.compatibility.region.max_radius);
  w.end_object();
  w.end_object();
  w.key("partition").begin_object();
  w.kv("max_nodes", options.composition.partition.max_nodes);
  w.end_object();
  w.key("enumeration").begin_object();
  w.kv("allow_incomplete", options.composition.enumeration.allow_incomplete)
      .kv("incomplete_area_overhead",
          options.composition.enumeration.incomplete_area_overhead)
      .kv("use_weights", options.composition.enumeration.use_weights)
      .kv("max_candidates_per_subgraph",
          static_cast<std::int64_t>(
              options.composition.enumeration.max_candidates_per_subgraph));
  w.end_object();
  w.key("solver").begin_object();
  w.kv("max_nodes", options.composition.solver.max_nodes);
  w.end_object();
  w.kv("jobs", options.composition.jobs);
  w.end_object();
  w.key("mapping").begin_object();
  w.kv("incomplete_area_overhead", options.mapping.incomplete_area_overhead);
  w.end_object();
  w.key("placement").begin_object();
  w.kv("use_lp", options.placement.use_lp);
  w.end_object();
  w.key("cts").begin_object();
  w.kv("wire_cap_per_um", options.cts.wire_cap_per_um)
      .kv("load_utilization", options.cts.load_utilization)
      .kv("max_fanout", options.cts.max_fanout);
  w.end_object();
  w.key("route").begin_object();
  w.kv("gcell_size", options.route.gcell_size)
      .kv("h_capacity", options.route.h_capacity)
      .kv("v_capacity", options.route.v_capacity)
      .kv("pin_demand", options.route.pin_demand);
  w.end_object();
  w.key("cost").begin_object();
  w.kv("alpha", options.cost.alpha)
      .kv("beta", options.cost.beta)
      .kv("gamma", options.cost.gamma);
  w.end_object();
  w.kv("debank_loop", options.debank_loop);
  w.key("debank").begin_object();
  w.kv("slack_threshold", options.debank.slack_threshold)
      .kv("piece_bits", options.debank.piece_bits)
      .kv("min_bits", options.debank.min_bits)
      .kv("max_banks_per_iteration", options.debank.max_banks_per_iteration)
      .kv("max_iterations", options.debank.max_iterations)
      .kv("cost_epsilon", options.debank.cost_epsilon);
  w.end_object();
  w.kv("apply_useful_skew", options.apply_useful_skew);
  w.kv("skew_only_new_mbrs", options.skew_only_new_mbrs);
  w.key("skew").begin_object();
  w.kv("iterations", options.skew.iterations)
      .kv("max_abs_skew", options.skew.max_abs_skew)
      .kv("damping", options.skew.damping)
      .kv("hold_margin", options.skew.hold_margin);
  w.end_object();
  w.kv("size_new_mbrs", options.size_new_mbrs);
  w.kv("jobs", options.jobs);
  w.kv("check_level", static_cast<int>(options.check_level));
  w.kv("trace", options.trace);
  w.kv("trace_path", options.trace_path);
  w.kv("report_path", options.report_path);
  w.end_object();

  w.key("table1").begin_object();
  w.key("before");
  write_metrics(w, result.before);
  w.key("after");
  write_metrics(w, result.after);
  w.end_object();

  w.key("flow").begin_object();
  w.kv("mbrs_created", result.mbrs_created)
      .kv("registers_merged", result.registers_merged)
      .kv("rejected_at_mapping", result.rejected_at_mapping)
      .kv("incomplete_mbrs", result.incomplete_mbrs)
      .kv("skewed_registers", result.skew.size())
      .kv("final_cost", result.final_cost)
      .kv("compose_seconds", result.compose_seconds)
      .kv("total_seconds", result.total_seconds);
  w.key("debank_iterations").begin_array();
  for (const auto& it : result.debank_iterations) {
    w.begin_object();
    w.kv("banks_split", it.banks_split)
        .kv("pieces_created", it.pieces_created)
        .kv("mbrs_created", it.mbrs_created)
        .kv("cost_before", it.cost_before)
        .kv("cost_after", it.cost_after)
        .kv("tns", it.tns)
        .kv("clock_power_uw", it.clock_power_uw)
        .kv("area", it.area)
        .kv("accepted", it.accepted);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("stages").begin_object();
  for (const auto& [name, s] : result.stages) {
    w.key(name).begin_object();
    w.kv("seconds", s.seconds).kv("calls", s.calls).kv("items", s.items);
    w.end_object();
  }
  w.end_object();

  w.key("counters").begin_object();
  for (const auto& [name, value] : result.counters.counters)
    w.kv(name, value);
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, hist] : result.counters.histograms) {
    w.key(name).begin_object();
    w.kv("count", hist.count).kv("sum", hist.sum);
    w.key("buckets").begin_object();
    for (const auto& [bucket, n] : hist.buckets)
      w.kv(std::to_string(bucket), n);
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.key("trace").begin_object();
  w.kv("enabled", options.trace)
      .kv("events", result.trace.events.size())
      .kv("threads", result.trace.thread_names.size());
  w.end_object();

  w.end_object();
  os << '\n';
  MBRC_ASSERT_MSG(w.complete(), "flow report document left unbalanced");
}

}  // namespace mbrc::mbr
