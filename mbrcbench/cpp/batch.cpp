// flow_d1x10: the composition flow as a batch user runs it.
//
// D1 at ten times Table-1 scale (29,400 registers), jobs 4, default
// FlowOptions (paper objective, useful skew and sizing, no debank loop)
// except the subgraph bound (workloads.hpp). About half of the wall time is
// the parallel plan stage and half the serial tail (legalize, skew, sizing,
// evaluation), so the figures move with either. A run generates three such
// designs from its seed and rotates the flows over them.
//
// The traced run replays the first design. It also drives one bank/debank
// iteration on the composed design, out of band, so that the loop's layers
// are attributed although the batch flow runs without it.
#include <algorithm>
#include <optional>
#include <unordered_set>

#include "benchgen/generator.hpp"
#include "common.hpp"
#include "gates.hpp"
#include "metrics.hpp"
#include "spans.hpp"
#include "sta/timing_engine.hpp"
#include "workloads.hpp"

namespace mbrcbench {

namespace {

using namespace mbrc;

constexpr int kJobs = 4;
/// Designs per run, each generated from the workload seed; setup_s is the
/// median of their generation times and the flow figures are medians over
/// flows on all of them, so one unusually heavy design moves them less (at
/// four times Table-1 scale, seed 4's design took 37% longer than the
/// median of five seeds).
constexpr int kDesigns = 3;

std::int64_t counter(const mbr::FlowResult& r, const char* name) {
  const auto it = r.counters.counters.find(name);
  return it == r.counters.counters.end() ? 0 : it->second;
}

double pct_saved(double before, double after) {
  return before != 0.0 ? 100.0 * (before - after) / before : 0.0;
}

// ---------------------------------------------------------------------------
// Set-up and the gated, untraced flow.
// ---------------------------------------------------------------------------

struct Input {
  benchgen::GeneratedDesign generated;
  check::DesignChecker::Baseline baseline;
  mbr::FlowOptions options;
};

struct Inputs {
  std::vector<Input> designs;
  std::vector<double> setup_seconds;
};

Inputs set_up(const lib::Library& library, std::uint64_t seed) {
  Inputs inputs;
  for (int i = 0; i < kDesigns; ++i) {
    benchgen::DesignProfile profile = benchgen::scaled_profiles(10).front();
    profile.seed = design_seed(seed + 7919u * static_cast<std::uint64_t>(i));
    const Clock::time_point t0 = Clock::now();
    benchgen::GeneratedDesign generated =
        benchgen::generate_design(library, profile);
    inputs.setup_seconds.push_back(seconds_since(t0));
    Input input{std::move(generated), {}, {}};
    input.baseline = check::DesignChecker::capture(input.generated.design);
    input.options.jobs = kJobs;
    input.options.composition.partition.max_nodes = kSubgraphBound;
    input.options.timing.clock_period =
        input.generated.calibrated_clock_period;
    inputs.designs.push_back(std::move(input));
  }
  return inputs;
}

struct TimedFlow {
  mbr::FlowResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t digest = 0;
};

/// One flow on a fresh copy of the input: timed, then gated (untimed).
TimedFlow gated_flow(const Input& input, Result& result) {
  netlist::Design design = input.generated.design;
  TimedFlow out;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  out.result = mbr::run_composition_flow(design, input.options);
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_seconds() - cpu0;

  result.attempt();
  const check::CheckReport report =
      check_flow_output(design, input.baseline);
  if (!report.ok()) {
    result.failed_op();
    result.fail("output design fails the checker:\n" + report.to_string());
  }
  out.digest = flow_digest(out.result);
  return out;
}

// ---------------------------------------------------------------------------
// Traced replay through the layers' public calls.
// ---------------------------------------------------------------------------

struct Replay {
  mbr::CompositionPlan plan;
  mbr::Metrics after;
  std::int64_t graph_edges = 0;
  int max_subgraph_nodes = 0;
  double task_sum_s = 0.0;
  double longest_task_s = 0.0;
  double fanout_wall_s = 0.0;
  /// Time spent in measurement-only calls that the flow itself does not
  /// make (the standalone CTS and congestion estimates, the debank probe).
  double out_of_band_s = 0.0;
  int debank_iterations = 0;
  int restores = 0;
};

// The flow's planning: graph -> partition -> per-subgraph enumeration and
// set-partition solve fanned out over the global pool, reduced in subgraph
// order exactly as plan_composition does.
mbr::CompositionPlan replay_plan(const netlist::Design& design,
                                 const sta::TimingReport& timing,
                                 const mbr::CompositionOptions& options,
                                 Replay& out) {
  mbr::CompositionPlan plan;
  mbr::CompatibilityOptions compatibility = options.compatibility;
  compatibility.jobs = options.jobs;
  {
    obs::Span span("bench:mbr.graph_build");
    plan.graph = mbr::build_compatibility_graph(design, timing, compatibility);
  }
  std::vector<std::vector<int>> subgraphs;
  {
    obs::Span span("bench:mbr.partition");
    subgraphs = mbr::partition_graph(plan.graph, design, options.partition);
  }
  out.graph_edges = plan.graph.edge_count();
  for (const auto& subgraph : subgraphs)
    out.max_subgraph_nodes =
        std::max(out.max_subgraph_nodes, static_cast<int>(subgraph.size()));
  plan.subgraph_count = static_cast<int>(subgraphs.size());

  std::optional<mbr::BlockerIndex> blockers;
  {
    obs::Span span("bench:mbr.enumerate");
    blockers.emplace(plan.graph);
  }
  struct Outcome {
    mbr::EnumerationResult enumeration;
    ilp::SetPartitionResult solved;
    double seconds = 0.0;
  };
  std::vector<Outcome> outcomes;
  const Clock::time_point fan0 = Clock::now();
  {
    obs::Span span("bench:runtime.plan_fanout");
    outcomes = runtime::parallel_transform(
        &runtime::ThreadPool::global(), options.jobs, subgraphs,
        [&](const std::vector<int>& subgraph) {
          const Clock::time_point t0 = Clock::now();
          Outcome o;
          {
            obs::Span task("bench:mbr.enumerate");
            o.enumeration =
                mbr::enumerate_candidates(plan.graph, design.library(),
                                          *blockers, subgraph,
                                          options.enumeration);
          }
          {
            obs::Span task("bench:ilp.solve");
            o.solved = mbr::solve_subgraph(
                subgraph, o.enumeration.candidates, options.solver);
          }
          o.seconds = seconds_since(t0);
          return o;
        });
  }
  out.fanout_wall_s = seconds_since(fan0);

  for (const Outcome& o : outcomes) {
    out.task_sum_s += o.seconds;
    out.longest_task_s = std::max(out.longest_task_s, o.seconds);
    plan.candidate_count +=
        static_cast<std::int64_t>(o.enumeration.candidates.size());
    if (o.enumeration.truncated) ++plan.truncated_subgraphs;
    plan.ilp_nodes += o.solved.nodes_explored;
    plan.objective += o.solved.objective;
    for (int index : o.solved.chosen) {
      mbr::Selection selection;
      selection.candidate = o.enumeration.candidates[index];
      for (int node : selection.candidate.nodes)
        selection.members.push_back(plan.graph.node(node).cell);
      plan.selections.push_back(std::move(selection));
    }
  }
  std::sort(plan.selections.begin(), plan.selections.end(),
            [](const mbr::Selection& a, const mbr::Selection& b) {
              return a.members.front() < b.members.front();
            });
  return plan;
}

// Map -> place -> rewire, one merge at a time. The flow runs map/place as a
// speculative parallel pass with serial replay of stale solves; its output
// is defined to equal this serial order.
std::vector<netlist::CellId> replay_apply(netlist::Design& design,
                                          const mbr::CompositionPlan& plan,
                                          const mbr::FlowOptions& options,
                                          const std::string& prefix) {
  obs::Span span("bench:mbr.apply");
  std::vector<netlist::CellId> created;
  int name_counter = 0;
  for (const mbr::Selection* selection : plan.merges()) {
    const std::optional<mbr::Mapping> mapping = mbr::map_candidate(
        design, plan.graph, selection->candidate, options.mapping);
    if (!mapping) continue;
    const geom::Point position = mbr::place_mbr(
        design, plan.graph, selection->candidate, *mapping, options.placement);
    created.push_back(mbr::rewire_candidate(
        design, plan.graph, selection->candidate, *mapping, position,
        prefix + std::to_string(name_counter++)));
  }
  return created;
}

// Widest first, as the flow legalizes new cells.
void replay_legalize(netlist::Design& design,
                     std::vector<netlist::CellId> cells) {
  obs::Span span("bench:place.legalize");
  std::sort(cells.begin(), cells.end(),
            [&](netlist::CellId a, netlist::CellId b) {
              const double wa = design.cell(a).width();
              const double wb = design.cell(b).width();
              if (wa != wb) return wa > wb;
              return a < b;
            });
  place::RowGrid grid = place::build_occupancy(design, cells);
  if (!place::legalize_cells(design, grid, cells).success)
    throw std::runtime_error("replay legalization failed");
}

void replay_restitch(netlist::Design& design) {
  obs::Span span("bench:mbr.restitch");
  mbr::restitch_scan_chains(design);
}

sta::SkewMap replay_skew(const netlist::Design& design,
                         const sta::TimingOptions& timing,
                         const mbr::FlowOptions& options,
                         const sta::SkewMap& initial,
                         const std::vector<netlist::CellId>& cells,
                         sta::TimingEngine& engine) {
  obs::Span span("bench:sta.useful_skew");
  const std::unordered_set<netlist::CellId> allowed(cells.begin(), cells.end());
  return sta::optimize_useful_skew(design, timing, options.skew, initial,
                                   options.skew_only_new_mbrs ? &allowed
                                                              : nullptr,
                                   &engine)
      .skew;
}

mbr::Metrics replay_evaluate(const netlist::Design& design,
                             const mbr::FlowOptions& options,
                             const sta::SkewMap& skew,
                             sta::TimingEngine& engine) {
  obs::Span span("bench:mbr.evaluate");
  return mbr::evaluate_design(design, options, skew, &engine);
}

const sta::TimingReport& replay_update(sta::TimingEngine& engine,
                                       const sta::SkewMap& skew) {
  obs::Span span("bench:sta.update");
  return engine.update(skew);
}

// The bank/debank loop of run_composition_flow, stage for stage. Counts
// iterations and restores into `out`.
void replay_debank(netlist::Design& design, const mbr::FlowOptions& options,
                   const sta::TimingOptions& timing_options,
                   const mbr::CompositionOptions& composition,
                   sta::SkewMap& skew, sta::TimingEngine& engine,
                   Replay& out) {
  obs::Span loop("bench:mbr.debank_loop");
  const auto combined = [&](const mbr::Metrics& m) {
    return options.cost.combined_cost(
        m.tns, m.clock_power_uw + 1e-3 * m.leakage_nw, m.design.area);
  };
  const mbr::Metrics entry = replay_evaluate(design, options, skew, engine);
  double best_cost = combined(entry);
  for (int iter = 0; iter < options.debank.max_iterations; ++iter) {
    std::optional<netlist::Design::Snapshot> saved;
    {
      obs::Span span("bench:netlist.snapshot");
      saved.emplace(design.snapshot());
    }
    const sta::SkewMap saved_skew = skew;
    mbr::DebankResult split;
    {
      const sta::TimingReport& critical = replay_update(engine, skew);
      obs::Span span("bench:mbr.debank_split");
      split = mbr::debank_critical_registers(options.debank, design, critical);
    }
    if (split.banks_split == 0) break;
    ++out.debank_iterations;
    for (netlist::CellId removed : split.removed) skew.erase(removed);
    replay_legalize(design, split.pieces);
    replay_restitch(design);

    mbr::CompositionPlan region;
    {
      const sta::TimingReport& timing = replay_update(engine, skew);
      obs::Span span("bench:mbr.region_plan");
      region = mbr::plan_composition_region(design, timing, split.pieces,
                                            composition);
    }
    const std::vector<netlist::CellId> created = replay_apply(
        design, region, options, "mbrc_d" + std::to_string(iter) + "_");
    std::erase_if(skew, [&](const auto& entry_) {
      return design.cell(entry_.first).dead;
    });
    if (!created.empty()) {
      replay_legalize(design, created);
      replay_restitch(design);
    }
    std::vector<netlist::CellId> working = created;
    for (netlist::CellId piece : split.pieces)
      if (!design.cell(piece).dead) working.push_back(piece);
    if (options.apply_useful_skew && !working.empty())
      skew = replay_skew(design, timing_options, options, skew, working,
                         engine);
    if (options.size_new_mbrs && !working.empty()) {
      obs::Span span("bench:mbr.size");
      mbr::size_new_mbrs(design, working, skew, engine);
    }
    const mbr::Metrics trial = replay_evaluate(design, options, skew, engine);
    const double cost = combined(trial);
    if (cost < best_cost - options.debank.cost_epsilon &&
        trial.failing_hold_endpoints <= entry.failing_hold_endpoints) {
      best_cost = cost;
      continue;
    }
    obs::Span span("bench:netlist.snapshot");
    ++out.restores;
    design.restore(*saved);
    skew = saved_skew;
    break;
  }
}

Replay replay_flow(netlist::Design& design, const mbr::FlowOptions& options) {
  Replay out;
  sta::TimingOptions timing_options = options.timing;
  timing_options.jobs = options.jobs;
  mbr::CompositionOptions composition = options.composition;
  composition.jobs = options.jobs;
  composition.enumeration.cost = options.cost;

  sta::TimingEngine engine(design, timing_options);
  {
    obs::Span span("bench:sta.full_build");
    engine.update();
  }
  replay_evaluate(design, options, {}, engine);  // the flow's "before"
  const sta::TimingReport timing = replay_update(engine, {});
  out.plan = replay_plan(design, timing, composition, out);

  const std::vector<netlist::CellId> created =
      replay_apply(design, out.plan, options, "mbrc_");
  if (!created.empty()) replay_legalize(design, created);
  replay_restitch(design);
  sta::SkewMap skew;
  if (options.apply_useful_skew && !created.empty())
    skew = replay_skew(design, timing_options, options, {}, created, engine);
  if (options.size_new_mbrs) {
    obs::Span span("bench:mbr.size");
    mbr::size_new_mbrs(design, created, skew, engine);
  }
  out.after = replay_evaluate(design, options, skew, engine);

  // Out of band. The CTS and congestion estimates run inside
  // evaluate_design, overlapped with STA; time them once more on their own.
  // Then one bank/debank iteration under the multi-objective cost model.
  const Clock::time_point t0 = Clock::now();
  {
    obs::Span span("bench:cts.estimate");
    cts::estimate_clock_tree(design, options.cts);
  }
  {
    obs::Span span("bench:route.congestion");
    route::estimate_congestion(design, options.route);
  }
  mbr::FlowOptions probe = options;
  probe.debank_loop = true;
  probe.debank.max_iterations = 1;
  probe.cost.alpha = 1.0;
  probe.cost.beta = 0.3;
  probe.cost.gamma = 0.05;
  composition.enumeration.cost = probe.cost;
  replay_debank(design, probe, timing_options, composition, skew, engine, out);
  out.out_of_band_s = seconds_since(t0);
  return out;
}

void report_untraced(const Args& args, const Inputs& inputs, Result& result) {
  std::vector<double> walls, cpus;
  std::vector<std::optional<TimedFlow>> first(kDesigns);
  // An untimed warm-up flow on the first design: the process's first flow
  // also starts the thread pool and grows the allocator's and the workers'
  // arenas, and often took up to 30% longer than later flows on one design.
  first[0] = gated_flow(inputs.designs[0], result);
  std::printf("warm-up flow (design 0): %.3f s wall, digest %016llx\n",
              first[0]->wall_s,
              static_cast<unsigned long long>(first[0]->digest));
  double timed = 0.0;
  // Round robin over the designs, at least once around; design 0's flow is
  // then a repetition that the digest gate compares with the warm-up.
  for (int n = 0; n < kDesigns || timed < args.seconds; ++n) {
    const int d = n % kDesigns;
    TimedFlow flow = gated_flow(inputs.designs[d], result);
    walls.push_back(flow.wall_s);
    cpus.push_back(flow.cpu_s);
    timed += flow.wall_s;
    std::printf("flow %d (design %d): %.3f s wall, %.3f s cpu, digest %016llx\n",
                n + 1, d, flow.wall_s, flow.cpu_s,
                static_cast<unsigned long long>(flow.digest));
    if (!first[d]) {
      first[d] = std::move(flow);
    } else if (flow.digest != first[d]->digest) {
      result.failed_op();
      result.fail("flow digest differs between repetitions");
    }
  }

  // QoR is exact per design; report its mean over the designs.
  double saved = 0.0, neg_tns = 0.0;
  for (const std::optional<TimedFlow>& flow : first) {
    const mbr::FlowResult& r = flow->result;
    saved += pct_saved(double(r.before.design.total_registers),
                       double(r.after.design.total_registers)) / kDesigns;
    neg_tns -= r.after.tns / kDesigns;
  }
  std::map<std::string, double> values;
  values["setup_s"] = median(inputs.setup_seconds);
  values["flow_wall_s"] = median(walls);
  values["cpu_s"] = median(cpus);
  values["peak_rss_mb"] = peak_rss_mb();
  values["success_pct"] = 100.0 * (1.0 - result.error_rate());
  values["registers_saved_pct"] = saved;
  values["neg_tns_after_ns"] = neg_tns;
  emit(end_to_end_metrics(), values, result);
}

void report_traced(const Args& args, const Inputs& inputs, Result& result) {
  const Input& input = inputs.designs.front();
  gated_flow(input, result);  // warm-up, as in the untraced run
  const TimedFlow reference = gated_flow(input, result);
  const mbr::FlowResult& r = reference.result;

  netlist::Design design = input.generated.design;
  obs::Tracer tracer;
  tracer.install();
  obs::Tracer::set_thread_label("bench");
  const Clock::time_point t0 = Clock::now();
  Replay replay;
  try {
    replay = replay_flow(design, input.options);
  } catch (...) {
    tracer.uninstall();
    throw;
  }
  const double replay_wall = seconds_since(t0) - replay.out_of_band_s;
  tracer.uninstall();
  const obs::TraceData trace = tracer.take();
  const std::string path = write_trace(
      trace, args.trace_out,
      args.workload + "-" + std::to_string(args.seed) + ".trace.json");
  std::printf("trace: %zu events -> %s\n", trace.events.size(),
              path.empty() ? "(not written)" : path.c_str());
  if (path.empty()) result.fail("cannot write the trace file");

  const bool matches = plan_digest(replay.plan) == plan_digest(r.plan) &&
                       metrics_digest(replay.after) == metrics_digest(r.after);
  if (!matches)
    std::printf(
        "STALE ATTRIBUTION: the replay's plan or final metrics differ from "
        "run_composition_flow; per-layer numbers describe a different "
        "sequence of calls than the flow makes\n");

  const std::map<std::string, SpanTotals> spans = attribute(trace);
  std::map<std::string, double> v;
  for (const char* name :
       {"sta.full_build", "sta.useful_skew", "mbr.graph_build",
        "mbr.partition", "mbr.enumerate", "ilp.solve", "mbr.apply",
        "place.legalize", "mbr.restitch", "mbr.size", "mbr.evaluate",
        "cts.estimate", "route.congestion", "mbr.region_plan",
        "netlist.snapshot"})
    v[std::string(name) + "_s"] = self_seconds(spans, name);
  const auto loop = spans.find("mbr.debank_loop");
  v["mbr.debank_loop_s"] = loop == spans.end() ? 0.0 : loop->second.total_s;
  v["mbr.debank_iterations"] = replay.debank_iterations;
  v["netlist.restores"] = replay.restores;

  const auto stage = r.stages.find("legalize");
  v["benchgen.generate_s"] = median(inputs.setup_seconds);
  v["sta.full_builds"] = double(counter(r, "sta.engine.full_builds"));
  v["sta.incremental_updates"] =
      double(counter(r, "sta.engine.incremental_updates"));
  v["sta.early_stops"] = double(counter(r, "sta.engine.early_stops"));
  v["mbr.graph_edges"] = double(replay.graph_edges);
  v["mbr.subgraphs"] = r.plan.subgraph_count;
  v["mbr.max_subgraph_nodes"] = replay.max_subgraph_nodes;
  v["mbr.candidates"] = double(counter(r, "mbr.candidates.enumerated"));
  v["mbr.candidates_dropped"] =
      double(counter(r, "flow.candidates.dropped_infinite_weight"));
  v["ilp.nodes"] = double(counter(r, "ilp.set_partition.nodes"));
  v["ilp.budget_hits"] = double(counter(r, "ilp.set_partition.budget_hits"));
  v["runtime.plan_task_sum_s"] = replay.task_sum_s;
  v["runtime.plan_longest_task_s"] = replay.longest_task_s;
  v["runtime.plan_efficiency"] =
      replay.fanout_wall_s > 0.0
          ? replay.task_sum_s / (kJobs * replay.fanout_wall_s)
          : 0.0;
  v["mbr.mbrs_created"] = r.mbrs_created;
  v["place.cells_legalized"] =
      stage == r.stages.end() ? 0.0 : double(stage->second.items);
  v["qor.clock_power_saved_pct"] =
      pct_saved(r.before.clock_power_uw, r.after.clock_power_uw);
  v["trace.overhead_pct"] =
      100.0 * (replay_wall - reference.wall_s) / reference.wall_s;
  v["trace.replay_matches"] = matches ? 1.0 : 0.0;
  emit(per_layer_metrics(), v, result);
}

}  // namespace

bool is_batch_workload(const std::string& name) {
  return name == "flow_d1x10";
}

void run_batch(const Args& args, Result& result) {
  const lib::Library library = lib::make_default_library();
  const Inputs inputs = set_up(library, args.seed);
  for (int d = 0; d < kDesigns; ++d) {
    const benchgen::GeneratedDesign& g = inputs.designs[d].generated;
    std::printf(
        "D1x10 design %d: %lld registers, clock period %.4f ns, "
        "generated in %.3f s\n",
        d, static_cast<long long>(g.design.stats().total_registers),
        g.calibrated_clock_period, inputs.setup_seconds[d]);
  }
  if (args.trace)
    report_traced(args, inputs, result);
  else
    report_untraced(args, inputs, result);
}

}  // namespace mbrcbench
