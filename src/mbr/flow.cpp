#include "mbr/flow.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <unordered_set>

#include "mbr/report.hpp"
#include "obs/counters.hpp"
#include "sta/timing_engine.hpp"
#include "util/assert.hpp"
#include "util/stopwatch.hpp"

namespace mbrc::mbr {

Metrics evaluate_design(const netlist::Design& design,
                        const FlowOptions& options, const sta::SkewMap& skew,
                        sta::TimingEngine* engine) {
  Metrics m;
  m.design = design.stats();

  sta::TimingOptions timing_options = options.timing;
  timing_options.jobs = options.jobs;

  // The three substrates (STA, CTS estimate, congestion map) only read the
  // design; with parallel lanes enabled the estimates run on the pool while
  // STA occupies the remaining lanes. Each writes its own result slot, so
  // the metrics are identical to the serial order below.
  runtime::ThreadPool& pool = runtime::ThreadPool::global();
  const bool overlap = options.jobs > 1;
  std::future<cts::ClockTreeStats> tree_future;
  std::future<route::CongestionMap> congestion_future;
  // Both tasks capture this frame by reference, and engine->update/run_sta
  // below can throw before the help_get calls collect them; the drain
  // guard blocks every exit path until the watched futures settle.
  runtime::FutureDrain frame_drain(pool);
  if (overlap) {
    tree_future = pool.async(
        [&] { return cts::estimate_clock_tree(design, options.cts); });
    frame_drain.watch(tree_future);
    congestion_future = pool.async(
        [&] { return route::estimate_congestion(design, options.route); });
    frame_drain.watch(congestion_future);
  }

  const sta::TimingReport& timing =
      engine ? engine->update(skew) : run_sta(design, timing_options, skew);
  m.wns = timing.wns();
  m.tns = timing.tns();
  m.failing_endpoints = timing.failing_endpoints();
  m.total_endpoints = timing.total_endpoints();
  m.hold_wns = timing.hold_wns();
  m.failing_hold_endpoints = timing.failing_hold_endpoints();

  for (netlist::CellId reg : design.registers())
    if (is_composable(design, reg)) ++m.composable_registers;

  const cts::ClockTreeStats tree =
      overlap ? runtime::help_get(pool, std::move(tree_future))
              : cts::estimate_clock_tree(design, options.cts);
  m.clock_buffers = tree.buffers;
  m.clock_cap = tree.total_cap();
  m.clock_wire = tree.wire_length;
  m.signal_wire = design.wire_length().other;

  // Clock dynamic power at Vdd = 0.9 V (28 nm-ish) and f = 1 / period:
  // fF * GHz * V^2 = uW. Registers' internal clock loads are inside the
  // clock_pin_cap model, so total_cap() is the switched capacitance.
  const double vdd = 0.9;
  const double f_ghz = 1.0 / options.timing.clock_period;
  m.clock_power_uw = m.clock_cap * vdd * vdd * f_ghz * 1e-3;
  for (netlist::CellId id : design.live_cells()) {
    const netlist::Cell& cell = design.cell(id);
    if (cell.kind == netlist::CellKind::kRegister)
      m.leakage_nw += cell.reg->leakage;
  }

  const route::CongestionMap congestion =
      overlap ? runtime::help_get(pool, std::move(congestion_future))
              : route::estimate_congestion(design, options.route);
  m.overflow_edges = congestion.overflow_edges();
  m.max_congestion = congestion.max_utilization();
  return m;
}

// Downsizes (or upsizes) each new MBR to the weakest drive variant whose
// Q-side slack stays non-negative.
void size_new_mbrs(netlist::Design& design,
                   const std::vector<netlist::CellId>& new_cells,
                   const sta::SkewMap& skew, sta::TimingEngine& engine) {
  if (new_cells.empty()) return;
  // Sizing is placement-aware: a wider variant is only eligible when the
  // extra sites to the right of the cell's current footprint are free, so
  // swaps never create overlaps and no cell moves after its timing was
  // measured (a post-sizing re-legalization move would invalidate the very
  // slacks the decision was based on).
  place::RowGrid grid = place::build_occupancy(design);

  for (netlist::CellId cell_id : new_cells) {
    // Re-query per cell: each accepted swap edits the design under the
    // loop's feet. A different drive variant has a different footprint, so
    // the swap moves the cell's pins and stretches (or shrinks) every net
    // touching it -- including nets *driven by other registers in this
    // list*. A neighbor sized against the pre-swap report keeps a Q slack
    // that no longer exists and skips the upsize that would repair it (or
    // upsizes for slack it no longer lacks). The engine's dirty-cone
    // repair makes the per-swap re-query cheap.
    const sta::TimingReport& timing = engine.update(skew);
    const netlist::Cell& cell = design.cell(cell_id);
    const lib::RegisterCell* current = cell.reg;

    // Drive variants of the same function/width/scan style, weakest first.
    auto variants =
        design.library().cells_for(current->function, current->bits);
    std::erase_if(variants, [&](const lib::RegisterCell* v) {
      return v->scan_style != current->scan_style;
    });
    std::sort(variants.begin(), variants.end(),
              [](const lib::RegisterCell* a, const lib::RegisterCell* b) {
                if (a->drive_resistance != b->drive_resistance)
                  return a->drive_resistance > b->drive_resistance;
                return a->name < b->name;
              });
    if (variants.size() <= 1) continue;

    const double q_slack = timing.register_q_slack(design, cell_id);
    if (q_slack == sta::kNoRequired) continue;

    // Margin available for weakening the drive: extra delay the Q paths can
    // absorb. delay = R * load, so a variant is acceptable when
    // (R_variant - R_current) * load <= q_slack.
    double load = 0.0;
    for (int b = 0; b < current->bits; ++b) {
      const netlist::PinId q = design.register_q_pin(cell_id, b);
      const netlist::Pin& p = design.pin(q);
      if (!p.net.valid()) continue;
      load = std::max(load, design.net_hpwl(p.net) * 0.2);
      for (netlist::PinId s : design.net(p.net).sinks)
        load += design.pin(s).cap;
    }

    const double q_hold = timing.register_q_hold_slack(design, cell_id);
    const int row = grid.row_of(cell.position.y);
    for (const lib::RegisterCell* variant : variants) {
      if (variant->width > current->width + 1e-9 &&
          !grid.is_free(row, cell.position.x + current->width,
                        variant->width - current->width))
        continue;  // wider footprint would overlap a neighbor (or the edge)
      const double extra =
          (variant->drive_resistance - current->drive_resistance) * load *
          1e-3;  // kOhm * fF -> ns; negative = faster launch (upsizing)
      if (extra > q_slack * 0.75) continue;  // keep 25% setup margin
      // Hold awareness: upsizing launches min-paths earlier into the
      // downstream captures; never spend more than the hold slack there.
      if (extra < 0 && q_hold != sta::kNoRequired &&
          -extra > std::max(0.0, q_hold - 0.005))
        continue;
      if (variant != current) {
        design.swap_register_cell(cell_id, variant);
        grid.release(row, cell.position.x);
        grid.occupy(row, cell.position.x, variant->width, cell_id);
      }
      break;
    }
  }
}

namespace {

// Outcome of applying one composition plan's merges (map -> place ->
// rewire); the flow runs this once for the main plan and once per
// bank/debank loop iteration for the scoped recomposition plans.
struct ApplyOutcome {
  std::vector<netlist::CellId> new_cells;
  int mbrs_created = 0;
  int registers_merged = 0;      // members absorbed into new MBRs
  int rejected_at_mapping = 0;   // selections dropped by Sec. 4.1 rules
  int incomplete_mbrs = 0;
};

// Applies the plan's merges: mapping and the per-MBR LP placement solves
// fan out over the pool as a *speculative* pass against the pre-apply
// design, each task writing its own pre-sized slot. map_candidate reads
// only the library and the plan graph, so its result never depends on
// apply order. place_mbr reads exactly the members' D/Q nets; each task
// records that read set, and the serial rewire loop below replays the
// solve in place for the few selections whose read set intersects a net an
// earlier rewire touched. Untouched selections keep the speculative bytes,
// touched ones are recomputed at the same point the serial loop would have
// -- the stage output is bit-identical to the serial flow at any `jobs`.
// New MBRs are named `name_prefix` + a per-call counter; callers must keep
// prefixes distinct across calls.
ApplyOutcome apply_plan_merges(netlist::Design& design,
                               const CompositionPlan& plan,
                               const FlowOptions& options,
                               const std::string& name_prefix) {
  ApplyOutcome result;
  const std::vector<const Selection*> merges = plan.merges();

  struct Prepared {
    std::optional<Mapping> mapping;
    geom::Point position;
    std::vector<std::int32_t> read_nets;  // member D/Q nets, sorted unique
  };
  const std::vector<Prepared> prepared = runtime::parallel_transform(
      &runtime::ThreadPool::global(), options.jobs, merges,
      [&](const Selection* selection) {
        obs::Span span("apply.map_place");
        Prepared p;
        p.mapping = map_candidate(design, plan.graph, selection->candidate,
                                  options.mapping);
        if (!p.mapping) return p;
        p.position = place_mbr(design, plan.graph, selection->candidate,
                               *p.mapping, options.placement);
        for (int node : selection->candidate.nodes) {
          const RegisterInfo& info = plan.graph.node(node);
          for (int bit = 0; bit < info.bits; ++bit) {
            for (const netlist::PinId pin :
                 {design.register_d_pin(info.cell, bit),
                  design.register_q_pin(info.cell, bit)}) {
              if (!pin.valid()) continue;
              const netlist::NetId net = design.pin(pin).net;
              if (net.valid()) p.read_nets.push_back(net.index);
            }
          }
        }
        std::sort(p.read_nets.begin(), p.read_nets.end());
        p.read_nets.erase(
            std::unique(p.read_nets.begin(), p.read_nets.end()),
            p.read_nets.end());
        return p;
      });

  static obs::Counter& replays = obs::counter("flow.apply.replayed");
  std::unordered_set<std::int32_t> touched_nets;
  const auto touch_cell_nets = [&](netlist::CellId id) {
    for (const netlist::PinId pin : design.cell(id).pins) {
      const netlist::NetId net = design.pin(pin).net;
      if (net.valid()) touched_nets.insert(net.index);
    }
  };

  int name_counter = 0;
  for (std::size_t m = 0; m < merges.size(); ++m) {
    const Selection* selection = merges[m];
    const Prepared& p = prepared[m];
    if (!p.mapping) {
      ++result.rejected_at_mapping;
      continue;
    }
    geom::Point position = p.position;
    const bool stale = std::any_of(
        p.read_nets.begin(), p.read_nets.end(),
        [&](std::int32_t net) { return touched_nets.count(net) > 0; });
    if (stale) {
      // An earlier rewire edited a net this solve read; redo it here,
      // where the design state matches the serial loop's.
      replays.add(1);
      position = place_mbr(design, plan.graph, selection->candidate,
                           *p.mapping, options.placement);
    }
    // The write set: every net incident to a member (the rewire moves or
    // drops those pins), plus the new MBR's nets afterwards.
    for (int node : selection->candidate.nodes)
      touch_cell_nets(plan.graph.node(node).cell);
    const netlist::CellId mbr = rewire_candidate(
        design, plan.graph, selection->candidate, *p.mapping, position,
        name_prefix + std::to_string(name_counter++));
    touch_cell_nets(mbr);
    result.new_cells.push_back(mbr);
    ++result.mbrs_created;
    result.registers_merged +=
        static_cast<int>(selection->candidate.nodes.size());
    if (selection->candidate.is_incomplete()) ++result.incomplete_mbrs;
  }
  return result;
}

// Incremental legalization of newly created cells (widest first: they are
// the hardest to fit and have placement priority).
place::LegalizeResult legalize_new_cells(
    netlist::Design& design, const std::vector<netlist::CellId>& cells) {
  std::vector<netlist::CellId> order = cells;
  std::sort(order.begin(), order.end(),
            [&](netlist::CellId a, netlist::CellId b) {
              const double wa = design.cell(a).width();
              const double wb = design.cell(b).width();
              if (wa != wb) return wa > wb;
              return a < b;
            });
  place::RowGrid grid = place::build_occupancy(design, order);
  return place::legalize_cells(design, grid, order);
}

// The flow stages proper; run_composition_flow wraps this with the
// observability envelope (tracer install, counter delta, report files).
FlowResult run_flow_stages(netlist::Design& design,
                           const FlowOptions& options) {
  obs::Span flow_span("flow");
  util::Stopwatch total_clock;
  runtime::Metrics stage_metrics;
  FlowResult result;

  // One jobs knob drives every stage: the copies push it into the nested
  // option structs the stages read.
  sta::TimingOptions timing_options = options.timing;
  timing_options.jobs = options.jobs;
  CompositionOptions composition_options = options.composition;
  composition_options.jobs = options.jobs;
  // The flow-level cost model reaches the candidate weights (and the
  // heuristic's merge gate) through the enumeration options.
  composition_options.enumeration.cost = options.cost;

  // One timing engine spans the whole flow: the timing graph is built once
  // per netlist topology and every later query is an incremental repair.
  // Structural stages (decompose, rewire) bump the design's topology
  // version, so the engine rebuilds exactly when it must; the useful-skew
  // loop and the post-compose queries ride on cheap dirty-cone updates.
  sta::TimingEngine engine(design, timing_options);

  // Flow-integrity checking (FlowOptions::check_level). `expect` tracks
  // which invariants hold at the current point of the flow: mid-flow states
  // legitimately run with dangling scan nets and unlegalized MBRs, and the
  // expectations are restored as the repairing stages run.
  const check::CheckLevel check_level = options.check_level;
  check::DesignChecker::Baseline check_baseline;
  if (check_level != check::CheckLevel::kOff)
    check_baseline = check::DesignChecker::capture(design);
  check::StageExpectations expect;
  const sta::SkewMap no_skew;
  const auto guard = [&](const char* stage, const sta::SkewMap& skew) {
    check::enforce_stage(design, stage, check_level, expect, check_baseline,
                         &engine, skew);
  };

  {
    runtime::StageTimer timer(stage_metrics, "evaluate.before");
    result.before = evaluate_design(design, options, {}, &engine);
  }
  guard("input", no_skew);

  util::Stopwatch compose_clock;

  // Optional pre-pass (the paper's future-work extension): break up wide
  // MBRs so composition can regroup their bits with neighbors. Slack-gated:
  // critical registers stay intact.
  if (options.decompose_wide_mbrs) {
    runtime::StageTimer timer(stage_metrics, "decompose");
    const sta::TimingReport& pre = engine.update();
    result.decomposition =
        decompose_registers(design, options.decompose, &pre);
    timer.add_items(
        static_cast<std::int64_t>(result.decomposition.pieces.size()));
    if (!result.decomposition.pieces.empty()) {
      place::RowGrid grid =
          place::build_occupancy(design, result.decomposition.pieces);
      const place::LegalizeResult legal = place::legalize_cells(
          design, grid, result.decomposition.pieces);
      MBRC_ASSERT_MSG(legal.success, "decomposition legalization failed");
      // Split pieces carry unstitched scan pins and the removed originals
      // leave their chain-link nets dangling until the restitch stage. The
      // splits also inflate the register count until composition and
      // recombination absorb the pieces; the no-increase guarantee is
      // re-armed at the output boundary.
      expect.scan_stitched = false;
      expect.nets_clean = false;
      expect.register_count_bounded = false;
    }
    guard("decompose", no_skew);
  }

  sta::TimingReport timing;
  {
    runtime::StageTimer timer(stage_metrics, "sta.plan");
    timing = engine.update();  // copy: planning reads it across later edits
  }

  {
    runtime::StageTimer timer(stage_metrics, "plan");
    result.plan = options.allocator == Allocator::kIlp
                      ? plan_composition(design, timing, composition_options)
                      : plan_composition_heuristic(design, timing,
                                                   composition_options);
    timer.add_items(result.plan.subgraph_count);
  }
  guard("plan", no_skew);

  // Apply the merges: map -> place -> rewire (speculative parallel
  // map/place, serial rewire with replay -- see apply_plan_merges).
  std::vector<netlist::CellId> new_cells;
  {
    runtime::StageTimer timer(stage_metrics, "apply");
    ApplyOutcome applied =
        apply_plan_merges(design, result.plan, options, "mbrc_");
    new_cells = std::move(applied.new_cells);
    result.mbrs_created = applied.mbrs_created;
    result.registers_merged = applied.registers_merged;
    result.rejected_at_mapping = applied.rejected_at_mapping;
    result.incomplete_mbrs = applied.incomplete_mbrs;
    timer.add_items(result.mbrs_created);
  }
  if (result.mbrs_created > 0) {
    // New MBRs sit at their LP positions (not yet legalized) with
    // unstitched scan pins; the replaced members' chain nets dangle.
    expect.placement_legal = false;
    expect.scan_stitched = false;
    expect.nets_clean = false;
  }
  guard("apply", no_skew);

  // Undo splits whose pieces found no partners (no-lose guarantee of the
  // decomposition pre-pass).
  if (options.decompose_wide_mbrs) {
    const RecombineResult recombined =
        recombine_unused_pieces(design, result.decomposition);
    for (netlist::CellId cell : recombined.restored)
      new_cells.push_back(cell);
  }

  // Incremental legalization of the new MBRs.
  if (!new_cells.empty()) {
    runtime::StageTimer timer(stage_metrics, "legalize");
    timer.add_items(static_cast<std::int64_t>(new_cells.size()));
    result.legalization = legalize_new_cells(design, new_cells);
    MBRC_ASSERT_MSG(result.legalization.success,
                    "MBR legalization failed: core too full");
    expect.placement_legal = true;
    guard("legalize", no_skew);
  }

  {
    runtime::StageTimer timer(stage_metrics, "scan_restitch");
    result.restitch = restitch_scan_chains(design);
  }
  expect.scan_stitched = true;
  expect.nets_clean = true;
  guard("restitch", no_skew);
  result.compose_seconds = compose_clock.seconds();

  // Useful skew on the new MBRs, then sizing under the final skews.
  if (options.apply_useful_skew && !new_cells.empty()) {
    runtime::StageTimer timer(stage_metrics, "useful_skew");
    std::unordered_set<netlist::CellId> allowed(new_cells.begin(),
                                                new_cells.end());
    const auto skew_result = optimize_useful_skew(
        design, timing_options, options.skew, {},
        options.skew_only_new_mbrs ? &allowed : nullptr, &engine);
    result.skew = skew_result.skew;
    timer.add_items(skew_result.iterations_run);
    guard("useful_skew", result.skew);
  }
  if (options.size_new_mbrs) {
    runtime::StageTimer timer(stage_metrics, "size_mbrs");
    size_new_mbrs(design, new_cells, result.skew, engine);
    timer.add_items(static_cast<std::int64_t>(new_cells.size()));
    guard("size_mbrs", result.skew);
  }

  // Bank/debank loop: repeatedly split the most timing-critical MBRs back
  // into narrow registers, re-legalize them, offer them to scoped
  // recomposition with fresh useful skew, and keep the iteration only if
  // the combined cost (FlowOptions::cost) improved without new hold
  // violations. A rejected iteration is rolled back bit-identically via
  // design snapshot/restore and ends the loop -- the accepted cost
  // trajectory is monotone non-increasing by construction.
  bool debank_accepted_any = false;
  if (options.debank_loop) {
    obs::Span debank_span("flow.debank");
    runtime::StageTimer timer(stage_metrics, "debank_loop");
    static obs::Counter& c_iterations = obs::counter("flow.debank.iterations");
    static obs::Counter& c_accepted = obs::counter("flow.debank.accepted");
    static obs::Counter& c_reverted = obs::counter("flow.debank.reverted");
    static obs::Counter& c_mbrs = obs::counter("flow.debank.mbrs_created");
    const auto combined = [&](const Metrics& m) {
      // Power term: dynamic clock power plus leakage, both in uW.
      return options.cost.combined_cost(
          m.tns, m.clock_power_uw + 1e-3 * m.leakage_nw, m.design.area);
    };

    const Metrics entry = evaluate_design(design, options, result.skew,
                                          &engine);
    double best_cost = combined(entry);
    // Hold protection: an iteration may not add failing hold endpoints
    // beyond what the flow already produced (normally zero).
    const int entry_hold_failures = entry.failing_hold_endpoints;

    for (int iter = 0; iter < options.debank.max_iterations; ++iter) {
      obs::Span iter_span("flow.debank.iteration");
      const netlist::Design::Snapshot saved_design = design.snapshot();
      const sta::SkewMap saved_skew = result.skew;

      const sta::TimingReport& critical_timing = engine.update(result.skew);
      const DebankResult split = debank_critical_registers(
          options.debank, design, critical_timing);
      if (split.banks_split == 0) break;  // nothing critical left to try
      c_iterations.add(1);

      FlowResult::DebankIteration record;
      record.banks_split = split.banks_split;
      record.pieces_created = split.pieces_created;
      record.cost_before = best_cost;

      // The removed banks' skews die with them; the pieces start unskewed
      // (the skew pass below may grant them fresh offsets).
      for (netlist::CellId removed : split.removed) result.skew.erase(removed);

      // The pieces overlap the old footprints and carry unstitched scan
      // pins; repair both before planning on the new state.
      expect.placement_legal = false;
      expect.scan_stitched = false;
      expect.nets_clean = false;
      expect.register_count_bounded = false;
      MBRC_ASSERT_MSG(legalize_new_cells(design, split.pieces).success,
                      "debank legalization failed");
      expect.placement_legal = true;
      restitch_scan_chains(design);
      expect.scan_stitched = true;
      expect.nets_clean = true;
      guard("debank.split", result.skew);

      // Scoped recomposition: only the subgraphs touching the freed pieces
      // are enumerated and solved. The compatibility graph is still built
      // fresh, at O(design) per iteration: splitting and apply_plan_merges
      // are structural edits that move topology_version, and the kept graph
      // of mbr/incremental_graph.hpp handles only moves and swaps. The
      // service session, whose edits keep the topology, plans on such a
      // kept graph instead.
      const sta::TimingReport& replan_timing = engine.update(result.skew);
      CompositionPlan region_plan = plan_composition_region(
          design, replan_timing, split.pieces, composition_options);
      ApplyOutcome applied = apply_plan_merges(
          design, region_plan, options,
          "mbrc_d" + std::to_string(iter) + "_");
      record.mbrs_created = applied.mbrs_created;
      // Merged members die in the rewire; drop their stale skew entries so
      // the map only ever names live registers.
      for (auto it = result.skew.begin(); it != result.skew.end();) {
        if (design.cell(it->first).dead)
          it = result.skew.erase(it);
        else
          ++it;
      }
      if (!applied.new_cells.empty()) {
        expect.placement_legal = false;
        expect.scan_stitched = false;
        expect.nets_clean = false;
        MBRC_ASSERT_MSG(legalize_new_cells(design, applied.new_cells).success,
                        "debank recomposition legalization failed");
        expect.placement_legal = true;
        restitch_scan_chains(design);
        expect.scan_stitched = true;
        expect.nets_clean = true;
      }
      guard("debank.recompose", result.skew);

      // Fresh skew freedom is the point of the split: the surviving pieces
      // and the recomposed MBRs each get their own offset where the old
      // bank had to share one.
      std::vector<netlist::CellId> working = applied.new_cells;
      for (netlist::CellId piece : split.pieces)
        if (!design.cell(piece).dead) working.push_back(piece);
      if (options.apply_useful_skew && !working.empty()) {
        std::unordered_set<netlist::CellId> allowed(working.begin(),
                                                    working.end());
        const auto skew_result = optimize_useful_skew(
            design, timing_options, options.skew, result.skew,
            options.skew_only_new_mbrs ? &allowed : nullptr, &engine);
        result.skew = skew_result.skew;
        guard("debank.useful_skew", result.skew);
      }
      if (options.size_new_mbrs && !working.empty()) {
        size_new_mbrs(design, working, result.skew, engine);
        guard("debank.size_mbrs", result.skew);
      }

      const Metrics trial = evaluate_design(design, options, result.skew,
                                            &engine);
      record.cost_after = combined(trial);
      record.tns = trial.tns;
      record.clock_power_uw = trial.clock_power_uw;
      record.area = trial.design.area;
      const bool improved =
          record.cost_after < best_cost - options.debank.cost_epsilon;
      const bool hold_ok =
          trial.failing_hold_endpoints <= entry_hold_failures;
      record.accepted = improved && hold_ok;
      result.debank_iterations.push_back(record);

      if (record.accepted) {
        debank_accepted_any = true;
        best_cost = record.cost_after;
        result.mbrs_created += applied.mbrs_created;
        result.registers_merged += applied.registers_merged;
        result.rejected_at_mapping += applied.rejected_at_mapping;
        result.incomplete_mbrs += applied.incomplete_mbrs;
        c_accepted.add(1);
        c_mbrs.add(applied.mbrs_created);
      } else {
        // restore() bumps the topology version past every handed-out
        // version, so the engine fully rebuilds on its next update and the
        // later stages see the pre-iteration state bit-identically.
        design.restore(saved_design);
        result.skew = saved_skew;
        c_reverted.add(1);
        break;  // a non-improving perturbation ends the loop
      }
    }
    timer.add_items(
        static_cast<std::int64_t>(result.debank_iterations.size()));
    expect.placement_legal = true;
    expect.scan_stitched = true;
    expect.nets_clean = true;
  }

  {
    runtime::StageTimer timer(stage_metrics, "evaluate.after");
    result.after = evaluate_design(design, options, result.skew, &engine);
  }
  result.final_cost = options.cost.combined_cost(
      result.after.tns,
      result.after.clock_power_uw + 1e-3 * result.after.leakage_nw,
      result.after.design.area);
  // The paper's output guarantee -- composition never increases the
  // register count. An accepted debank iteration deliberately trades count
  // for timing (split pieces may outlive recomposition), so the bound is
  // only enforced when no iteration was kept.
  expect.register_count_bounded = !debank_accepted_any;
  guard("output", result.skew);
  result.total_seconds = total_clock.seconds();
  result.stages = stage_metrics.snapshot();
  return result;
}

}  // namespace

FlowResult run_composition_flow(netlist::Design& design,
                                const FlowOptions& options) {
  // Counter deltas bracket the stages so FlowResult::counters holds only
  // this run's work, comparable across sequential runs and `jobs` values.
  obs::Tracer tracer;
  if (options.trace) {
    tracer.install();
    obs::Tracer::set_thread_label("flow");
  }
  const obs::CountersSnapshot counters_before = obs::counters_snapshot();

  FlowResult result = run_flow_stages(design, options);

  result.counters =
      obs::counters_delta(counters_before, obs::counters_snapshot());
  if (options.trace) {
    // Every stage joined its parallel work, so all spans are closed and the
    // buffers are quiescent — safe to collect.
    tracer.uninstall();
    result.trace = tracer.take();
    if (!options.trace_path.empty()) {
      std::ofstream os(options.trace_path);
      MBRC_ASSERT_MSG(os.good(), "cannot open FlowOptions::trace_path");
      obs::write_chrome_trace(os, result.trace);
    }
  }
  if (!options.report_path.empty()) {
    std::ofstream os(options.report_path);
    MBRC_ASSERT_MSG(os.good(), "cannot open FlowOptions::report_path");
    write_flow_report(os, options, result);
  }
  return result;
}

}  // namespace mbrc::mbr
