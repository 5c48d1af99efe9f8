#include "service/session.hpp"

#include <algorithm>
#include <cmath>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mbrc::service {

Session::Session(const lib::Library& library, netlist::Design design,
                 SessionOptions options)
    : library_(library),
      design_(std::move(design)),
      options_(options),
      engine_(design_, options.timing),
      graph_(design_, mbr::compatibility_with_jobs(options.composition)),
      baseline_(check::DesignChecker::capture(design_)) {}

std::string Session::validate(const Edit& edit) const {
  if (!edit.cell.valid() || edit.cell.index >= design_.cell_count())
    return "unknown cell id";
  const netlist::Cell& cell = design_.cell(edit.cell);
  if (cell.dead) return "cell is dead: " + cell.name;

  switch (edit.op) {
    case Edit::Op::kMove: {
      if (cell.kind == netlist::CellKind::kPort)
        return "cannot move a port: " + cell.name;
      if (cell.fixed) return "cell is dont_touch: " + cell.name;
      if (!std::isfinite(edit.x) || !std::isfinite(edit.y))
        return "non-finite position";
      const geom::Rect& core = design_.core();
      if (edit.x < core.xlo || edit.x + cell.width() > core.xhi ||
          edit.y < core.ylo || edit.y + cell.height() > core.yhi)
        return "move places " + cell.name + " outside the core";
      return {};
    }
    case Edit::Op::kSwap: {
      if (cell.kind != netlist::CellKind::kRegister)
        return "swap target is not a register: " + cell.name;
      if (cell.fixed) return "cell is dont_touch: " + cell.name;
      const lib::RegisterCell* variant =
          library_.register_by_name(edit.variant);
      if (variant == nullptr)
        return "unknown library cell: " + edit.variant;
      if (!lib::is_drive_variant(*variant, *cell.reg))
        return "variant " + edit.variant + " is not equivalent to " +
               cell.reg->name;
      return {};
    }
    case Edit::Op::kSkew: {
      if (cell.kind != netlist::CellKind::kRegister)
        return "skew target is not a register: " + cell.name;
      if (!edit.clear_skew && !std::isfinite(edit.skew))
        return "non-finite skew";
      return {};
    }
  }
  return "unknown edit op";
}

void Session::note_touched(netlist::CellId cell) {
  if (design_.cell(cell).kind == netlist::CellKind::kRegister)
    touched_.insert(cell);
}

void Session::apply_one(const Edit& edit) {
  switch (edit.op) {
    case Edit::Op::kMove: {
      netlist::Cell& cell = design_.cell(edit.cell);
      cell.position = {edit.x, edit.y};
      design_.notify_moved(edit.cell);
      break;
    }
    case Edit::Op::kSwap: {
      const lib::RegisterCell* variant =
          library_.register_by_name(edit.variant);
      if (variant != design_.cell(edit.cell).reg)
        design_.swap_register_cell(edit.cell, variant);
      break;
    }
    case Edit::Op::kSkew: {
      if (edit.clear_skew)
        engine_.clear_skew(edit.cell);
      else
        engine_.set_skew(edit.cell, edit.skew);
      break;
    }
  }
  note_touched(edit.cell);
}

EditOutcome Session::apply(const std::vector<Edit>& edits) {
  obs::Span span("service.session.apply");
  static obs::Counter& c_edits = obs::counter("service.edits.applied");
  static obs::Counter& c_rejected = obs::counter("service.edits.rejected");

  EditOutcome outcome;
  for (std::size_t i = 0; i < edits.size(); ++i) {
    outcome.error = validate(edits[i]);
    if (!outcome.error.empty()) {
      outcome.error_index = static_cast<int>(i);
      c_rejected.add(1);
      break;
    }
    apply_one(edits[i]);
    ++outcome.applied;
  }
  c_edits.add(outcome.applied);
  outcome.topology_version = design_.topology_version();
  outcome.journal_length = design_.touched_cells().size();

  if (outcome.ok() && options_.check_level != check::CheckLevel::kOff) {
    check::DesignChecker checker(design_);
    checker.check_structure().check_nets().check_conservation(baseline_);
    if (!checker.report().ok()) {
      outcome.error = "post-edit check failed: " + checker.report().to_string();
      outcome.check_failed = true;
    }
  }
  return outcome;
}

TimingAnswer Session::query(const TimingQuery& query) {
  obs::Span span("service.session.query");

  TimingAnswer answer;
  for (netlist::PinId pin : query.pins)
    if (!pin.valid() || pin.index >= design_.pin_count()) {
      answer.error = "unknown pin id";
      return answer;
    }
  for (netlist::CellId cell : query.registers) {
    if (!cell.valid() || cell.index >= design_.cell_count() ||
        design_.cell(cell).dead ||
        design_.cell(cell).kind != netlist::CellKind::kRegister) {
      answer.error = "unknown register id";
      return answer;
    }
  }

  const sta::TimingReport& report = engine_.refresh();
  const sta::TimingSummary summary = report.summary();
  answer.wns = summary.wns;
  answer.tns = summary.tns;
  answer.failing_endpoints = summary.failing_endpoints;
  answer.total_endpoints = report.total_endpoints();
  answer.hold_wns = summary.hold_wns;
  for (netlist::PinId pin : query.pins)
    answer.pins.push_back({pin, report.slack(pin), report.hold_slack(pin)});
  for (netlist::CellId cell : query.registers)
    answer.registers.push_back({cell, report.register_d_slack(design_, cell),
                                report.register_q_slack(design_, cell)});
  answer.full_builds = engine_.stats().full_builds;
  answer.incremental_updates = engine_.stats().incremental_updates;
  answer.repaired_pins = engine_.stats().last_repaired_pins;

  if (options_.check_level == check::CheckLevel::kParanoid) {
    check::DesignChecker checker(design_);
    checker.check_timing(engine_);
    if (!checker.report().ok()) {
      answer.error =
          "paranoid timing cross-check failed: " + checker.report().to_string();
      answer.check_failed = true;
    }
  }
  return answer;
}

RecomposeAnswer Session::recompose(const std::vector<netlist::CellId>& region,
                                   const std::optional<mbr::CostModel>& cost) {
  obs::Span span("service.session.recompose");
  static obs::Counter& c_subgraphs = obs::counter("service.recompose.subgraphs");

  RecomposeAnswer answer;
  std::vector<netlist::CellId> cells;
  if (!region.empty()) {
    for (netlist::CellId cell : region) {
      if (!cell.valid() || cell.index >= design_.cell_count() ||
          design_.cell(cell).dead ||
          design_.cell(cell).kind != netlist::CellKind::kRegister) {
        answer.error = "unknown register id in region";
        return answer;
      }
    }
    cells = region;
  } else {
    cells.assign(touched_.begin(), touched_.end());
    touched_.clear();
  }
  answer.region_registers = static_cast<int>(cells.size());
  if (cells.empty()) return answer;  // nothing touched: empty plan

  engine_.refresh();
  graph_.sync(engine_);
  mbr::CompositionOptions composition = options_.composition;
  if (cost) composition.enumeration.cost = *cost;
  const mbr::CompositionPlan plan = mbr::plan_on_graph(
      graph_.graph(), graph_.blockers(), design_,
      mbr::region_nodes(graph_.graph(), cells), composition);

  answer.subgraphs = plan.subgraph_count;
  answer.candidates = plan.candidate_count;
  answer.ilp_nodes = plan.ilp_nodes;
  answer.objective = plan.objective;
  for (const mbr::Selection* merge : plan.merges()) {
    ++answer.planned_mbrs;
    answer.merged_registers += static_cast<int>(merge->members.size());
  }
  c_subgraphs.add(answer.subgraphs);
  return answer;
}

check::CheckReport Session::check(bool include_placement) {
  obs::Span span("service.session.check");
  check::DesignChecker checker(design_);
  // Placement legality is checked only on request: service edits are raw
  // placement moves; row legality is the batch legalizer's contract.
  checker.check_structure().check_nets().check_scan_chains().
      check_conservation(baseline_);
  if (include_placement) checker.check_placement();
  if (options_.check_level == check::CheckLevel::kParanoid)
    checker.check_timing(engine_);
  return checker.report();
}

Session::SnapshotOutcome Session::snapshot(const std::string& name) {
  obs::Span span("service.session.snapshot");
  SnapshotOutcome outcome;
  if (name.empty()) {
    outcome.error = "snapshot name must be non-empty";
    return outcome;
  }
  if (snapshots_.find(name) == snapshots_.end() &&
      snapshots_.size() >= options_.max_snapshots) {
    outcome.error = "snapshot limit reached";
    outcome.snapshot_count = snapshots_.size();
    return outcome;
  }
  snapshots_[name] = Saved{design_.snapshot(), engine_.skew(), touched_};
  outcome.snapshot_count = snapshots_.size();
  return outcome;
}

Session::SnapshotOutcome Session::rollback(const std::string& name) {
  obs::Span span("service.session.rollback");
  SnapshotOutcome outcome;
  const auto it = snapshots_.find(name);
  if (it == snapshots_.end()) {
    outcome.error = "unknown snapshot: " + name;
    outcome.snapshot_count = snapshots_.size();
    return outcome;
  }
  design_.restore(it->second.design);
  // The restore forces a rebuild, which seeds every register from this map.
  engine_.assign_skew(it->second.skew);
  touched_ = it->second.touched;
  outcome.snapshot_count = snapshots_.size();
  return outcome;
}

}  // namespace mbrc::service
