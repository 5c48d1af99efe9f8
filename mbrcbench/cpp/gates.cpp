#include "gates.hpp"

#include "common.hpp"

namespace mbrcbench {

namespace mc = mbrc::check;

mc::CheckReport check_flow_output(const mbrc::netlist::Design& design,
                                  const mc::DesignChecker::Baseline& baseline) {
  mc::DesignChecker checker(design);
  checker.check_structure()
      .check_nets()
      .check_placement()
      .check_scan_chains()
      .check_conservation(baseline);
  return checker.report();
}

std::uint64_t plan_digest(const mbrc::mbr::CompositionPlan& plan) {
  Digest d;
  d.add(plan.objective);
  d.add(static_cast<std::int64_t>(plan.selections.size()));
  for (const mbrc::mbr::Selection& s : plan.selections) {
    d.add(static_cast<std::int64_t>(s.members.size()));
    for (mbrc::netlist::CellId cell : s.members)
      d.add(static_cast<std::int64_t>(cell.index));
  }
  return d.value();
}

std::uint64_t metrics_digest(const mbrc::mbr::Metrics& m) {
  Digest d;
  d.add(m.design.cells);
  d.add(m.design.area);
  d.add(m.design.total_registers);
  d.add(m.design.register_bits);
  d.add(m.design.clock_buffers);
  d.add(m.design.clock_pin_cap);
  d.add(static_cast<std::int64_t>(m.composable_registers));
  for (double v : {m.wns, m.tns, m.hold_wns, m.clock_cap, m.clock_power_uw,
                   m.leakage_nw, m.clock_wire, m.signal_wire,
                   m.max_congestion})
    d.add(v);
  for (int v : {m.failing_endpoints, m.total_endpoints,
                m.failing_hold_endpoints, m.clock_buffers, m.overflow_edges})
    d.add(static_cast<std::int64_t>(v));
  return d.value();
}

std::uint64_t flow_digest(const mbrc::mbr::FlowResult& result) {
  Digest d;
  for (const auto& [name, value] : result.counters.counters) {
    d.add(name);
    d.add(value);
  }
  for (const auto& [name, hist] : result.counters.histograms) {
    d.add(name);
    d.add(hist.count);
    d.add(hist.sum);
  }
  d.add(static_cast<std::int64_t>(metrics_digest(result.after)));
  d.add(static_cast<std::int64_t>(plan_digest(result.plan)));
  return d.value();
}

bool ResponseTally::score(std::string_view response) {
  ++attempted;
  const bool ok = response.find("\"ok\":true") != std::string_view::npos;
  if (!ok) ++failed;
  return ok;
}

}  // namespace mbrcbench
