#include "check/checker.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "sta/timing_engine.hpp"
#include "util/assert.hpp"

namespace mbrc::check {

namespace {

using netlist::CellId;
using netlist::CellKind;
using netlist::Design;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

std::string cell_label(const Design& design, CellId id) {
  const netlist::Cell& c = design.cell(id);
  return c.name + " (cell " + std::to_string(id.index) + ")";
}

/// True when `value` sits on the `step` grid starting at `origin`.
bool on_grid(double value, double origin, double step, double tolerance) {
  const double offset = value - origin;
  const double remainder = offset - std::floor(offset / step + 0.5) * step;
  return std::abs(remainder) <= tolerance;
}

}  // namespace

const char* to_string(CheckLevel level) {
  switch (level) {
    case CheckLevel::kOff: return "off";
    case CheckLevel::kStageBoundaries: return "stage-boundaries";
    case CheckLevel::kParanoid: return "paranoid";
  }
  return "unknown";
}

std::string CheckReport::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i) os << '\n';
    os << violations[i].check << ": " << violations[i].detail;
  }
  return os.str();
}

DesignChecker::Baseline DesignChecker::capture(const Design& design) {
  Baseline baseline;
  for (CellId reg : design.registers()) {
    ++baseline.register_count;
    const netlist::Cell& cell = design.cell(reg);
    for (int b = 0; b < cell.reg->bits; ++b) {
      const PinId d = design.register_d_pin(reg, b);
      if (d.valid() && design.pin(d).net.valid())
        ++baseline.connected_register_bits;
    }
  }
  return baseline;
}

DesignChecker::DesignChecker(const Design& design, CheckerOptions options)
    : design_(design), options_(options) {}

void DesignChecker::add(const char* check, std::string detail) {
  report_.violations.push_back({check, std::move(detail)});
}

DesignChecker& DesignChecker::check_structure() {
  for (std::int32_t i = 0; i < design_.cell_count(); ++i) {
    const CellId cell_id{i};
    const netlist::Cell& cell = design_.cell(cell_id);
    if (cell.kind == CellKind::kRegister) {
      if (cell.reg == nullptr) {
        add("structure", "register without a library cell: " + cell.name);
        continue;
      }
      if (cell.reg->bits <= 0)
        add("structure", "zero-bit register: " + cell_label(design_, cell_id));
    }
    for (PinId pin_id : cell.pins) {
      const netlist::Pin& p = design_.pin(pin_id);
      if (p.cell != cell_id)
        add("structure", "pin " + std::to_string(pin_id.index) +
                             " does not back-reference its cell " +
                             cell_label(design_, cell_id));
      if (cell.dead && p.net.valid())
        add("structure", "dead cell still connected: " +
                             cell_label(design_, cell_id) + " pin " +
                             std::to_string(pin_id.index));
    }
  }

  for (std::int32_t i = 0; i < design_.net_count(); ++i) {
    const NetId net_id{i};
    const netlist::Net& net = design_.net(net_id);
    if (net.driver.valid()) {
      const netlist::Pin& d = design_.pin(net.driver);
      if (!d.is_output || d.net != net_id)
        add("structure",
            "net " + std::to_string(i) + " driver mismatch (pin " +
                std::to_string(net.driver.index) + ")");
    }
    std::unordered_set<std::int32_t> seen;
    for (PinId sink : net.sinks) {
      const netlist::Pin& p = design_.pin(sink);
      if (p.is_output || p.net != net_id)
        add("structure", "net " + std::to_string(i) + " sink mismatch (pin " +
                             std::to_string(sink.index) + ")");
      if (!seen.insert(sink.index).second)
        add("structure", "net " + std::to_string(i) +
                             " lists sink pin " + std::to_string(sink.index) +
                             " more than once");
    }
  }

  for (std::int32_t i = 0; i < design_.pin_count(); ++i) {
    const PinId pin_id{i};
    const netlist::Pin& p = design_.pin(pin_id);
    if (!p.net.valid()) continue;
    const netlist::Net& net = design_.net(p.net);
    if (p.is_output) {
      if (net.driver != pin_id)
        add("structure", "output pin " + std::to_string(i) +
                             " is not the driver of its net " +
                             std::to_string(p.net.index));
    } else if (net.sinks.at_slot(p.sink_slot) != pin_id) {
      add("structure", "input pin " + std::to_string(i) +
                           " missing from the sink list of its net " +
                           std::to_string(p.net.index));
    }
  }
  return *this;
}

DesignChecker& DesignChecker::check_nets() {
  for (std::int32_t i = 0; i < design_.net_count(); ++i) {
    const netlist::Net& net = design_.net(NetId{i});
    if (net.is_clock) continue;
    if (!net.driver.valid() && !net.sinks.empty())
      add("nets", "net " + std::to_string(i) + " has " +
                      std::to_string(net.sinks.size()) +
                      " sink(s) but no driver (floating inputs)");
  }
  return *this;
}

DesignChecker& DesignChecker::check_placement() {
  const geom::Rect& core = design_.core();
  const double tol = options_.position_tolerance;
  const double row_height = options_.grid.row_height;

  struct Placed {
    double x;
    double width;
    CellId cell;
  };
  // Ordered map: overlap reports must come out in row order, not hash order.
  std::map<int, std::vector<Placed>> by_row;

  for (CellId cell_id : design_.live_cells()) {
    const netlist::Cell& cell = design_.cell(cell_id);
    if (cell.kind == CellKind::kPort || cell.width() <= 0.0) continue;
    const geom::Rect fp = cell.footprint();
    if (fp.xlo < core.xlo - tol || fp.xhi > core.xhi + tol ||
        fp.ylo < core.ylo - tol || fp.yhi > core.yhi + tol) {
      add("placement", "cell outside the core: " + cell_label(design_, cell_id));
      continue;
    }
    if (!on_grid(cell.position.y, core.ylo, row_height, tol))
      add("placement", "cell off the row grid (y=" +
                           std::to_string(cell.position.y) + "): " +
                           cell_label(design_, cell_id));
    const int row = static_cast<int>(
        std::floor((cell.position.y - core.ylo) / row_height + 0.5));
    by_row[row].push_back({cell.position.x, cell.width(), cell_id});
  }

  for (auto& [row, cells] : by_row) {
    std::sort(cells.begin(), cells.end(), [](const Placed& a, const Placed& b) {
      if (a.x != b.x) return a.x < b.x;
      return a.cell < b.cell;
    });
    for (std::size_t i = 1; i < cells.size(); ++i) {
      const Placed& prev = cells[i - 1];
      const Placed& next = cells[i];
      if (prev.x + prev.width > next.x + tol)
        add("placement", "overlap in row " + std::to_string(row) + ": " +
                             cell_label(design_, prev.cell) + " and " +
                             cell_label(design_, next.cell));
    }
  }
  return *this;
}

DesignChecker& DesignChecker::check_scan_chains() {
  // Scan elements: (SI, SO) pin pairs in chain order, per register.
  struct Element {
    CellId reg;
    PinId si;
    PinId so;
    bool first_of_register = false;
  };
  // Ordered map: chain diagnostics must come out in partition order.
  std::map<int, std::vector<Element>> partitions;
  for (CellId reg : design_.registers()) {
    const netlist::Cell& cell = design_.cell(reg);
    if (!cell.reg->function.is_scan || cell.scan.partition < 0) continue;
    std::vector<PinId> si, so;
    for (PinId pin_id : cell.pins) {
      const netlist::Pin& p = design_.pin(pin_id);
      if (p.role == PinRole::kScanIn) si.push_back(pin_id);
      if (p.role == PinRole::kScanOut) so.push_back(pin_id);
    }
    const auto by_bit = [&](PinId a, PinId b) {
      return design_.pin(a).bit < design_.pin(b).bit;
    };
    std::sort(si.begin(), si.end(), by_bit);
    std::sort(so.begin(), so.end(), by_bit);
    if (si.size() != so.size() || si.empty()) {
      add("scan", "register with mismatched SI/SO pins: " +
                      cell_label(design_, reg));
      continue;
    }
    auto& elements = partitions[cell.scan.partition];
    for (std::size_t b = 0; b < si.size(); ++b)
      elements.push_back({reg, si[b], so[b], b == 0});
  }

  for (const auto& [partition, elements] : partitions) {
    const std::string where = " in scan partition " + std::to_string(partition);

    // SI pin -> element index, and per-element successor via the SO net.
    std::unordered_map<std::int32_t, std::size_t> element_of_si;
    for (std::size_t e = 0; e < elements.size(); ++e)
      element_of_si.emplace(elements[e].si.index, e);

    std::vector<std::size_t> heads;
    std::vector<int> successor(elements.size(), -1);
    bool linked = true;
    for (std::size_t e = 0; e < elements.size(); ++e) {
      const Element& element = elements[e];
      if (!design_.pin(element.si).net.valid()) heads.push_back(e);
      const NetId so_net = design_.pin(element.so).net;
      if (!so_net.valid()) continue;  // tail
      const netlist::Net& net = design_.net(so_net);
      if (net.sinks.size() != 1) {
        add("scan", "scan link net " + std::to_string(so_net.index) + " of " +
                        cell_label(design_, element.reg) + " has " +
                        std::to_string(net.sinks.size()) + " sinks" + where);
        linked = false;
        continue;
      }
      const auto it = element_of_si.find(net.sinks.front().index);
      if (it == element_of_si.end()) {
        add("scan", "scan link from " + cell_label(design_, element.reg) +
                        " leaves the partition" + where);
        linked = false;
        continue;
      }
      successor[e] = static_cast<int>(it->second);
    }
    if (!linked) continue;
    if (heads.size() != 1) {
      add("scan", std::to_string(heads.size()) + " chain heads (expected 1)" +
                      where);
      continue;
    }

    // Walk the chain: every element exactly once, no cycle.
    std::vector<bool> visited(elements.size(), false);
    std::size_t count = 0;
    int cursor = static_cast<int>(heads.front());
    int last_section = -1;
    int last_order = -1;
    while (cursor >= 0) {
      if (visited[static_cast<std::size_t>(cursor)]) {
        add("scan", "cycle detected" + where);
        break;
      }
      visited[static_cast<std::size_t>(cursor)] = true;
      ++count;
      const Element& element = elements[static_cast<std::size_t>(cursor)];
      const netlist::ScanInfo& scan = design_.cell(element.reg).scan;
      if (element.first_of_register && scan.section >= 0) {
        if (scan.section < last_section ||
            (scan.section == last_section && scan.order <= last_order))
          add("scan", "ordered section out of sequence at " +
                          cell_label(design_, element.reg) + " (section " +
                          std::to_string(scan.section) + ", order " +
                          std::to_string(scan.order) + ")" + where);
        last_section = scan.section;
        last_order = scan.order;
      }
      cursor = successor[static_cast<std::size_t>(cursor)];
    }
    if (count != elements.size())
      add("scan", "chain links " + std::to_string(count) + " of " +
                      std::to_string(elements.size()) + " scan elements" +
                      where);
  }
  return *this;
}

DesignChecker& DesignChecker::check_conservation(const Baseline& baseline,
                                                 bool require_count_bounded) {
  const Baseline now = capture(design_);
  if (now.connected_register_bits != baseline.connected_register_bits)
    add("conservation",
        "connected register bits changed: " +
            std::to_string(baseline.connected_register_bits) + " -> " +
            std::to_string(now.connected_register_bits));
  if (require_count_bounded && now.register_count > baseline.register_count)
    add("conservation", "register count increased: " +
                            std::to_string(baseline.register_count) + " -> " +
                            std::to_string(now.register_count));
  return *this;
}

DesignChecker& DesignChecker::check_timing(sta::TimingEngine& engine) {
  MBRC_ASSERT(&engine.design() == &design_);
  const sta::TimingReport fresh =
      run_sta(design_, engine.options(), engine.skew());
  const sta::TimingReport& incremental = engine.refresh();

  int mismatches = 0;
  const auto compare_array = [&](const char* name,
                                 const std::vector<double>& a,
                                 const std::vector<double>& b) {
    if (a.size() != b.size()) {
      add("timing", std::string(name) + " size mismatch: engine " +
                        std::to_string(a.size()) + " vs run_sta " +
                        std::to_string(b.size()));
      return;
    }
    for (std::size_t i = 0; i < a.size() && mismatches < 8; ++i) {
      if (a[i] == b[i]) continue;
      ++mismatches;
      std::ostringstream os;
      os << name << '[' << i << "] diverged: engine " << a[i] << " vs run_sta "
         << b[i];
      add("timing", os.str());
    }
  };
  compare_array("arrival", incremental.arrival, fresh.arrival);
  compare_array("arrival_min", incremental.arrival_min, fresh.arrival_min);
  compare_array("required", incremental.required, fresh.required);
  compare_array("required_min", incremental.required_min, fresh.required_min);

  if (incremental.endpoints.size() != fresh.endpoints.size()) {
    add("timing", "endpoint count mismatch: engine " +
                      std::to_string(incremental.endpoints.size()) +
                      " vs run_sta " + std::to_string(fresh.endpoints.size()));
  } else {
    for (std::size_t i = 0;
         i < fresh.endpoints.size() && mismatches < 8; ++i) {
      const sta::EndpointSlack& a = incremental.endpoints[i];
      const sta::EndpointSlack& b = fresh.endpoints[i];
      if (a.pin == b.pin && a.slack == b.slack && a.hold_slack == b.hold_slack)
        continue;
      ++mismatches;
      std::ostringstream os;
      os << "endpoint[" << i << "] diverged: engine (pin " << a.pin.index
         << ", " << a.slack << ", " << a.hold_slack << ") vs run_sta (pin "
         << b.pin.index << ", " << b.slack << ", " << b.hold_slack << ')';
      add("timing", os.str());
    }
  }
  // The repaired aggregates against the fresh build's: they depend only on
  // the endpoint slacks, so they match bit for bit, TNS included.
  const sta::TimingSummary a = incremental.summary();
  const sta::TimingSummary b = fresh.summary();
  const auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (!same_bits(a.wns, b.wns) || !same_bits(a.tns, b.tns) ||
      !same_bits(a.hold_wns, b.hold_wns) ||
      a.failing_endpoints != b.failing_endpoints ||
      a.failing_hold_endpoints != b.failing_hold_endpoints) {
    std::ostringstream os;
    os.precision(17);
    os << "summary diverged: engine (wns " << a.wns << ", tns " << a.tns
       << ", failing " << a.failing_endpoints << ", hold wns " << a.hold_wns
       << ", hold failing " << a.failing_hold_endpoints << ") vs run_sta (wns "
       << b.wns << ", tns " << b.tns << ", failing " << b.failing_endpoints
       << ", hold wns " << b.hold_wns << ", hold failing "
       << b.failing_hold_endpoints << ')';
    add("timing", os.str());
  }
  return *this;
}

void enforce_stage(const Design& design, const char* stage, CheckLevel level,
                   const StageExpectations& expect,
                   const DesignChecker::Baseline& baseline,
                   sta::TimingEngine* engine, const sta::SkewMap& skew,
                   const CheckerOptions& options) {
  if (level == CheckLevel::kOff) return;
  DesignChecker checker(design, options);
  checker.check_structure().check_conservation(baseline,
                                               expect.register_count_bounded);
  if (expect.scan_stitched) checker.check_nets();
  if (expect.placement_legal) checker.check_placement();
  if (expect.scan_stitched) checker.check_scan_chains();
  if (level == CheckLevel::kParanoid && engine) {
    engine->assign_skew(skew);
    checker.check_timing(*engine);
  }
  if (!checker.report().ok())
    throw util::AssertionError("flow-integrity violation at stage '" +
                               std::string(stage) + "':\n" +
                               checker.report().to_string());
}

}  // namespace mbrc::check
