#include "netlist/io.hpp"

#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "util/assert.hpp"

namespace mbrc::netlist {

namespace {

const char* kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kRegister: return "register";
    case CellKind::kComb: return "comb";
    case CellKind::kClockBuffer: return "clkbuf";
    case CellKind::kPort: return "port";
  }
  return "?";
}

std::string library_cell_name(const Cell& cell) {
  switch (cell.kind) {
    case CellKind::kRegister: return cell.reg->name;
    case CellKind::kComb: return cell.comb->name;
    case CellKind::kClockBuffer: return cell.buf->name;
    case CellKind::kPort: return "-";
  }
  return "-";
}

}  // namespace

void save_design(const Design& design, std::ostream& os) {
  design.check_consistency();
  os.precision(17);  // round-trip-exact doubles
  os << "mbrc-design 1\n";
  const geom::Rect& core = design.core();
  os << "core " << core.xlo << ' ' << core.ylo << ' ' << core.xhi << ' '
     << core.yhi << '\n';

  // Compact live-cell ids and remember each pin's (cell, ordinal) address.
  std::unordered_map<std::int32_t, int> compact;  // CellId.index -> file idx
  std::unordered_map<std::int32_t, std::pair<int, int>> pin_address;
  const auto live = design.live_cells();
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Cell& cell = design.cell(live[i]);
    compact[live[i].index] = static_cast<int>(i);
    for (std::size_t ordinal = 0; ordinal < cell.pins.size(); ++ordinal)
      pin_address[cell.pins[ordinal].index] = {static_cast<int>(i),
                                               static_cast<int>(ordinal)};
    if (cell.kind == CellKind::kPort) {
      const bool is_input = design.pin(cell.pins.front()).is_output;
      os << "port " << cell.name << ' ' << (is_input ? "in" : "out") << ' '
         << cell.position.x << ' ' << cell.position.y << '\n';
    } else {
      os << "cell " << cell.name << ' ' << kind_name(cell.kind) << ' '
         << library_cell_name(cell) << ' ' << cell.position.x << ' '
         << cell.position.y << ' ' << cell.fixed << ' ' << cell.size_only
         << ' ' << cell.scan.partition << ' ' << cell.scan.section << ' '
         << cell.scan.order << ' ' << cell.gating_group << '\n';
    }
  }

  for (std::int32_t n = 0; n < design.net_count(); ++n) {
    const Net& net = design.net(NetId{n});
    std::vector<PinId> pins;
    if (net.driver.valid()) pins.push_back(net.driver);
    for (PinId s : net.sinks) pins.push_back(s);
    if (pins.empty()) continue;  // dropped: nothing to reconnect
    os << "net " << (net.is_clock ? "clock" : "signal") << ' ' << pins.size();
    for (PinId p : pins) {
      const auto it = pin_address.find(p.index);
      MBRC_ASSERT_MSG(it != pin_address.end(),
                      "net references a pin of a dead cell");
      os << ' ' << it->second.first << ' ' << it->second.second;
    }
    os << '\n';
  }
}

bool save_design_file(const Design& design, const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  save_design(design, os);
  return static_cast<bool>(os);
}

Design load_design(const lib::Library& library, std::istream& is) {
  std::string line;
  MBRC_ASSERT_MSG(std::getline(is, line) && line.rfind("mbrc-design", 0) == 0,
                  "missing mbrc-design header");

  std::optional<Design> design;
  std::vector<CellId> cells;  // by file index

  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "core") {
      // A second core would replace the design while `cells` still holds
      // the discarded one's ids.
      MBRC_ASSERT_MSG(!design.has_value(), "repeated core line");
      geom::Rect core;
      ss >> core.xlo >> core.ylo >> core.xhi >> core.yhi;
      MBRC_ASSERT_MSG(ss && !core.is_empty(), "bad core line");
      design.emplace(&library, core);
    } else if (tag == "cell") {
      MBRC_ASSERT_MSG(design.has_value(), "cell before core");
      std::string name, kind, lib_name;
      geom::Point pos;
      bool fixed = false, size_only = false;
      ScanInfo scan;
      int gating = 0;
      ss >> name >> kind >> lib_name >> pos.x >> pos.y >> fixed >>
          size_only >> scan.partition >> scan.section >> scan.order >> gating;
      MBRC_ASSERT_MSG(static_cast<bool>(ss), "bad cell line: " + line);
      CellId id;
      if (kind == "register") {
        const lib::RegisterCell* cell = library.register_by_name(lib_name);
        MBRC_ASSERT_MSG(cell != nullptr, "unknown register cell " + lib_name);
        id = design->add_register(name, cell, pos);
      } else if (kind == "comb") {
        const lib::CombCell* cell = library.comb_by_name(lib_name);
        MBRC_ASSERT_MSG(cell != nullptr, "unknown comb cell " + lib_name);
        id = design->add_comb(name, cell, pos);
      } else if (kind == "clkbuf") {
        const lib::ClockBufferCell* cell = nullptr;
        for (const auto& buf : library.clock_buffers())
          if (buf.name == lib_name) cell = &buf;
        MBRC_ASSERT_MSG(cell != nullptr, "unknown clock buffer " + lib_name);
        id = design->add_clock_buffer(name, cell, pos);
      } else {
        MBRC_ASSERT_MSG(false, "unknown cell kind " + kind);
      }
      Cell& cell = design->cell(id);
      cell.fixed = fixed;
      cell.size_only = size_only;
      cell.scan = scan;
      cell.gating_group = gating;
      cells.push_back(id);
    } else if (tag == "port") {
      MBRC_ASSERT_MSG(design.has_value(), "port before core");
      std::string name, direction;
      geom::Point pos;
      ss >> name >> direction >> pos.x >> pos.y;
      MBRC_ASSERT_MSG(static_cast<bool>(ss), "bad port line: " + line);
      cells.push_back(design->add_port(name, direction == "in", pos));
    } else if (tag == "net") {
      MBRC_ASSERT_MSG(design.has_value(), "net before core");
      std::string type;
      std::size_t count = 0;
      ss >> type >> count;
      MBRC_ASSERT_MSG(static_cast<bool>(ss), "bad net line: " + line);
      const NetId net = design->create_net(type == "clock");
      for (std::size_t i = 0; i < count; ++i) {
        int cell_index = -1, ordinal = -1;
        ss >> cell_index >> ordinal;
        MBRC_ASSERT_MSG(static_cast<bool>(ss) && cell_index >= 0 &&
                            cell_index < static_cast<int>(cells.size()),
                        "bad net pin reference: " + line);
        const Cell& cell = design->cell(cells[cell_index]);
        MBRC_ASSERT_MSG(ordinal >= 0 &&
                            ordinal < static_cast<int>(cell.pins.size()),
                        "bad pin ordinal: " + line);
        design->connect(cell.pins[ordinal], net);
      }
    } else {
      MBRC_ASSERT_MSG(false, "unknown line tag " + tag);
    }
  }
  MBRC_ASSERT_MSG(design.has_value(), "file had no core line");
  design->check_consistency();
  return std::move(*design);
}

std::optional<Design> load_design_file(const lib::Library& library,
                                       const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  return load_design(library, is);
}

}  // namespace mbrc::netlist
