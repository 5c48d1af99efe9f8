#include "netlist/design.hpp"

#include <algorithm>

namespace mbrc::netlist {

double Cell::width() const {
  switch (kind) {
    case CellKind::kRegister: return reg->width;
    case CellKind::kComb: return comb->width;
    case CellKind::kClockBuffer: return buf->area / 1.8;
    case CellKind::kPort: return 0.0;
  }
  return 0.0;
}

double Cell::height() const {
  switch (kind) {
    case CellKind::kRegister: return reg->height;
    case CellKind::kComb: return comb->height;
    case CellKind::kClockBuffer: return 1.8;
    case CellKind::kPort: return 0.0;
  }
  return 0.0;
}

double Cell::area() const {
  switch (kind) {
    case CellKind::kRegister: return reg->area;
    case CellKind::kComb: return comb->area;
    case CellKind::kClockBuffer: return buf->area;
    case CellKind::kPort: return 0.0;
  }
  return 0.0;
}

bool operator==(const SinkList& a, const SinkList& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

PinId Design::add_pin(CellId cell, PinRole role, bool is_output, int bit,
                      geom::Point offset, double cap) {
  ++topology_version_;
  const PinId id{static_cast<std::int32_t>(pins_.size())};
  pins_.push_back({cell, NetId{}, role, is_output, bit, -1, offset, cap});
  cells_[cell.index].pins.push_back(id);
  return id;
}

CellId Design::add_register(std::string name, const lib::RegisterCell* cell,
                            geom::Point position) {
  MBRC_ASSERT(cell != nullptr);
  const CellId id{static_cast<std::int32_t>(cells_.size())};
  Cell c;
  c.name = std::move(name);
  c.kind = CellKind::kRegister;
  c.reg = cell;
  c.position = position;
  cells_.push_back(std::move(c));

  for (int b = 0; b < cell->bits; ++b)
    add_pin(id, PinRole::kD, false, b, cell->d_pin_offsets[b],
            cell->data_pin_cap);
  for (int b = 0; b < cell->bits; ++b)
    add_pin(id, PinRole::kQ, true, b, cell->q_pin_offsets[b], 0.0);
  add_pin(id, PinRole::kClock, false, -1, cell->clock_pin_offset,
          cell->clock_pin_cap);

  const geom::Point ctrl{0.0, cell->height / 2};
  const double ctrl_cap = 0.6;  // fF, generic control pin
  if (cell->function.has_reset)
    add_pin(id, PinRole::kReset, false, -1, ctrl, ctrl_cap);
  if (cell->function.has_set)
    add_pin(id, PinRole::kSet, false, -1, ctrl, ctrl_cap);
  if (cell->function.has_enable)
    add_pin(id, PinRole::kEnable, false, -1, ctrl, ctrl_cap);

  if (cell->function.is_scan) {
    add_pin(id, PinRole::kScanEnable, false, -1, ctrl, ctrl_cap);
    if (cell->scan_style == lib::ScanStyle::kPerBitPins && cell->bits > 1) {
      for (int b = 0; b < cell->bits; ++b) {
        add_pin(id, PinRole::kScanIn, false, b, cell->d_pin_offsets[b],
                cell->data_pin_cap);
        add_pin(id, PinRole::kScanOut, true, b, cell->q_pin_offsets[b], 0.0);
      }
    } else {
      // Internal chain (or 1-bit): one SI at the first bit, one SO at the
      // last bit.
      add_pin(id, PinRole::kScanIn, false, 0, cell->d_pin_offsets.front(),
              cell->data_pin_cap);
      add_pin(id, PinRole::kScanOut, true, cell->bits - 1,
              cell->q_pin_offsets.back(), 0.0);
    }
  }
  return id;
}

CellId Design::add_comb(std::string name, const lib::CombCell* cell,
                        geom::Point position) {
  MBRC_ASSERT(cell != nullptr);
  const CellId id{static_cast<std::int32_t>(cells_.size())};
  Cell c;
  c.name = std::move(name);
  c.kind = CellKind::kComb;
  c.comb = cell;
  c.position = position;
  cells_.push_back(std::move(c));

  const geom::Point center{cell->width / 2, cell->height / 2};
  for (int i = 0; i < cell->fanin; ++i)
    add_pin(id, PinRole::kCombIn, false, i, center, cell->input_pin_cap);
  add_pin(id, PinRole::kCombOut, true, -1, center, 0.0);
  return id;
}

CellId Design::add_clock_buffer(std::string name,
                                const lib::ClockBufferCell* cell,
                                geom::Point position) {
  MBRC_ASSERT(cell != nullptr);
  const CellId id{static_cast<std::int32_t>(cells_.size())};
  Cell c;
  c.name = std::move(name);
  c.kind = CellKind::kClockBuffer;
  c.buf = cell;
  c.position = position;
  cells_.push_back(std::move(c));

  const geom::Point center{cell->area / 3.6, 0.9};
  add_pin(id, PinRole::kBufIn, false, -1, center, cell->input_pin_cap);
  add_pin(id, PinRole::kBufOut, true, -1, center, 0.0);
  return id;
}

CellId Design::add_port(std::string name, bool is_input,
                        geom::Point position) {
  const CellId id{static_cast<std::int32_t>(cells_.size())};
  Cell c;
  c.name = std::move(name);
  c.kind = CellKind::kPort;
  c.position = position;
  cells_.push_back(std::move(c));
  // An input port drives its net; an output port is a sink.
  add_pin(id, PinRole::kPort, is_input, -1, {0, 0}, is_input ? 0.0 : 0.4);
  return id;
}

NetId Design::create_net(bool is_clock) {
  ++topology_version_;
  const NetId id{static_cast<std::int32_t>(nets_.size())};
  Net net;
  net.is_clock = is_clock;
  nets_.push_back(std::move(net));
  return id;
}

void Design::connect(PinId pin_id, NetId net_id) {
  ++topology_version_;
  Pin& p = pins_[pin_id.index];
  MBRC_ASSERT_MSG(!p.net.valid(), "pin already connected; disconnect first");
  Net& n = nets_[net_id.index];
  if (p.is_output) {
    MBRC_ASSERT_MSG(!n.driver.valid(), "net already has a driver");
    n.driver = pin_id;
  } else {
    p.sink_slot = static_cast<std::int32_t>(n.sinks.slots_.size());
    n.sinks.slots_.push_back(pin_id);
    ++n.sinks.live_;
  }
  p.net = net_id;
}

void Design::disconnect(PinId pin_id) {
  Pin& p = pins_[pin_id.index];
  if (!p.net.valid()) return;
  ++topology_version_;
  Net& n = nets_[p.net.index];
  if (p.is_output && n.driver == pin_id) {
    n.driver = PinId{};
  } else {
    SinkList& sinks = n.sinks;
    MBRC_ASSERT_MSG(sinks.at_slot(p.sink_slot) == pin_id,
                    "input pin missing from its net's sink list");
    sinks.slots_[static_cast<std::size_t>(p.sink_slot)] = PinId{};
    --sinks.live_;
    p.sink_slot = -1;
    ++sink_entries_scanned_;
    // Holes outnumber live entries: compact stably, so storage stays under
    // twice the live count and each removal pays amortized O(1).
    const std::size_t holes = sinks.slots_.size() - sinks.size();
    if (holes > sinks.size()) {
      sink_entries_scanned_ += static_cast<std::int64_t>(sinks.slots_.size());
      std::size_t kept = 0;
      for (const PinId sink : sinks.slots_) {
        if (!sink.valid()) continue;
        pins_[sink.index].sink_slot = static_cast<std::int32_t>(kept);
        sinks.slots_[kept++] = sink;
      }
      sinks.slots_.resize(kept);
    }
  }
  p.net = NetId{};
}

void Design::remove_cell(CellId cell_id) {
  Cell& c = cells_[cell_id.index];
  MBRC_ASSERT_MSG(!c.dead, "cell removed twice: " + c.name);
  for (PinId pin_id : c.pins) disconnect(pin_id);
  ++topology_version_;  // even a fully-disconnected cell leaves the graph
  c.dead = true;
}

void Design::swap_register_cell(CellId cell_id,
                                const lib::RegisterCell* replacement) {
  MBRC_ASSERT(replacement != nullptr);
  Cell& c = cells_[cell_id.index];
  MBRC_ASSERT(c.kind == CellKind::kRegister && !c.dead);
  MBRC_ASSERT_MSG(lib::is_drive_variant(*c.reg, *replacement),
                  "swap_register_cell requires an equivalent cell");
  touched_cells_.push_back(cell_id);  // a sizing move keeps the topology
  c.reg = replacement;
  for (PinId pin_id : c.pins) {
    Pin& p = pins_[pin_id.index];
    switch (p.role) {
      case PinRole::kD:
        p.offset = replacement->d_pin_offsets[p.bit];
        p.cap = replacement->data_pin_cap;
        break;
      case PinRole::kQ:
        p.offset = replacement->q_pin_offsets[p.bit];
        break;
      case PinRole::kClock:
        p.offset = replacement->clock_pin_offset;
        p.cap = replacement->clock_pin_cap;
        break;
      case PinRole::kScanIn:
        p.offset = replacement->d_pin_offsets[p.bit];
        p.cap = replacement->data_pin_cap;
        break;
      case PinRole::kScanOut:
        p.offset = replacement->q_pin_offsets[p.bit];
        break;
      default:
        p.offset = {0.0, replacement->height / 2};
        break;
    }
  }
}

Design::Snapshot Design::snapshot() const {
  Snapshot s;
  s.cells = cells_;
  s.pins = pins_;
  s.nets = nets_;
  s.topology_version = topology_version_;
  s.touched_cells = touched_cells_;
  return s;
}

void Design::restore(const Snapshot& snapshot) {
  MBRC_ASSERT_MSG(snapshot.topology_version <= topology_version_,
                  "snapshot is from a different (or newer) design");
  cells_ = snapshot.cells;
  pins_ = snapshot.pins;
  nets_ = snapshot.nets;
  touched_cells_ = snapshot.touched_cells;
  // Monotonic bump past every version observers may have seen: rolling back
  // must read as a structural change, never as "nothing happened".
  ++topology_version_;
}

std::vector<CellId> Design::live_cells() const {
  std::vector<CellId> out;
  out.reserve(cells_.size());
  for (std::int32_t i = 0; i < cell_count(); ++i)
    if (!cells_[i].dead) out.push_back(CellId{i});
  return out;
}

std::vector<CellId> Design::registers() const {
  std::vector<CellId> out;
  for (std::int32_t i = 0; i < cell_count(); ++i)
    if (!cells_[i].dead && cells_[i].kind == CellKind::kRegister)
      out.push_back(CellId{i});
  return out;
}

namespace {

PinId find_pin(const Design& design, const Cell& cell, PinRole role, int bit) {
  for (PinId pin_id : cell.pins) {
    const Pin& p = design.pin(pin_id);
    if (p.role == role && (bit < 0 || p.bit == bit)) return pin_id;
  }
  return PinId{};
}

}  // namespace

PinId Design::register_d_pin(CellId cell_id, int bit) const {
  const Cell& c = cells_[cell_id.index];
  MBRC_ASSERT(c.kind == CellKind::kRegister && bit >= 0 && bit < c.reg->bits);
  return find_pin(*this, c, PinRole::kD, bit);
}

PinId Design::register_q_pin(CellId cell_id, int bit) const {
  const Cell& c = cells_[cell_id.index];
  MBRC_ASSERT(c.kind == CellKind::kRegister && bit >= 0 && bit < c.reg->bits);
  return find_pin(*this, c, PinRole::kQ, bit);
}

PinId Design::register_clock_pin(CellId cell_id) const {
  const Cell& c = cells_[cell_id.index];
  MBRC_ASSERT(c.kind == CellKind::kRegister);
  return find_pin(*this, c, PinRole::kClock, -1);
}

PinId Design::register_control_pin(CellId cell_id, PinRole role) const {
  const Cell& c = cells_[cell_id.index];
  MBRC_ASSERT(c.kind == CellKind::kRegister);
  return find_pin(*this, c, role, -1);
}

NetId Design::register_clock_net(CellId cell_id) const {
  return register_control_net(cell_id, PinRole::kClock);
}

NetId Design::register_control_net(CellId cell_id, PinRole role) const {
  const PinId pin = register_control_pin(cell_id, role);
  return pin.valid() ? pins_[pin.index].net : NetId{};
}

DesignStats Design::stats() const {
  DesignStats s;
  for (const Cell& c : cells_) {
    if (c.dead || c.kind == CellKind::kPort) continue;
    ++s.cells;
    s.area += c.area();
    switch (c.kind) {
      case CellKind::kRegister:
        ++s.total_registers;
        s.register_bits += c.reg->bits;
        s.clock_pin_cap += c.reg->clock_pin_cap;
        break;
      case CellKind::kClockBuffer:
        ++s.clock_buffers;
        break;
      default:
        break;
    }
  }
  return s;
}

double Design::net_hpwl(NetId net_id) const {
  const Net& n = nets_[net_id.index];
  geom::Rect box = geom::Rect::empty();
  int pins = 0;
  if (n.driver.valid()) {
    box = box.expand(pin_position(n.driver));
    ++pins;
  }
  for (PinId s : n.sinks) {
    box = box.expand(pin_position(s));
    ++pins;
  }
  return pins >= 2 ? box.half_perimeter() : 0.0;
}

Design::WireLength Design::wire_length() const {
  WireLength wl;
  for (std::int32_t i = 0; i < net_count(); ++i) {
    const double h = net_hpwl(NetId{i});
    if (nets_[i].is_clock)
      wl.clock += h;
    else
      wl.other += h;
  }
  return wl;
}

void Design::check_consistency() const {
  for (std::int32_t i = 0; i < cell_count(); ++i) {
    const Cell& c = cells_[i];
    for (PinId pin_id : c.pins) {
      const Pin& p = pins_[pin_id.index];
      MBRC_ASSERT_MSG(p.cell == CellId{i}, "pin does not point at its cell");
      if (c.dead)
        MBRC_ASSERT_MSG(!p.net.valid(), "dead cell still connected: " + c.name);
    }
  }
  for (std::int32_t i = 0; i < net_count(); ++i) {
    const Net& n = nets_[i];
    if (n.driver.valid()) {
      const Pin& d = pins_[n.driver.index];
      MBRC_ASSERT_MSG(d.is_output && d.net == NetId{i},
                      "net driver mismatch");
    }
    for (PinId s : n.sinks) {
      const Pin& p = pins_[s.index];
      MBRC_ASSERT_MSG(!p.is_output && p.net == NetId{i}, "net sink mismatch");
    }
  }
  for (std::int32_t i = 0; i < pin_count(); ++i) {
    const Pin& p = pins_[i];
    if (!p.net.valid()) continue;
    const Net& n = nets_[p.net.index];
    if (p.is_output) {
      MBRC_ASSERT_MSG(n.driver == PinId{i}, "output pin not the net driver");
    } else {
      MBRC_ASSERT_MSG(n.sinks.at_slot(p.sink_slot) == PinId{i},
                      "input pin missing from net sink list");
    }
  }
}

}  // namespace mbrc::netlist
