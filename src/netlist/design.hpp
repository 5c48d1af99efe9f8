// Placed-netlist data model.
//
// A Design owns cells (registers, combinational gates, clock buffers, ports),
// their pins, and the nets connecting them, plus the placement (cell
// lower-left positions inside a core area), scan-chain attributes and
// clock-gating groups. It supports the incremental editing MBR composition
// needs: removing a group of registers and splicing a new multi-bit register
// into their former connectivity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "geom/rect.hpp"
#include "lib/cells.hpp"
#include "lib/library.hpp"
#include "netlist/ids.hpp"
#include "util/assert.hpp"

namespace mbrc::netlist {

enum class CellKind { kRegister, kComb, kClockBuffer, kPort };

enum class PinRole {
  kD,           // register data input (per bit)
  kQ,           // register data output (per bit)
  kClock,       // register/clock-buffer clock input
  kReset,
  kSet,
  kEnable,
  kScanIn,      // per bit for per-bit-scan cells, single otherwise
  kScanOut,
  kScanEnable,
  kCombIn,
  kCombOut,
  kBufIn,       // clock buffer input
  kBufOut,
  kPort,        // top-level IO
};

struct Pin {
  CellId cell;
  NetId net;                 // invalid when unconnected
  PinRole role = PinRole::kCombIn;
  bool is_output = false;    // drives its net
  int bit = -1;              // bit index for kD/kQ/kScanIn/kScanOut
  /// Index of this pin in its net's SinkList storage; -1 for outputs and
  /// unconnected pins. It fills the padding before `offset`.
  std::int32_t sink_slot = -1;
  geom::Point offset;        // relative to the cell's lower-left corner
  double cap = 0.0;          // input capacitance (fF); 0 for outputs
};
// A design holds one Pin per pin (about 875k on D1x10); keep it at 48 B.
static_assert(sizeof(Pin) == 48, "Pin grew: sink_slot must stay in padding");

/// The input pins of a net, in connection order.
///
/// Storage is a slot array with holes: connect() appends a pin at a new
/// slot, which the pin records in Pin::sink_slot, and disconnect() turns
/// that slot into a hole in O(1). Once holes outnumber live entries the
/// list is compacted stably and the moved pins' slots are rewritten, so a
/// removal costs amortized O(1) however large the net (a register clock net
/// grows with the design).
///
/// Order invariant: a pin only ever enters at the end, and neither a hole
/// nor a stable compaction reorders the live entries. So the live sequence
/// is exactly the vector an eager erase-remove would hold after the same
/// connects and disconnects, wherever compaction happens. Iteration skips
/// holes and yields that sequence, which the timing graph, the reports and
/// save_design depend on.
class SinkList {
public:
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PinId;
    using difference_type = std::ptrdiff_t;
    using pointer = const PinId*;
    using reference = const PinId&;

    const_iterator() = default;
    const PinId& operator*() const { return *at_; }
    const_iterator& operator++() {
      ++at_;
      skip_holes();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.at_ == b.at_;
    }

  private:
    friend class SinkList;
    const_iterator(const PinId* at, const PinId* end) : at_(at), end_(end) {
      skip_holes();
    }
    void skip_holes() {
      while (at_ != end_ && !at_->valid()) ++at_;
    }
    const PinId* at_ = nullptr;
    const PinId* end_ = nullptr;
  };

  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    const PinId* end = slots_.data() + slots_.size();
    return {end, end};
  }
  std::size_t size() const { return static_cast<std::size_t>(live_); }
  bool empty() const { return live_ == 0; }
  PinId front() const {
    MBRC_ASSERT_MSG(!empty(), "front() of an empty sink list");
    return *begin();
  }
  /// The pin stored at `slot`; invalid for a hole or a slot out of range.
  /// A connected input pin `p` is listed iff at_slot(p.sink_slot) == p.
  PinId at_slot(std::int32_t slot) const {
    return slot >= 0 && static_cast<std::size_t>(slot) < slots_.size()
               ? slots_[static_cast<std::size_t>(slot)]
               : PinId{};
  }
  /// Equal live sequences (holes are storage, not content).
  friend bool operator==(const SinkList& a, const SinkList& b);

private:
  friend class Design;
  std::vector<PinId> slots_;  // invalid ids are holes
  std::int32_t live_ = 0;
};

struct Net {
  PinId driver;              // invalid for undriven nets (e.g. constants)
  bool is_clock = false;
  SinkList sinks;            // input pins on the net
};
static_assert(sizeof(Net) == 40, "Net grew: is_clock must pad with driver");

/// Scan-chain attributes of a register (Sec. 2 scan compatibility): the
/// partition says which chains the register may be placed on; registers of an
/// ordered section must keep their relative scan order.
struct ScanInfo {
  int partition = -1;  // -1: not on any scan chain
  int section = -1;    // -1: no ordering constraint within the partition
  int order = -1;      // position within the ordered section
};

struct Cell {
  std::string name;
  CellKind kind = CellKind::kComb;
  const lib::RegisterCell* reg = nullptr;    // kind == kRegister
  const lib::CombCell* comb = nullptr;       // kind == kComb
  const lib::ClockBufferCell* buf = nullptr; // kind == kClockBuffer
  geom::Point position;                      // lower-left corner
  std::vector<PinId> pins;
  bool fixed = false;      // dont_touch: never composed or moved
  bool size_only = false;  // may be resized but not composed
  ScanInfo scan;
  int gating_group = 0;    // clock-gating enable condition id (0 = ungated)
  bool dead = false;       // tombstone left by remove_cell()

  double width() const;
  double height() const;
  double area() const;
  geom::Rect footprint() const {
    return {position.x, position.y, position.x + width(),
            position.y + height()};
  }
};

/// Aggregate counters reported by the benches (Table 1 columns).
struct DesignStats {
  std::int64_t cells = 0;           // live non-port cells
  double area = 0.0;                // um^2 of live non-port cells
  std::int64_t total_registers = 0; // every register cell counts once
  std::int64_t register_bits = 0;
  std::int64_t clock_buffers = 0;
  double clock_pin_cap = 0.0;       // fF, sum over register clock pins
};

class Design {
public:
  Design(const lib::Library* library, geom::Rect core)
      : library_(library), core_(core) {
    MBRC_ASSERT(library != nullptr);
  }

  const lib::Library& library() const { return *library_; }
  const geom::Rect& core() const { return core_; }

  // --- construction ----------------------------------------------------
  /// Adds a register instance; creates D/Q pins per bit, the clock pin,
  /// control pins per the cell's function, and scan pins per its scan style.
  CellId add_register(std::string name, const lib::RegisterCell* cell,
                      geom::Point position);
  CellId add_comb(std::string name, const lib::CombCell* cell,
                  geom::Point position);
  CellId add_clock_buffer(std::string name, const lib::ClockBufferCell* cell,
                          geom::Point position);
  CellId add_port(std::string name, bool is_input, geom::Point position);

  NetId create_net(bool is_clock = false);
  void connect(PinId pin, NetId net);
  void disconnect(PinId pin);

  /// Disconnects all pins and tombstones the cell. Ids of other entities
  /// remain stable.
  void remove_cell(CellId cell);

  /// Replaces a register's library cell with another of the same bit count,
  /// function and scan style (a sizing move): pin offsets and capacitances
  /// are updated in place, connectivity is preserved.
  void swap_register_cell(CellId cell, const lib::RegisterCell* replacement);

  // --- access ----------------------------------------------------------
  const Cell& cell(CellId id) const { return cells_[id.index]; }
  Cell& cell(CellId id) { return cells_[id.index]; }
  const Pin& pin(PinId id) const { return pins_[id.index]; }
  Pin& pin(PinId id) { return pins_[id.index]; }
  const Net& net(NetId id) const { return nets_[id.index]; }
  Net& net(NetId id) { return nets_[id.index]; }

  int cell_count() const { return static_cast<int>(cells_.size()); }
  int pin_count() const { return static_cast<int>(pins_.size()); }
  int net_count() const { return static_cast<int>(nets_.size()); }

  /// Ids of all live cells (skips tombstones).
  std::vector<CellId> live_cells() const;
  /// Ids of all live register cells.
  std::vector<CellId> registers() const;

  geom::Point pin_position(PinId id) const {
    const Pin& p = pins_[id.index];
    return cells_[p.cell.index].position + p.offset;
  }

  // --- register pin helpers ---------------------------------------------
  PinId register_d_pin(CellId cell, int bit) const;
  PinId register_q_pin(CellId cell, int bit) const;
  PinId register_clock_pin(CellId cell) const;
  /// The register's pin of `role` (kClock/kReset/kSet/kEnable/kScanEnable),
  /// or an invalid id when the cell's function lacks it.
  PinId register_control_pin(CellId cell, PinRole role) const;
  /// Net driving the register's clock pin (invalid when unconnected).
  NetId register_clock_net(CellId cell) const;
  /// Net on the register's control pin of `role` (invalid when the pin is
  /// unconnected or the cell's function lacks it).
  NetId register_control_net(CellId cell, PinRole role) const;

  // --- statistics ---------------------------------------------------------
  DesignStats stats() const;

  /// Total half-perimeter wire-length split into clock nets and the rest
  /// (Table 1's two wire-length columns), in um.
  struct WireLength {
    double clock = 0.0;
    double other = 0.0;
  };
  WireLength wire_length() const;

  /// HPWL of one net (0 for nets with < 2 connected pins).
  double net_hpwl(NetId id) const;

  /// Consistency check: pins point at their cells/nets, net driver/sink
  /// lists match pin.net fields, dead cells have no connected pins. Throws
  /// util::AssertionError on violation; cheap enough to call in tests.
  void check_consistency() const;

  /// Sink-list slots touched by disconnects and compactions since this
  /// design was created (copied with it, never rewound by restore()). The
  /// flow reports each run's delta as netlist.sink_entries_scanned.
  std::int64_t sink_entries_scanned() const { return sink_entries_scanned_; }

  // --- edit journal -------------------------------------------------------
  // Incremental observers (sta::TimingEngine) stay in sync with the design
  // through two channels. Structural edits -- pins/nets created, pins
  // (dis)connected, cells removed -- bump `topology_version`; an observer
  // whose remembered version differs must rebuild its graph. Localized
  // value edits that keep the topology intact -- placement moves and
  // register sizing swaps -- append the cell to `touched_cells`; an
  // observer keeps a cursor into the journal and repairs only the cones of
  // the cells appended since its last sync.
  std::uint64_t topology_version() const { return topology_version_; }
  /// Every cell whose position or library cell changed, in edit order.
  /// Grows for the lifetime of the design (bounded by the edit count);
  /// observers index it with their own cursor.
  const std::vector<CellId>& touched_cells() const { return touched_cells_; }
  /// Records a placement move of `cell`. Anyone mutating Cell::position
  /// directly must call this, or incremental observers go stale (the
  /// legalizer does; run_sta-from-scratch users are unaffected).
  void notify_moved(CellId cell) { touched_cells_.push_back(cell); }

  // --- snapshot / rollback ------------------------------------------------
  // A Snapshot captures the full editable state (cells, pins, nets, the
  // edit journal) of this design; restore() brings the design back to it
  // bit-identically. The service's rollback request is built on this.
  //
  // Version semantics: topology_version is monotonic for the lifetime of
  // the design, across restores. restore() never rewinds it -- it bumps it
  // past every version handed out so far, even when the restored state
  // equals the current one. Observers therefore see a structural change
  // and rebuild, which is required: their journal cursors may point past
  // the end of the restored (shorter) journal.
  struct Snapshot {
    std::vector<Cell> cells;
    std::vector<Pin> pins;
    std::vector<Net> nets;
    std::uint64_t topology_version = 0;
    std::vector<CellId> touched_cells;
  };

  /// Captures the current state. O(design size); the library pointer and
  /// core are not part of the snapshot (they are immutable).
  Snapshot snapshot() const;

  /// Restores a snapshot previously taken from *this* design (the library
  /// the snapshot's cells reference must be the same object).
  void restore(const Snapshot& snapshot);

private:
  PinId add_pin(CellId cell, PinRole role, bool is_output, int bit,
                geom::Point offset, double cap);

  const lib::Library* library_;
  geom::Rect core_;
  std::vector<Cell> cells_;
  std::vector<Pin> pins_;
  std::vector<Net> nets_;
  std::uint64_t topology_version_ = 0;
  std::vector<CellId> touched_cells_;
  std::int64_t sink_entries_scanned_ = 0;
};

}  // namespace mbrc::netlist
