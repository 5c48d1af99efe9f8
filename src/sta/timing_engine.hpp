// Persistent incremental STA engine.
//
// run_sta() rebuilds the timing graph and re-propagates every pin on every
// call; the composition flow calls it once per useful-skew iteration plus
// several more times around composition, so timing dominates the flow's
// wall time. TimingEngine amortizes that: the levelized CSR timing graph is
// built once per netlist *topology* and repeated queries are served by
// dirty-cone repair.
//
// An edit costs its own arcs, not its nets' fan-out:
//   - A skew edit (set_skew / clear_skew) journals the register in the
//     engine; the next refresh() re-seeds only the journaled registers'
//     launch arrivals and D-side endpoint requirements. update(skew) is the
//     diffing wrapper: it journals the registers whose skew differs from the
//     engine's map, then refreshes.
//   - A placement move or a register sizing swap reaches the engine through
//     the Design edit journal (Design::notify_moved / swap_register_cell),
//     pin by pin. A moved driver re-evaluates its net's wire arcs; a moved
//     sink re-evaluates only its own incoming arc. The driver's load (the
//     net's HPWL plus its sink caps, which the cell arcs into the driver and
//     a register driver's launch seed read) is cached per net and refolded,
//     in sink order, only when the HPWL or a pin cap changed: a per-net
//     bounding box with recorded edge-owning pins detects that in O(1).
//   - A changed delay marks its head forward only if its tail carries an
//     arrival, and its tail backward only if its head carries a required
//     time; neither can change without a structural edit. An arc or a load
//     whose ends carry no value is not evaluated at all.
//   - The repair re-propagates the marked cones, terminating early
//     wherever a recomputed value equals the cached one.
//   - A structural edit (rewire, debank split, cell removal) bumps the
//     design's topology version; the next sync falls back to a full
//     rebuild, exactly run_sta's path.
//
// Work split. The full build evaluates each cell-arc delay once per output
// pin and fills the CSR rows in parallel, each pin at its precomputed
// offset, and the transpose as a counting sort over fixed pin ranges that
// keeps the serial fill's order. Its liveness, launch-seed and endpoint-seed
// passes also run per pin in parallel; each net's load (and box) is folded
// by its driver's pin in the CSR count or the launch-seed pass. Kahn's topological order and the
// endpoint list stay serial, because they fix the order endpoints are
// reported in; Kahn's FIFO order is also sorted by level, so each level is
// one range of positions in it. A repair keeps one dirty bit per position
// (plus two summary layers, so a level with no dirty pins costs a word or
// two) for each direction. The forward sweep (arrivals, endpoint slacks and
// the report's aggregates) runs in ascending levels, then the
// backward sweep (required times) in descending levels. A level with more
// than 32 dirty words is split into chunks of 8 words on the pool; each
// chunk writes only its own pins and a slot of its own (the pins it logged,
// the marks it made), and the calling thread folds the slots in chunk
// order, so nothing a repair yields depends on `jobs`. The skew journal's
// registers are re-seeded in parallel too, each register its own pins.
//
// The engine is the report's only writer. The full build files every
// endpoint's failing slacks in the report's aggregates; refresh_endpoints
// re-files each endpoint whose slacks it rewrote (the exact TNS sum and the
// counts at once) and then folds the report's min-tree once, so a summary
// is O(1) to read and a repair pays O(log endpoints) per endpoint whose
// filed value changed.
//
// Determinism contract (inherited from the parallel runtime, DESIGN.md §6):
// every value is a pure max/min gather over a fixed operand set, and every
// cached load is a fold in run_sta's order, so an incremental update is
// bit-identical to a from-scratch run_sta at any `jobs` count.
// tests/sta_incremental_test.cpp enforces this after randomized edit
// sequences and on a net of more than 5k sinks.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sta/sta.hpp"

namespace mbrc::sta {

class TimingEngine {
public:
  /// Binds the engine to `design` (which must outlive it). Nothing is
  /// built until the first sync.
  TimingEngine(const netlist::Design& design, const TimingOptions& options);

  /// assign_skew(skew), then refresh(): the report in sync with the design
  /// and `skew`. The reference stays valid until the engine is destroyed
  /// but its contents mutate on the next sync.
  const TimingReport& update(const SkewMap& skew = {});

  /// Brings the cached report in sync with the design and the engine's
  /// skew map and returns it. Incremental (dirty-cone repair over the skew
  /// journal and the design's edit journal) unless a structural edit
  /// happened since the last sync; then a full rebuild.
  const TimingReport& refresh();

  /// Journaled skew edits: the map changes now, and the next refresh()
  /// re-seeds only the journaled registers. A skew of 0 and no entry time
  /// the same; clear_skew removes the entry.
  void set_skew(netlist::CellId cell, double value);
  void clear_skew(netlist::CellId cell);
  /// Replaces the whole skew map, journaling each register whose skew
  /// differs (a scan of both maps); when the next sync rebuilds anyway
  /// (after a structural edit or a Design::restore) the map is replaced
  /// without a diff.
  void assign_skew(const SkewMap& skew);
  /// The skew the next sync times under.
  const SkewMap& skew() const { return current_skew_; }

  /// The report of the last sync. Invalid before the first sync.
  const TimingReport& report() const { return report_; }

  const TimingOptions& options() const { return options_; }
  const netlist::Design& design() const { return design_; }

  /// Observability for tests and benches. The same quantities flow into
  /// the process-wide obs counter registry (sta.engine.*) once per
  /// sync, so traced runs and the flow report see them too.
  struct Stats {
    std::uint64_t full_builds = 0;
    std::uint64_t incremental_updates = 0;
    /// Repair visits that found the recomputed value equal to the cached
    /// one and stopped expanding the cone (cumulative).
    std::uint64_t early_stops = 0;
    /// Pins re-gathered by the last incremental repair (0 after a full
    /// build); the dirty-cone size, the engine's unit of work.
    std::size_t last_repaired_pins = 0;
    /// Repair level sweeps split into more than one chunk (cumulative).
    /// The split depends only on the dirty pins, not on `jobs`; with
    /// jobs > 1 and pool workers the chunks run on the pool.
    std::uint64_t split_levels = 0;
    /// Edit-journal entries the repairs replayed (cumulative).
    std::uint64_t journal_cells = 0;
    /// Wire and cell-arc delays the repairs evaluated (cumulative).
    std::uint64_t arcs_evaluated = 0;
    /// Pins folded by the repairs' load refolds (cumulative).
    std::uint64_t load_pins_scanned = 0;
    /// Endpoints whose filed failing slack, setup or hold, the repairs
    /// changed (cumulative).
    std::uint64_t endpoints_refiled = 0;
    /// Report min-tree nodes the repairs recomputed (cumulative): at most
    /// ceil(log2 endpoints) per re-filed endpoint, each node once per sync.
    std::uint64_t summary_nodes_folded = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Change log for observers that derive data from the report (the
  /// service session's compatibility graph): every pin whose arrival or
  /// required time, setup or hold side, changed in an incremental repair
  /// since the last clear_changed_pins(), each listed once. A repair
  /// appends its forward changes, then the backward changes not already
  /// logged, each sweep in its level order (ascending forward, descending
  /// backward) and in topological order within a level; the order is the
  /// same at every `jobs`. These are exactly the pins the repair did not
  /// early-stop on, and a register endpoint's slack moves only with them.
  /// A full build empties the log: observers detect it by
  /// stats().full_builds moving and must then treat every pin as changed.
  const std::vector<std::int32_t>& changed_pins() const {
    return changed_pins_;
  }
  void clear_changed_pins();

  /// The levelized graph, for tests of the change log's order: Kahn's
  /// topological order of the live pins (sorted by level) and a pin's level.
  const std::vector<netlist::PinId>& topo_order() const { return topo_; }
  std::int32_t level_of(netlist::PinId pin) const {
    return level_of_[pin.index];
  }

private:
  // --- delay model (identical to run_sta's; see sta.hpp header note) -----
  double register_skew(netlist::CellId cell) const;
  /// Folds the load of `driver`'s net exactly as run_sta does (the net's
  /// HPWL times the wire cap, then each sink's cap in sink order), caches it
  /// in net_load_ and records the pins that own the net's bounding-box
  /// edges in box_owner_. Writes only the net's own slots.
  double fold_load(netlist::PinId driver);
  /// The cached load of `driver`'s net (0 when unconnected).
  double cached_load(netlist::PinId driver) const;
  double wire_delay(netlist::PinId driver, netlist::PinId sink) const;
  /// Reads the cached load: fold_load must have run for `out` since the
  /// last change of its net's HPWL or caps.
  double cell_arc_delay(netlist::PinId out) const;

  // --- register timing rules, one definition for build and repair -------
  /// Launch arrival seed of a register Q/SO pin: skew + clk->Q delay (on
  /// the cached load, as cell_arc_delay).
  double launch_seed(netlist::PinId q_pin) const;
  /// Setup and hold required-time seeds of a register's D/SI pins.
  double setup_required(netlist::CellId reg) const;
  double hold_required(netlist::CellId reg) const;
  /// (max, min) arrival at a pin from its seed and its predecessors.
  std::pair<double, double> gather_arrival(std::int32_t pin) const;
  /// (setup, hold) required time at a pin from its seeds and successors.
  std::pair<double, double> gather_required(std::int32_t pin) const;

  // --- full build --------------------------------------------------------
  void full_build();
  /// `live` holds one flag per pin: 1 unless the pin's cell is dead.
  void build_edges(const std::vector<std::uint8_t>& live);
  void topo_and_levels(const std::vector<std::uint8_t>& live);
  void seed_and_propagate();

  // --- incremental repair ------------------------------------------------
  /// Pins re-gathered by one repair sweep, and how many of them early-stopped.
  struct RepairTally {
    std::size_t repaired = 0;
    std::uint64_t early = 0;
  };
  /// One direction's dirty pins: a bit per position of `topo_` (layer 0),
  /// a bit per nonzero word of the layer below (layers 1 and 2), and the
  /// range of levels touched. A set bit always has its summary bits set;
  /// a summary bit may outlive its word's bits until the sweep clears it.
  /// Only the calling thread sets bits; a chunk takes bits out of the
  /// layer-0 words it owns.
  struct Frontier {
    static constexpr int kLayers = 3;
    std::vector<std::uint64_t> layer[kLayers];
    std::int32_t lo = std::numeric_limits<std::int32_t>::max(), hi = -1;

    void reset(std::size_t positions);
    /// Sets `pos`'s bit and its summary bits.
    void set(std::size_t pos);
    /// Appends, ascending, every layer-0 word holding a set bit in
    /// positions [begin, end); returns the words read on all layers.
    std::uint64_t collect(std::size_t begin, std::size_t end,
                          std::vector<std::size_t>& out) const;
    /// Clears the summary bits of those `words` that are now zero.
    void clear_summaries(const std::vector<std::size_t>& words);
  };
  /// What one chunk of a level's dirty words yields, folded in chunk order.
  struct ChunkSlot {
    std::vector<std::int32_t> pins;       // the chunk's dirty pins
    std::vector<std::int32_t> changed;    // pins whose value moved
    std::vector<std::int32_t> endpoints;  // changed pins that are endpoints
    std::vector<std::int32_t> marks;      // positions to mark, later levels
    RepairTally tally;
    std::int32_t reach = 0;  // furthest position marked
  };
  bool rebuild_pending() const;
  /// Re-seeds the registers of the skew journal, in parallel, and marks
  /// the pins whose seed moved.
  void replay_skew_journal();
  void touch_cell(netlist::CellId cell);
  /// Re-evaluates the arcs a moved or resized pin can change: all wire
  /// arcs of the net a driver drives, a sink's own incoming arc, and the
  /// driver's load when it may have changed (`cap_changed`, or the pin
  /// moves the net's bounding box).
  void touch_pin(netlist::PinId pin, bool cap_changed);
  /// Whether `pin`, at its current position, may have changed the HPWL of
  /// `net`: it owns an edge of the recorded box or lies outside it.
  bool moves_box(netlist::NetId net, netlist::PinId pin) const;
  /// Refolds the load of `net`'s driver (once per sync) and re-evaluates
  /// what reads it: the cell arcs into the driver and a register driver's
  /// launch seed.
  void refold(netlist::NetId net);
  /// Whether the load of driver pin `d` feeds a value: `d` is a register
  /// launch pin, or a cell arc into `d` carries a value.
  bool load_carries_value(std::int32_t d) const;
  bool has_arrival(std::int32_t pin) const {
    return report_.arrival[pin] != kNoArrival;
  }
  bool has_required(std::int32_t pin) const {
    return report_.required[pin] != kNoRequired ||
           report_.required_min[pin] != kNoArrival;
  }
  /// An arc whose tail has no arrival and whose head has no required time
  /// feeds no value: its delay is never read until the next full build.
  bool arc_carries_value(std::int32_t tail, std::int32_t head) const {
    return has_arrival(tail) || has_required(head);
  }
  /// Stores `delay` on the successor edge `e` (tail -> its head) in both
  /// CSR views when it differs, marking the head forward if the tail has
  /// an arrival and the tail backward if the head has a required time.
  void write_delay(std::int32_t tail, int e, double delay);
  void refresh_register_seeds(netlist::CellId reg,
                              std::vector<std::int32_t>& moved);
  void mark_seed(std::int32_t pin);
  /// Journals the registers whose skew differs between `skew` and the
  /// engine's map, then takes `skew` as the map.
  void apply_skew_diff(const SkewMap& skew);
  void mark_forward(std::int32_t pin);
  void mark_backward(std::int32_t pin);
  void mark_endpoint(std::int32_t pin);
  void repair();
  RepairTally sweep(bool forward);
  /// Sweeps dirty_words_[first, stop) of the level at positions
  /// [begin, end).
  void sweep_chunk(bool forward, std::size_t begin, std::size_t end,
                   std::size_t first, std::size_t stop, ChunkSlot& slot);
  void refresh_endpoints();

  const netlist::Design& design_;
  const TimingOptions options_;
  SkewMap current_skew_;

  bool built_ = false;
  std::uint64_t seen_topology_ = 0;
  std::size_t journal_cursor_ = 0;

  // Levelized CSR timing graph: successor and transposed predecessor
  // adjacency with one cached delay per edge, plus cross-links so an edge's
  // delay can be updated in both views in O(1).
  std::vector<int> succ_offset_;
  std::vector<std::int32_t> succ_to_;
  std::vector<double> succ_delay_;
  std::vector<std::int32_t> succ_pred_index_;
  std::vector<int> pred_offset_;
  std::vector<std::int32_t> pred_to_;
  std::vector<double> pred_delay_;
  std::vector<std::int32_t> pred_succ_index_;
  std::vector<netlist::PinId> topo_;
  std::vector<std::int32_t> pos_of_;  // pin -> index in topo_ (-1 if dead)
  std::vector<std::int32_t> level_of_;
  std::vector<std::size_t> level_begin_;  // level -> first topo_ index

  // Per-pin propagation seeds: launch/input arrivals (kNoArrival when the
  // pin is not a source) and endpoint required times (setup; hold side is
  // kNoArrival when the pin carries no hold check).
  std::vector<double> seed_arrival_;
  std::vector<double> seed_required_;
  std::vector<double> seed_required_min_;
  std::vector<std::int32_t> endpoint_slot_;  // pin -> report_.endpoints index

  TimingReport report_;

  // Skew edits since the last sync (cells, in edit order, duplicates
  // allowed) and the skew entries scanned to find them, flushed to
  // sta.engine.skew_entries_scanned at the sync.
  std::vector<netlist::CellId> skew_journal_;
  std::uint64_t skew_scanned_ = 0;

  // Per net, the load its driver's delay reads (kept only where the full
  // build folds it: comb and clock-buffer outputs, register Q/SO) and the
  // pins owning the edges of its bounding box (xlo, ylo, xhi, yhi; -1 where
  // never folded). Per register cell, the library cell the engine last saw,
  // so a sizing swap that changes a pin cap is told from a move.
  std::vector<double> net_load_;
  std::vector<std::array<std::int32_t, 4>> box_owner_;
  std::vector<const lib::RegisterCell*> cell_reg_;

  // Dirty tracking. A refolded net and a marked endpoint are flagged and
  // listed, and the list clears its flags at the end of the intake and of
  // refresh_endpoints; a sweep leaves its frontier empty.
  std::vector<std::uint8_t> net_refolded_;
  std::vector<std::int32_t> refolded_nets_;
  std::vector<std::uint8_t> ep_marked_;
  Frontier fwd_;
  Frontier bwd_;
  std::vector<std::int32_t> ep_marks_;
  std::vector<std::int32_t> seed_moves_;  // touch_cell's, reused
  std::vector<std::size_t> dirty_words_;  // the swept level's, reused
  std::vector<ChunkSlot> slots_;          // reused across levels

  // Change log (see changed_pins()); the flag keeps each pin in it once.
  std::vector<std::int32_t> changed_pins_;
  std::vector<std::uint8_t> changed_flag_;

  Stats stats_;
};

}  // namespace mbrc::sta
