// Per-stage wall-clock accounting.
//
// A StageStore interns stage names once and then records through stable
// per-stage slots with lock-free atomic accumulation, so probes in parallel
// stages neither serialize on a global mutex nor allocate a key string per
// call. StageTimer is the RAII probe that times one section into a store
// and spans it in the trace.
//
// Stage seconds are wall time: measurement, never output. Flow results
// compared across `jobs` values exclude them; the deterministic counterpart
// lives in obs/counters.hpp (DESIGN.md §11).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace mbrc::obs {

struct StageStats {
  double seconds = 0.0;     // accumulated wall time
  std::int64_t calls = 0;   // timed sections recorded
  std::int64_t items = 0;   // stage-defined work units (subgraphs, pins, ...)
};

/// Snapshot type handed to flow results: plain data, freely copyable.
using StageTable = std::map<std::string, StageStats, std::less<>>;

/// Formats a snapshot as one line per stage (name, calls, items, seconds),
/// in name order.
std::string format_stage_table(const StageTable& stats);

class StageStore {
public:
  /// One interned stage. Writable concurrently from any thread; address is
  /// stable for the life of the store.
  class Slot {
  public:
    void record(double seconds, std::int64_t items) {
      add_seconds(seconds);
      calls_.fetch_add(1, std::memory_order_relaxed);
      items_.fetch_add(items, std::memory_order_relaxed);
    }

    StageStats stats() const {
      return {seconds_.load(std::memory_order_relaxed),
              calls_.load(std::memory_order_relaxed),
              items_.load(std::memory_order_relaxed)};
    }

  private:
    void add_seconds(double s) {
      double current = seconds_.load(std::memory_order_relaxed);
      while (!seconds_.compare_exchange_weak(current, current + s,
                                             std::memory_order_relaxed)) {
      }
    }

    std::atomic<double> seconds_{0.0};
    std::atomic<std::int64_t> calls_{0};
    std::atomic<std::int64_t> items_{0};
  };

  /// Interns `stage` and returns its slot. Steady-state this is a shared
  /// lock and a heterogeneous string_view lookup — no allocation.
  Slot& slot(std::string_view stage);

  StageTable snapshot() const;

  /// Formatted per-stage report, one line per stage in name order.
  std::string report() const { return format_stage_table(snapshot()); }

private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Slot>, std::less<>> slots_;
};

/// RAII stage probe: times its scope, records into the store's slot for
/// `stage` on destruction (or earlier via stop()), and spans the scope in
/// the trace.
class StageTimer {
public:
  StageTimer(StageStore& store, std::string_view stage)
      : slot_(&store.slot(stage)), span_(stage) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { stop(); }

  /// Attributes `count` work units to this section.
  void add_items(std::int64_t count) { items_ += count; }

  /// Records now instead of at scope exit; idempotent. The trace span still
  /// closes at scope exit.
  void stop() {
    if (slot_ == nullptr) return;
    slot_->record(clock_.seconds(), items_);
    slot_ = nullptr;
  }

private:
  StageStore::Slot* slot_;
  std::int64_t items_ = 0;
  Span span_;
  util::Stopwatch clock_;
};

}  // namespace mbrc::obs
