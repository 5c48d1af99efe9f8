// The composition daemon: newline-delimited JSON requests multiplexed over
// per-design Sessions.
//
// Protocol (one JSON object per line, response per request, matched by id):
//
//   {"id": 1, "cmd": "open_design", "session": "a", "profile": "D1"}
//   {"id": 2, "cmd": "apply_edits", "session": "a",
//    "edits": [{"op": "move", "cell": 7, "x": 12.0, "y": 8.4},
//              {"op": "swap", "cell": 9, "variant": "DFF_X2"},
//              {"op": "skew", "cell": 9, "skew": 0.05}]}
//   {"id": 3, "cmd": "query_timing", "session": "a",
//    "pins": [101, 102], "registers": [9]}
//   {"id": 4, "cmd": "recompose_region", "session": "a"}
//   {"id": 5, "cmd": "snapshot", "session": "a", "name": "base"}
//   {"id": 6, "cmd": "rollback", "session": "a", "name": "base"}
//   {"id": 7, "cmd": "check", "session": "a", "placement": true}
//   {"id": 8, "cmd": "list_registers", "session": "a", "limit": 100}
//   {"id": 9, "cmd": "close", "session": "a"}
//   {"id": 10, "cmd": "stats"}
//   {"id": 11, "cmd": "trace_start", "path": "/tmp/daemon.trace.json"}
//   {"id": 12, "cmd": "trace_stop"}
//   {"id": 13, "cmd": "shutdown"}
//
// Responses are compact single-line objects {"id": N, "ok": true, ...} or
// {"id": N, "ok": false, "error": "..."}. See DESIGN.md §12 for the full
// grammar.
//
// Live telemetry (DESIGN.md §11): `stats` returns a snapshot of the obs
// counter/histogram registry plus per-verb latency percentiles, thread-pool
// gauges and per-session gauges. `trace_start`/`trace_stop` bracket a live
// obs::Span trace written as Chrome trace_event JSON, so a running daemon
// can be profiled in Perfetto without restarting. Both outputs are
// measurement-only and excluded from the byte-identity contract; the
// counter *deltas* inside consecutive stats responses stay bit-identical
// at any jobs count. Every request/edit/rollback is also recorded in the
// always-on obs flight recorder, dumped to options().flight_dump_path on a
// checker failure or protocol error.
//
// Concurrency model: every session is a strand. Requests for one session
// execute strictly in arrival order (FIFO), one at a time; requests for
// different sessions run concurrently on the daemon's thread pool when
// `jobs > 1`. With `jobs <= 1` every request executes inline on the calling
// thread, which makes the whole transcript serial -- the reference
// execution. Because a session's responses are a pure function of its own
// request order (Session's determinism contract), the response for any
// given request is byte-identical at any jobs count; only the interleaving
// of *different* sessions' response lines varies.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/json_reader.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/session.hpp"
#include "service/telemetry.hpp"

namespace mbrc::service {

/// Bounds on open_design's numeric parameters; a request outside one gets
/// an error response and opens no session. 2M registers is about twice the
/// largest scaled profile (D1 x 340, ~1M registers). Below 32 registers the
/// generated core can be too small to place a wide register at all; every
/// standard profile builds at 32.
inline constexpr std::int64_t kMinOpenRegisters = 32;
inline constexpr std::int64_t kMaxOpenRegisters = 2'000'000;
/// Each snapshot is a full design copy; the default is 64.
inline constexpr std::int64_t kMaxSessionSnapshots = 256;
/// Ceiling on recompose_region's alpha / beta / gamma. It keeps
/// alpha * paper_weight + beta * power + gamma * area finite.
inline constexpr double kMaxCostWeight = 1e6;
/// Longest request line a transport buffers (bytes, without the '\n'). A
/// longer line gets an error response instead of growing memory without
/// bound; the stdio loop then skips to the next newline and the socket
/// transport closes the connection.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct DaemonOptions {
  /// Request-execution lanes. <= 1: inline serial execution (deterministic
  /// transcript order); > 1: a pool of jobs - 1 workers plus the calling
  /// thread, sessions running concurrently, each internally FIFO.
  int jobs = 1;
  /// Defaults for sessions opened without explicit per-request overrides.
  SessionOptions session_defaults;
  /// Flight-recorder dump destination for failure triggers (checker
  /// failure reported by any session command, malformed request line).
  /// Empty disables failure dumps; fatal-signal dumps are the transport
  /// binary's concern (tools/mbrc-serve).
  std::string flight_dump_path;
};

class Daemon {
public:
  explicit Daemon(const lib::Library& library, DaemonOptions options = {});
  /// Drains outstanding requests before tearing down.
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Parses one request line and executes it on the owning session's
  /// strand. `sink` receives the response line (no trailing newline) and
  /// may be called from a pool thread; with jobs <= 1 it is always called
  /// before handle() returns. `sink` must be callable concurrently.
  void handle(std::string line, std::function<void(std::string)> sink);

  /// Answers a request line longer than kMaxRequestLineBytes, which the
  /// transport did not buffer: an id -1 error response, counted in
  /// service.requests.bad and recorded as a flight-recorder protocol error.
  void reject_oversized_line(const std::function<void(std::string)>& sink);

  /// handle() + wait for this request's response: the synchronous
  /// round-trip a blocking client sees.
  std::string handle_sync(const std::string& line);

  /// NDJSON serve loop: reads request lines from `in` until EOF or a
  /// shutdown request, writing one response line each (mutex-serialized,
  /// flushed). An oversized line is rejected and skipped. Returns the
  /// number of requests served.
  std::size_t serve(std::istream& in, std::ostream& out);

  /// Blocks until every accepted request has delivered its response.
  void drain();

  /// True once a shutdown request was accepted (serve loops should stop
  /// reading; pending requests still complete).
  bool shutdown_requested() const;

  /// Flushes the live trace, if one is active: uninstalls the tracer,
  /// drains outstanding requests (so every span on every strand is closed)
  /// and writes the Chrome trace to the path given at trace_start. Called
  /// by the trace_stop verb, on shutdown, from transport teardown
  /// (SocketServer idle timeout) and from the destructor, so a traced run
  /// that never sent trace_stop still keeps its tail. Returns false when
  /// no trace was active.
  bool finish_trace();

  std::size_t session_count() const;
  const DaemonOptions& options() const { return options_; }

private:
  /// Per-session telemetry published from the strand (after each request)
  /// and read by the inline stats verb. Atomics because stats never joins
  /// a strand; relaxed order because these are gauges, not results.
  struct SessionGauges {
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> journal_length{0};
    std::atomic<std::int64_t> snapshots{0};
    std::atomic<std::int64_t> topology_version{0};
    std::atomic<std::int64_t> full_builds{0};
    std::atomic<std::int64_t> incremental_updates{0};
    std::atomic<std::int64_t> compat_full_builds{0};
    std::atomic<std::int64_t> compat_incremental_updates{0};
  };

  /// One open design and its FIFO request queue. `session` is null until
  /// the open_design job ran (requests queued behind a failed open report
  /// "session is not open").
  struct Strand {
    std::unique_ptr<Session> session;
    std::deque<std::function<void()>> queue;
    bool running = false;
    bool closed = false;
    SessionGauges gauges;
  };

  void post(const std::shared_ptr<Strand>& strand, std::function<void()> job);
  void run_strand(std::shared_ptr<Strand> strand);
  void finish_one();

  // Request execution (called on the strand, serialized per session).
  std::string execute(Strand& strand, const obs::JsonValue& request);
  std::string do_open(Strand& strand, const obs::JsonValue& request);
  std::string do_close(Strand& strand, const obs::JsonValue& request);
  void update_gauges(Strand& strand);

  // Telemetry verbs (inline on the calling thread; never touch Session
  // state, only atomic gauges and the registry snapshot).
  std::string do_stats(std::int64_t id);
  std::string do_trace_start(std::int64_t id, const obs::JsonValue& request);
  std::string do_trace_stop(std::int64_t id);
  /// Writes the flight recorder to options_.flight_dump_path (no-op when
  /// the path is empty).
  void dump_flight(const char* trigger);

  const lib::Library& library_;
  DaemonOptions options_;
  std::unique_ptr<runtime::ThreadPool> pool_;  // null when jobs <= 1
  LatencyRecorder latency_;

  mutable std::mutex mutex_;  // guards sessions_, strand queues, counters
  std::map<std::string, std::shared_ptr<Strand>> sessions_;
  std::size_t outstanding_ = 0;
  std::condition_variable idle_;
  bool shutdown_ = false;

  std::mutex trace_mutex_;  // guards the live-trace fields below
  std::unique_ptr<obs::Tracer> tracer_;
  std::string trace_path_;
  std::size_t trace_event_count_ = 0;  // from the most recent finish_trace
};

/// RAII drain for scopes that hand the daemon request sinks referencing
/// locals: the destructor runs Daemon::drain() on every exit path,
/// exceptional unwind included, so no posted job outlives what its sink
/// captured. mbrc-analyze rule A2 recognizes this type as a wait that
/// dominates every exit.
class DrainGuard {
 public:
  explicit DrainGuard(Daemon& daemon) : daemon_(daemon) {}
  DrainGuard(const DrainGuard&) = delete;
  DrainGuard& operator=(const DrainGuard&) = delete;
  ~DrainGuard() { daemon_.drain(); }

 private:
  Daemon& daemon_;
};

}  // namespace mbrc::service
