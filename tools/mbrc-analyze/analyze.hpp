// mbrc-analyze: a scope- and dataflow-aware lifetime & concurrency analyzer
// over the flow sources (no libclang dependency).
//
// Where mbrc-lint pattern-matches single statements, this tool parses each
// translation unit into a lightweight model -- functions with nested scopes,
// per-scope declarations, lambda capture lists, and a cross-file call
// summary -- and enforces three whole-project contracts the token scanner
// cannot see (A1, arena escape, was retired with the solver arenas; the
// other rules keep their names so existing suppressions stay valid):
//
//   A2  task-capture lifetime: lambdas handed to deferred execution
//       (ThreadPool::submit/async, and any function the call summary proves
//       forwards its callable into one -- Daemon::post, Daemon::handle)
//       whose by-reference captures name locals of the submitting scope,
//       when no join/wait dominates every exit from that scope. A wait that
//       exists but sits behind throwing calls (or behind a loop back-edge
//       that can throw) does not dominate: exceptional unwind skips it and
//       the task dangles. Declaring a recognized RAII wait guard
//       (runtime::FutureDrain, service::DrainGuard) before the submission
//       covers all exits and silences the rule.
//   A3  strand discipline: service::Session state touched outside the
//       session's FIFO-strand entry points (Session:: member functions,
//       Daemon::execute/do_open/do_close/run_strand, and lambdas posted via
//       Daemon::post). Session fields are deliberately unsynchronized; the
//       strand is the lock.
//   A4  journal bypass: direct netlist::Design mutations reachable without
//       a journal append on the path -- `cell.position` writes in a
//       function with no notify_moved call, pin `.net` rewires and register
//       variant writes outside the Design API. These silently stale the
//       incremental TimingEngine against the run_sta oracle.
//
// Suppression: `// mbrc-analyze: allow(A2, reason)` on the line or the line
// above; the reason is mandatory. Baseline, suppression grammar and the
// tokenizer are shared with mbrc-lint (tools/common/).
#pragma once

#include <string>
#include <vector>

#include "source_model.hpp"

namespace mbrc::analyze {

using analysis::BaselineEntry;
using analysis::Finding;
using analysis::SourceFile;

using AnalyzeResult = analysis::Report;

struct AnalyzeOptions {
  /// Rules to run; empty means all of A2..A4.
  std::vector<std::string> rules;
  /// Path substrings where A4 does not apply: the journaled-edit API's own
  /// implementation legitimately writes cells and appends to the journal.
  std::vector<std::string> journal_exempt_paths = {"netlist/design."};
  /// Path substring gating A3 (strand discipline is a service-layer
  /// contract).
  std::vector<std::string> strand_paths = {"service/"};
  /// Classes whose fields are strand-confined (A3).
  std::vector<std::string> strand_classes = {"Session"};
  /// Functions allowed to touch strand-confined state (A3). Session::
  /// members are always allowed.
  std::vector<std::string> strand_entry_points = {"execute", "do_open",
                                                  "do_close", "run_strand"};
  /// RAII types whose construction counts as a wait dominating every exit
  /// of the scope (A2).
  std::vector<std::string> wait_guard_types = {"FutureDrain", "DrainGuard"};
};

/// Runs all enabled rules over the file set. The call summary (which
/// functions forward callables into deferred execution) and class field
/// tables are built across the whole set first, so a lambda handed to
/// Daemon::handle in one file is still traced into ThreadPool::submit
/// declared in another.
AnalyzeResult run_analyze(const std::vector<SourceFile>& files,
                          const AnalyzeOptions& options = {},
                          const std::vector<BaselineEntry>& baseline = {});

}  // namespace mbrc::analyze
