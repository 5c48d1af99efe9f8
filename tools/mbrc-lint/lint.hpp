// mbrc-lint: a project-specific determinism & id-safety static-analysis
// pass over the flow sources.
//
// The flow's headline guarantee -- bit-identical composition results at any
// `jobs` count and across incremental-vs-fresh STA -- is enforced at runtime
// by tests and the flow fuzzer. This tool catches the hazard *classes* those
// tests hunt for at review time, with a token/line-level scanner (no libclang
// dependency):
//
//   R1  range-for / bucket iteration over std::unordered_map/unordered_set
//       (including project aliases like sta::SkewMap) whose body emits,
//       appends or accumulates into flow results. Hash iteration order is
//       implementation-defined; anything it feeds can silently reorder
//       candidate enumeration, clique ordering or emitted netlists. Use a
//       sorted key snapshot or an insertion-ordered vector side table.
//   R2  sort/stable_sort/nth_element/min_element/max_element comparators
//       whose final tie-break compares a floating-point field. Under FP ties
//       the order is not total and std::sort may permute equal elements
//       differently across implementations. End comparators with an integral
//       tie-breaker (an id, an index).
//   R3  nondeterminism sources outside src/util/rng.hpp: rand(), srand(),
//       std::random_device, std:: engine types, and streaming pointer values
//       (addresses differ per run under ASLR). The same rule scopes wall-
//       clock reads (steady_clock, system_clock, high_resolution_clock,
//       clock_gettime, gettimeofday) to the sanctioned measurement layer --
//       src/obs/ and util/stopwatch.hpp -- so new timing code cannot sprout
//       outside the observability boundary.
//   R4  raw integer traffic that crosses the typed id spaces of
//       src/netlist/ids.hpp: constructing one id type from another id's
//       .index, arithmetic on .index inside an id constructor, or comparing
//       .index of two different id types.
//   R5  float/double accumulation (+=, -=, x = x + ...) inside lambdas passed
//       to parallel_for/parallel_transform: FP addition is not associative,
//       so an order-dependent reduction breaks the jobs bit-identity
//       guarantee. Reduce into per-task slots and fold on one thread.
//   R6  wall-clock values feeding flow decisions: a util::Stopwatch reading
//       (sw.seconds(), or a variable assigned from one) used in a relational
//       comparison. Timing is measurement-only (DESIGN.md section 11);
//       branching on it makes results machine-dependent. Recording a timing
//       into a report field (`result.total_seconds = clock.seconds()`) is
//       fine and not flagged.
//
// Suppression: `// mbrc-lint: allow(R1, reason why this is safe)` on the
// finding's line or the line directly above. The reason is mandatory.
// Grandfathered findings live in a checked-in baseline keyed on
// (rule, file, normalized line text) so unrelated edits do not invalidate
// entries; stale entries are reported so the baseline only ever shrinks.
//
// The tokenizer, suppression grammar, `file:line:col` findings and baseline
// machinery are shared with tools/mbrc-analyze via tools/common/.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "source_model.hpp"

namespace mbrc::lint {

using analysis::BaselineEntry;
using analysis::Finding;
using analysis::SourceFile;
using analysis::baseline_key;
using analysis::format_baseline;
using analysis::parse_baseline;

using LintResult = analysis::Report;

struct LintOptions {
  /// Rules to run; empty means all.
  std::vector<std::string> rules;
  /// Path suffixes exempt from R3 (the sanctioned RNG lives here).
  std::vector<std::string> rng_exempt_paths = {"util/rng.hpp"};
  /// Path *substrings* exempt from the R3 clock-read check and from R6:
  /// the observability layer (stage timers included) and the stopwatch are
  /// the sanctioned owners of wall-clock time, and they legitimately read
  /// and compare it.
  std::vector<std::string> clock_exempt_paths = {"src/obs/",
                                                 "util/stopwatch.hpp"};
};

/// Runs all enabled rules over the file set. Alias and field-type tables
/// (e.g. `using SkewMap = std::unordered_map<...>`, `double x;`) are built
/// across the whole set first, so a loop in one file over an alias declared
/// in another is still caught.
LintResult run_lint(const std::vector<SourceFile>& files,
                    const LintOptions& options = {},
                    const std::vector<BaselineEntry>& baseline = {});

}  // namespace mbrc::lint
