// Per-layer attribution for the traced run. The benchmark wraps its calls
// into each layer's public functions in obs::Span probes named
// "bench:<layer>.<op>"; spans the program records itself land in the same
// trace but are not attributed (their time stays in the enclosing
// benchmark span).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace mbrcbench {

inline constexpr std::string_view kSpanPrefix = "bench:";

struct SpanTotals {
  double self_s = 0.0;   // duration minus nested benchmark spans, all threads
  double total_s = 0.0;  // summed duration, all threads
  std::int64_t count = 0;
};

/// Totals per benchmark span name (prefix stripped), e.g. "mbr.enumerate".
std::map<std::string, SpanTotals> attribute(const mbrc::obs::TraceData& trace);

/// Self seconds of one span name, 0 when it never ran.
double self_seconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name);

/// Writes the Chrome trace to `dir`/`file`, creating `dir`. Returns the
/// path written, or an empty string on failure.
std::string write_trace(const mbrc::obs::TraceData& trace,
                        const std::string& dir, const std::string& file);

}  // namespace mbrcbench
