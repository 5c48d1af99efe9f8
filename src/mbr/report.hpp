// Machine-readable flow run report (flow_report.json).
//
// One JSON document per run: schema version, FlowOptions echo, both Table-1
// Metrics blocks, flow outcome, per-stage wall times, the run's counter
// delta, and a trace summary. Everything is emitted through the shared
// obs::JsonWriter, so the report, the Chrome trace and the BENCH_*.json
// outputs share one escaping/formatting path.
//
// Lives in mbr (not obs) because it reads FlowResult; obs stays free of
// flow types.
#pragma once

#include <ostream>

namespace mbrc::mbr {

struct FlowOptions;
struct FlowResult;

/// Current value of the report's "schema" field; bump on layout changes so
/// trajectory tooling can branch on it.
inline constexpr int kFlowReportSchema = 2;

void write_flow_report(std::ostream& os, const FlowOptions& options,
                       const FlowResult& result);

}  // namespace mbrc::mbr
