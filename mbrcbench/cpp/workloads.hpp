// The benchmark's workloads. Each builds its inputs from the workload seed,
// measures for the requested seconds and fills `result`:
//
//   untraced (--trace 0): the end-to-end metrics (metrics.hpp);
//   traced   (--trace 1): one untraced reference pass plus a replay through
//                         the layers' public calls under obs::Span probes,
//                         reported as the per-layer metrics.
#pragma once

#include "common.hpp"

namespace mbrcbench {

/// Every workload partitions the compatibility graph into subgraphs of at
/// most this many registers, where the flow's default is the paper's 30.
/// At 30 a single dense subgraph's clique enumeration can take seconds (12 s
/// of one 29,400-register design's flow), so flow time across seeds is
/// bimodal and no run-to-run bound holds; at 20 that tail is gone and the
/// figures follow the design size.
inline constexpr int kSubgraphBound = 20;

/// flow_d1x10: run_composition_flow on a generated design.
bool is_batch_workload(const std::string& name);
void run_batch(const Args& args, Result& result);

/// service_d1x10: an in-process daemon driven by a closed-loop client.
bool is_service_workload(const std::string& name);
void run_service(const Args& args, Result& result);

}  // namespace mbrcbench
