// The benchmark's workloads. Each builds its deployment from the fixture,
// measures for RunOptions::seconds, checks its correctness gates and
// fills the report for the run's mode (end-to-end or per-layer).
#pragma once

#include "bench_common.h"

namespace tracebench {

/// 4 TracedEntities on broker 0 of a 4-broker SocketNetwork chain, one
/// tracker on broker 3; open loop at a fixed rate.
Outcome run_state_trace(const Fixture& fixture, const RunOptions& options);

/// Same deployment, closed loop: a fixed window of state changes
/// outstanding per entity.
Outcome run_trace_flood(const Fixture& fixture, const RunOptions& options);

/// 10^5 entities on EntityHosts over an 8-broker VirtualTimeNetwork chain.
Outcome run_host_fleet(const Fixture& fixture, const RunOptions& options);

}  // namespace tracebench
