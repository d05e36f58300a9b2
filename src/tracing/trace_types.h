// Trace vocabulary (paper Tables 1 and 2).
//
// A *trace* encapsulates one observation about a traced entity. Traces are
// grouped into categories, each published on its own derived constrained
// topic so trackers subscribe selectively (§3.3, "Publishing Trace
// Information"). The paper spells GAUGE_INTEREST as "GUAGE_INTEREST"; we
// use the corrected spelling.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace et::tracing {

/// Every trace type from paper Table 1.
enum class TraceType : std::uint8_t {
  // State information reported by a traced entity.
  kInitializing = 1,
  kRecovering = 2,
  kReady = 3,
  kShutdown = 4,
  // Broker-generated failure detection.
  kFailureSuspicion = 5,
  kFailed = 6,
  kDisconnect = 7,
  // Interest gauging.
  kGaugeInterest = 8,
  // Tracing lifecycle.
  kJoin = 9,
  kRevertingToSilentMode = 10,
  // Heartbeat while the entity responds to pings.
  kAllsWell = 11,
  // Entity-reported load.
  kLoadInformation = 12,
  // Broker-measured link behaviour.
  kNetworkMetrics = 13,
  // Coalesced per-host availability digest (DESIGN.md §14): one signed
  // trace carrying ALLS_WELL observations for every co-hosted entity,
  // expanded back to per-entity traces at the tracker edge.
  kDigest = 14,
  // One session's traces from one event-loop pass under one signature
  // (DESIGN.md §14, "Trace batches"); a message body, never a payload.
  kBatch = 15,
};

/// Wire/diagnostic name ("FAILURE_SUSPICION", ...).
std::string_view trace_type_name(TraceType t);

/// Trace categories = the per-type publication topics of Table 2.
/// Bitmask so trackers can register interest in any combination (§3.5).
enum TraceCategory : std::uint8_t {
  kCatChangeNotifications = 1u << 0,  // JOIN, FAILURE_SUSPICION, FAILED,
                                      // DISCONNECT, REVERTING_TO_SILENT_MODE
  kCatAllUpdates = 1u << 1,           // ALLS_WELL heartbeats
  kCatStateTransitions = 1u << 2,     // INITIALIZING/RECOVERING/READY/SHUTDOWN
  kCatLoad = 1u << 3,                 // LOAD_INFORMATION
  kCatNetworkMetrics = 1u << 4,       // NETWORK_METRICS
};

/// All categories.
inline constexpr std::uint8_t kCatAll =
    kCatChangeNotifications | kCatAllUpdates | kCatStateTransitions |
    kCatLoad | kCatNetworkMetrics;

/// The category a trace type is published under (Table 2 row).
/// kGaugeInterest maps to no category (it rides the Interest topic), and
/// neither does kBatch (it rides its entries' category topic).
std::uint8_t category_of(TraceType t);

/// Topic suffix for a category ("ChangeNotifications", ...).
std::string_view category_suffix(std::uint8_t category_bit);

/// Entity lifecycle states (the state-information trace types).
enum class EntityState : std::uint8_t {
  kInitializing = 1,
  kRecovering = 2,
  kReady = 3,
  kShutdown = 4,
};

/// Trace type announcing a transition into `s`.
TraceType state_trace_type(EntityState s);
std::string_view entity_state_name(EntityState s);

}  // namespace et::tracing
