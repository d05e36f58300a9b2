#include "src/tracing/trace_types.h"

#include "src/pubsub/constrained_topic.h"

namespace et::tracing {

std::string_view trace_type_name(TraceType t) {
  switch (t) {
    case TraceType::kInitializing: return "INITIALIZING";
    case TraceType::kRecovering: return "RECOVERING";
    case TraceType::kReady: return "READY";
    case TraceType::kShutdown: return "SHUTDOWN";
    case TraceType::kFailureSuspicion: return "FAILURE_SUSPICION";
    case TraceType::kFailed: return "FAILED";
    case TraceType::kDisconnect: return "DISCONNECT";
    case TraceType::kGaugeInterest: return "GAUGE_INTEREST";
    case TraceType::kJoin: return "JOIN";
    case TraceType::kRevertingToSilentMode: return "REVERTING_TO_SILENT_MODE";
    case TraceType::kAllsWell: return "ALLS_WELL";
    case TraceType::kLoadInformation: return "LOAD_INFORMATION";
    case TraceType::kNetworkMetrics: return "NETWORK_METRICS";
    case TraceType::kDigest: return "DIGEST";
    case TraceType::kBatch: return "BATCH";
  }
  return "UNKNOWN";
}

std::uint8_t category_of(TraceType t) {
  switch (t) {
    case TraceType::kInitializing:
    case TraceType::kRecovering:
    case TraceType::kReady:
    case TraceType::kShutdown:
      return kCatStateTransitions;
    case TraceType::kFailureSuspicion:
    case TraceType::kFailed:
    case TraceType::kDisconnect:
    case TraceType::kJoin:
    case TraceType::kRevertingToSilentMode:
      return kCatChangeNotifications;
    case TraceType::kAllsWell:
    case TraceType::kDigest:  // digests carry coalesced ALLS_WELL
      return kCatAllUpdates;
    case TraceType::kLoadInformation:
      return kCatLoad;
    case TraceType::kNetworkMetrics:
      return kCatNetworkMetrics;
    case TraceType::kGaugeInterest:
    case TraceType::kBatch:
      return 0;
  }
  return 0;
}

std::string_view category_suffix(std::uint8_t category_bit) {
  switch (category_bit) {
    case kCatChangeNotifications:
      return pubsub::trace_topics::kChangeNotifications;
    case kCatAllUpdates:
      return pubsub::trace_topics::kAllUpdates;
    case kCatStateTransitions:
      return pubsub::trace_topics::kStateTransitions;
    case kCatLoad:
      return pubsub::trace_topics::kLoad;
    case kCatNetworkMetrics:
      return pubsub::trace_topics::kNetworkMetrics;
    default:
      return "";
  }
}

TraceType state_trace_type(EntityState s) {
  switch (s) {
    case EntityState::kInitializing: return TraceType::kInitializing;
    case EntityState::kRecovering: return TraceType::kRecovering;
    case EntityState::kReady: return TraceType::kReady;
    case EntityState::kShutdown: return TraceType::kShutdown;
  }
  return TraceType::kReady;
}

std::string_view entity_state_name(EntityState s) {
  return trace_type_name(state_trace_type(s));
}

}  // namespace et::tracing
