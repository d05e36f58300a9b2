// Trace payloads and session-channel messages.
//
// Two payload families travel through the system:
//   * `TracePayload` — broker -> trackers, published on the per-category
//     derived topics (the actual traces of Table 1);
//   * `SessionMessage` — traced entity <-> hosting broker over the two
//     session topics of §3.2 (pings, ping responses, state/load reports,
//     delegation-token and trace-key delivery).
// A trace message's body is one serialized `TracePayload`, or a batch of
// them (`encode_trace_batch`, DESIGN.md §14 "Trace batches").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/serialize.h"
#include "src/tracing/trace_types.h"

namespace et::tracing {

/// CPU / memory / workload snapshot (paper Table 1, LOAD_INFORMATION).
struct LoadInfo {
  double cpu_utilization = 0.0;     // [0,1]
  double memory_utilization = 0.0;  // [0,1]
  std::uint32_t workload = 0;       // queued work items

  void encode(Writer& w) const;
  static LoadInfo decode(Reader& r);
  friend bool operator==(const LoadInfo&, const LoadInfo&) = default;
};

/// Loss/latency/bandwidth of the broker-entity link (NETWORK_METRICS).
struct NetworkMetrics {
  double loss_rate = 0.0;           // fraction of pings unanswered
  double mean_rtt_ms = 0.0;         // round-trip over the window
  double out_of_order_rate = 0.0;   // reordered ping responses
  double bandwidth_bytes_per_us = 0.0;

  void encode(Writer& w) const;
  static NetworkMetrics decode(Reader& r);
  friend bool operator==(const NetworkMetrics&, const NetworkMetrics&) =
      default;
};

/// One published trace (the payload of a pubsub::Message on a trace topic).
struct TracePayload {
  TraceType type = TraceType::kAllsWell;
  std::string entity_id;
  TimePoint issued_at = 0;
  /// Optional details by type.
  std::optional<EntityState> state;           // state transitions
  std::optional<LoadInfo> load;               // LOAD_INFORMATION
  std::optional<NetworkMetrics> metrics;      // NETWORK_METRICS
  /// GAUGE_INTEREST: traces will be encrypted; trackers must run the key
  /// exchange before subscribing pays off (§5.1).
  bool secured = false;
  /// Free-form detail (diagnostics; FAILURE reasons).
  std::string detail;

  [[nodiscard]] Bytes serialize() const;
  static TracePayload deserialize(BytesView b);
};

/// Most traces one batch message carries; a longer pass publishes more
/// than one batch.
inline constexpr std::size_t kTraceBatchMax = 64;

/// Body of a TraceType::kBatch message: one session's traces from one
/// event-loop pass, all bound for one publication topic, in issue order.
/// Layout: u8 kBatch, u32 count, then `count` length-prefixed serialized
/// TracePayloads. A pass with one trace publishes that trace's own body
/// instead, so a batch always holds 2..kTraceBatchMax traces.
Bytes encode_trace_batch(const std::vector<Bytes>& traces);

/// True when `body` is a batch body rather than one serialized
/// TracePayload (whose first byte is a payload type, never kBatch).
bool is_trace_batch(BytesView body);

/// Decodes a batch body into its traces, in order. Throws SerializeError
/// on a count outside 2..kTraceBatchMax or one the remaining bytes cannot
/// hold, on any malformed entry, and on an entry that is itself a batch
/// or a GAUGE_INTEREST probe (probes ride the Interest topic alone).
std::vector<TracePayload> decode_trace_batch(BytesView body);

/// Verbs on the entity<->broker session topics.
enum class SessionMsgType : std::uint8_t {
  kPing = 1,           // broker -> entity
  kPingResponse = 2,   // entity -> broker (echoes number + timestamp)
  kStateReport = 3,    // entity -> broker
  kLoadReport = 4,     // entity -> broker
  kTokenDelivery = 5,  // entity -> broker: delegation token + delegate key
  kTraceKeyDelivery = 6,  // entity -> broker: secret trace key (§5.1)
  kSilentMode = 7,     // entity -> broker: stop tracing me
};

/// One session-channel message. Pings carry "a monotonically increasing
/// message number and the timestamp at which it was issued"; responses
/// "must include both" (§3.3).
struct SessionMessage {
  SessionMsgType type = SessionMsgType::kPing;
  std::uint64_t ping_number = 0;
  TimePoint ping_timestamp = 0;
  std::optional<EntityState> state;
  std::optional<LoadInfo> load;
  /// kTokenDelivery: serialized AuthorizationToken.
  Bytes token;
  /// kTokenDelivery: the serialized delegate RSA private key the broker
  /// signs traces with. Only ever sent over the encrypted session channel.
  Bytes delegate_secret;
  /// kTraceKeyDelivery: serialized crypto::SecretKey.
  Bytes trace_key;
  /// kPingResponse: per-member responsiveness bitmap (bit i = member i of
  /// the batch registration order is responsive). A single entity sends
  /// it empty, and an empty bitmap answers for every roster member.
  Bytes liveness;

  [[nodiscard]] Bytes serialize() const;
  static SessionMessage deserialize(BytesView b);
};

}  // namespace et::tracing
