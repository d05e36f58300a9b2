// The entity-host client (DESIGN.md §14): batch-first registration for
// co-hosted entities.
//
// A host process running many entities (a container runtime, an actor
// system, a service mesh sidecar) runs one EntitySession (see
// entity_session.h) for its whole roster:
//   1. mint a single trace topic `Availability/Traces/<host-id>` at the
//      TDN — trackers discover members through the host topic;
//   2. send one signed BatchRegistrationRequest naming every member over
//      the RegistrationBatch constrained topic;
//   3. decrypt one registration response, subscribe to one session
//      topic, deliver ONE delegation (token + delegate key) covering the
//      whole roster — the re-mint round-trips collapse from O(entities)
//      to O(1) per host;
//   4. answer each broker ping with a liveness bitmap (bit i = member i
//      of the registration order), so one ping/response pair carries the
//      whole roster's availability.
//
// The broker fans the bitmap back out into per-member observations (when
// digests are enabled, the answering members' bits ride the host's digest
// as one bitmap), so trackers keep exact per-entity semantics. A failover
// re-homes the whole roster with one batch re-registration and announces
// nothing: hosts carry no per-member state machine, and the broker's next
// ping round re-establishes every member's liveness from the bitmap.
#pragma once

#include <string>
#include <vector>

#include "src/tracing/entity_session.h"

namespace et::tracing {

class EntityHost : public EntitySession {
 public:
  EntityHost(transport::NetworkBackend& backend, crypto::Identity identity,
             TrustAnchors anchors, TracingConfig config, std::uint64_t seed);

  /// Runs steps 1-3 above for `entity_ids` (the batch registration
  /// order — liveness bitmap bit i refers to entity_ids[i] forever
  /// after). `restrictions` controls who may discover the host topic.
  /// `on_ready` fires once the delegation is delivered (or with the
  /// first error). Registering again replaces the previous roster.
  void register_entities(discovery::DiscoveryRestrictions restrictions,
                         std::vector<std::string> entity_ids,
                         ReadyCallback on_ready);

  /// set_responsive(bool) hangs the whole host.
  using EntitySession::set_responsive;

  /// Failure injection for one member: while false, its liveness bit
  /// stays clear, driving per-member suspicion/failure at the broker
  /// while the rest of the roster keeps reporting healthy.
  void set_responsive(const std::string& entity_id, bool responsive);

  [[nodiscard]] const std::string& host_id() const { return identity_.id; }
  [[nodiscard]] std::size_t entity_count() const { return roster_.size(); }
};

}  // namespace et::tracing
