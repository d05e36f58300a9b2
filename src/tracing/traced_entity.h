// The traced-entity client (paper §3.1/§3.2, §4.2, §4.3, §6.3).
//
// An entity that wants to be traced runs one EntitySession (see
// entity_session.h for the paper's sequence) whose roster is just itself:
// it mints `Availability/Traces/<entity-id>`, registers with a
// RegistrationRequest, delegates a token and answers pings. On top of the
// session it pushes state/load reports, and after a broker failover it
// announces RECOVERING, then its resumed state.
#pragma once

#include <string>

#include "src/tracing/entity_session.h"

namespace et::tracing {

class TracedEntity : public EntitySession {
 public:
  TracedEntity(transport::NetworkBackend& backend, crypto::Identity identity,
               TrustAnchors anchors, TracingConfig config, std::uint64_t seed);

  /// Cancels the recovery-announcement timer.
  ~TracedEntity();

  /// Runs the session's steps 1-4. `restrictions` controls who may
  /// discover the trace topic. `on_ready` fires once the delegation is
  /// delivered (or with the first error).
  void start_tracing(discovery::DiscoveryRestrictions restrictions,
                     ReadyCallback on_ready);

  /// Reports a state transition (broker republishes on StateTransitions).
  void set_state(EntityState state);

  /// Reports load (broker republishes on Load).
  void report_load(const LoadInfo& load);

  [[nodiscard]] const std::string& entity_id() const { return identity_.id; }
  [[nodiscard]] EntityState state() const { return state_; }

 private:
  /// Reports RECOVERING, then the resumed state, after a failover.
  void announce_recovery();

  EntityState state_ = EntityState::kInitializing;
  transport::TimerId announce_timer_ = 0;
};

}  // namespace et::tracing
