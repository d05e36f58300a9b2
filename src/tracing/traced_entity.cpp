#include "src/tracing/traced_entity.h"

#include <utility>

namespace et::tracing {

TracedEntity::TracedEntity(transport::NetworkBackend& backend,
                           crypto::Identity identity, TrustAnchors anchors,
                           TracingConfig config, std::uint64_t seed)
    : EntitySession(backend, std::move(identity), std::move(anchors), config,
                    seed, /*batch=*/false) {
  after_failover_ = [this] { announce_recovery(); };
}

TracedEntity::~TracedEntity() { backend_.cancel(announce_timer_); }

void TracedEntity::start_tracing(discovery::DiscoveryRestrictions restrictions,
                                 ReadyCallback on_ready) {
  start(std::move(restrictions), {}, std::move(on_ready));
}

void TracedEntity::set_state(EntityState state) {
  backend_.post(client_.node(), [this, state] {
    state_ = state;
    if (!active_) return;
    SessionMessage sm;
    sm.type = SessionMsgType::kStateReport;
    sm.state = state;
    send_report(sm);
  });
}

void TracedEntity::report_load(const LoadInfo& load) {
  backend_.post(client_.node(), [this, load] {
    if (!active_) return;
    SessionMessage sm;
    sm.type = SessionMsgType::kLoadReport;
    sm.load = load;
    send_report(sm);
  });
}

void TracedEntity::announce_recovery() {
  // Announce the recovery so trackers observe RECOVERING -> READY (§4)
  // instead of an unexplained revival under a fresh session.
  const EntityState resumed =
      state_ == EntityState::kInitializing ? EntityState::kReady : state_;
  SessionMessage sm;
  sm.type = SessionMsgType::kStateReport;
  sm.state = EntityState::kRecovering;
  send_report(sm);
  if (config_.recovery_announce_delay > 0) {
    // Dwell in RECOVERING so trackers that must first re-register interest
    // with the new hosting broker can still witness the transition. A
    // later failover mints a new session, which voids this announcement.
    state_ = EntityState::kRecovering;
    const Uuid session = session_id();
    backend_.cancel(announce_timer_);
    announce_timer_ = backend_.schedule(
        client_.node(), config_.recovery_announce_delay,
        [this, session, resumed] {
          announce_timer_ = 0;
          if (session != session_id() || failing_over() || !active_) return;
          set_state(resumed);
        });
    return;
  }
  sm.state = resumed;
  send_report(sm);
  state_ = resumed;
}

}  // namespace et::tracing
