#include "src/tracing/entity_session.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/pubsub/constrained_topic.h"
#include "src/tracing/trace_emitter.h"

namespace et::tracing {

namespace tt = pubsub::trace_topics;

EntitySession::EntitySession(transport::NetworkBackend& backend,
                             crypto::Identity identity, TrustAnchors anchors,
                             TracingConfig config, std::uint64_t seed,
                             bool batch)
    : backend_(backend),
      identity_(std::move(identity)),
      config_(config),
      client_(backend, identity_.id),
      batch_(batch),
      anchors_(std::move(anchors)),
      rng_(seed),
      disc_(backend, identity_) {
  disc_.set_retry_policy(config_.retry);
}

EntitySession::~EntitySession() {
  backend_.cancel(renewal_timer_);
  backend_.cancel(watchdog_timer_);
  backend_.cancel(failover_timer_);
}

void EntitySession::attach_tdn(transport::NodeId tdn,
                               const transport::LinkParams& params) {
  disc_.attach_tdn(tdn, params);
}

void EntitySession::connect_broker(transport::NodeId broker,
                                   const transport::LinkParams& params) {
  broker_params_ = params;  // reused when failing over to a new broker
  last_broker_activity_ = backend_.now();
  client_.connect(broker, params);
}

void EntitySession::set_delegate_keys(crypto::RsaKeyPair keys) {
  backend_.post(client_.node(), [this, keys = std::move(keys)]() mutable {
    preset_delegate_ = std::move(keys);
  });
}

void EntitySession::start(discovery::DiscoveryRestrictions restrictions,
                          std::vector<std::string> roster,
                          ReadyCallback on_ready) {
  // Step 1: mint the trace topic at the TDN (§3.1). A host mints one topic
  // for its whole roster: tracking a member means tracking its host topic
  // (§14). The callback hops into the client context so all session state
  // stays single-context.
  disc_.create_topic(
      "Availability/Traces/" + identity_.id, std::move(restrictions),
      config_.topic_lifetime,
      [this, roster = std::move(roster), on_ready = std::move(on_ready)](
          Result<discovery::TopicAdvertisement> result) mutable {
        backend_.post(client_.node(), [this, roster = std::move(roster),
                                       result = std::move(result),
                                       on_ready =
                                           std::move(on_ready)]() mutable {
          if (!result.ok()) {
            if (on_ready) on_ready(result.status());
            return;
          }
          advertisement_ = std::move(result).value();
          trace_topic_ = advertisement_.topic();
          active_ = false;  // (re-)registration in progress
          roster_ = std::move(roster);
          alive_.assign(roster_.size(), 1);
          register_with_broker(std::move(on_ready));
        });
      });
}

void EntitySession::register_with_broker(ReadyCallback on_ready) {
  // A re-registration abandons any registration still in flight; its
  // callback must not fire later against a response meant for this one.
  pending_ready_ = std::move(on_ready);
  // Step 2 prep: listen for the response before asking (§3.2). Subscribe
  // once — the client keeps every handler ever registered for a pattern,
  // so re-subscribing here would replay responses into stale callbacks.
  if (!registration_subscribed_) {
    registration_subscribed_ = true;
    const std::string response_topic = "Constrained/Traces/" + identity_.id +
                                       "/Subscribe-Only/RegistrationResponse";
    client_.subscribe(response_topic, [this](const pubsub::Message& m) {
      on_registration_response(m);
    });
  }

  registration_request_id_ = rng_.next_u64() | 1;
  pubsub::Message m;
  m.publisher = identity_.id;
  if (batch_) {
    // ONE request names the whole roster.
    BatchRegistrationRequest req;
    req.host_id = identity_.id;
    req.credential = identity_.credential;
    req.advertisement = advertisement_;
    req.request_id = registration_request_id_;
    req.entity_ids = roster_;
    m.topic = tt::registration_batch();
    m.payload = req.serialize();
  } else {
    RegistrationRequest req;
    req.entity_id = identity_.id;
    req.credential = identity_.credential;
    req.advertisement = advertisement_;
    req.request_id = registration_request_id_;
    m.topic = tt::registration();
    m.payload = req.serialize();
  }
  // §3.2 item 4: demonstrate possession by signing the message.
  publish_signed(client_, std::move(m), identity_.keys.private_key, sequence_,
                 backend_.now());
}

void EntitySession::on_registration_response(const pubsub::Message& m) {
  last_broker_activity_ = backend_.now();
  if (active_) return;  // duplicate delivery after success
  if (!m.encrypted) {
    // Plaintext responses are error reports {request_id, message}.
    try {
      Reader r(m.payload);
      const std::uint64_t req_id = r.u64();
      const std::string error = r.str();
      if (req_id != registration_request_id_) return;
      ET_LOG(kInfo) << identity_.id << ": registration rejected: " << error;
      if (auto cb = std::exchange(pending_ready_, nullptr)) {
        cb(unauthenticated(error));
      }
    } catch (const SerializeError&) {
    }
    return;
  }
  RegistrationResponse resp;
  try {
    const SealedEnvelope env = SealedEnvelope::deserialize(m.payload);
    resp = RegistrationResponse::deserialize(
        env.open(identity_.keys.private_key));
  } catch (const std::exception& e) {
    ET_LOG(kDebug) << identity_.id
                   << ": undecipherable registration response: " << e.what();
    return;
  }
  if (resp.request_id != registration_request_id_) return;

  session_id_ = resp.session_id;
  session_key_ = crypto::SecretKey::deserialize(resp.session_key);
  ++stats_.registrations;

  // Step 3: subscribe to the broker->entity session topic (§3.2); one
  // session topic covers the whole roster.
  client_.subscribe(
      tt::broker_to_entity(identity_.id, trace_topic_.to_string(),
                           session_id_.to_string()),
      [this](const pubsub::Message& ping) { on_ping(ping); });

  deliver_delegation(std::exchange(pending_ready_, nullptr));
}

void EntitySession::deliver_delegation(ReadyCallback on_ready) {
  // Step 4 (§4.3): fresh delegate pair, token signed by our long-term key.
  // ONE delegate pair + token authorizes traces for the whole roster (its
  // members share the trace topic), so re-minting is O(1) per session.
  const crypto::RsaKeyPair delegate =
      preset_delegate_ ? *preset_delegate_
                       : crypto::rsa_generate(rng_, config_.delegate_key_bits);
  const TimePoint now = backend_.now();
  const AuthorizationToken token = AuthorizationToken::create(
      advertisement_, delegate.public_key, TokenRights::kPublish, now,
      now + config_.token_lifetime, identity_.keys.private_key);

  SessionMessage sm;
  sm.type = SessionMsgType::kTokenDelivery;
  sm.token = token.serialize();
  sm.delegate_secret = delegate.private_key.serialize();
  send_session_message(sm, /*force_encrypt=*/true);

  // §4.3: renew the delegation before the token expires. The renewal is
  // a fresh delegation on the same session, not a registration.
  if (config_.auto_renew_tokens) {
    backend_.cancel(renewal_timer_);
    renewal_timer_ = backend_.schedule(
        client_.node(), config_.token_lifetime * 3 / 4, [this] {
          if (active_) deliver_delegation(nullptr);
        });
  }

  if (config_.secure_traces) {
    // The trace key survives token renewals — rotating it here would
    // orphan trackers that already unwrapped it. (Re-)delivery to the
    // broker is idempotent.
    if (trace_key_.empty()) {
      trace_key_ = crypto::SecretKey::generate(rng_, config_.symmetric_alg);
    }
    SessionMessage key_msg;
    key_msg.type = SessionMsgType::kTraceKeyDelivery;
    key_msg.trace_key = trace_key_.serialize();
    send_session_message(key_msg, /*force_encrypt=*/true);
  }

  active_ = true;
  arm_watchdog();
  if (on_ready) on_ready(Status::ok());
}

void EntitySession::on_ping(const pubsub::Message& m) {
  // Any broker traffic proves the broker alive — even pings we choose not
  // to answer (set_responsive(false) simulates a hung entity, not a dead
  // broker), so the silence watchdog must not fail over then.
  last_broker_activity_ = backend_.now();
  SessionMessage ping;
  try {
    ping = SessionMessage::deserialize(m.payload);
  } catch (const SerializeError&) {
    return;
  }
  if (ping.type != SessionMsgType::kPing) return;
  ++stats_.pings_received;
  if (!responsive_) return;  // injected failure: stay silent

  // §3.3: the response echoes the ping's number and timestamp, and packs
  // the roster's responsiveness into the liveness bitmap — bit i of byte
  // i/8 covers roster_[i]. A single entity's roster is empty, and so is
  // its bitmap.
  SessionMessage resp;
  resp.type = SessionMsgType::kPingResponse;
  resp.ping_number = ping.ping_number;
  resp.ping_timestamp = ping.ping_timestamp;
  resp.liveness.assign((roster_.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < roster_.size(); ++i) {
    if (alive_[i]) {
      resp.liveness[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
  }
  send_session_message(resp, /*force_encrypt=*/false);
  ++stats_.pings_answered;
}

void EntitySession::send_session_message(const SessionMessage& sm,
                                         bool force_encrypt) {
  pubsub::Message m;
  m.topic = tt::entity_to_broker(trace_topic_.to_string(),
                                 session_id_.to_string());
  m.publisher = identity_.id;

  const bool encrypt =
      force_encrypt ||
      config_.signing_mode == EntitySigningMode::kSymmetricSession;
  if (encrypt) {
    // §6.3: encryption with the shared session key authenticates us —
    // "the broker accepts messages encrypted with this key as having
    // originated by the entity in question".
    m.payload = session_key_.encrypt(sm.serialize(), rng_);
    m.encrypted = true;
    m.sequence = ++sequence_;
    m.timestamp = backend_.now();
    client_.publish(std::move(m));
    return;
  }
  // §4.2: sign every message, including ping responses.
  m.payload = sm.serialize();
  publish_signed(client_, std::move(m), identity_.keys.private_key, sequence_,
                 backend_.now());
}

void EntitySession::send_report(const SessionMessage& sm) {
  send_session_message(sm, /*force_encrypt=*/false);
  ++stats_.reports_sent;
}

void EntitySession::renew_token() {
  backend_.post(client_.node(), [this] {
    if (!active_) return;
    // Fresh delegation: new key pair, new token, same session. The broker
    // replaces its delegation atomically on receipt. A renewal failure is
    // indistinguishable from expiry, so there is no callback; the next
    // renewal timer is re-armed inside deliver_delegation.
    deliver_delegation(nullptr);
  });
}

void EntitySession::stop_tracing() {
  backend_.post(client_.node(), [this] {
    if (!active_) return;
    SessionMessage sm;
    sm.type = SessionMsgType::kSilentMode;
    send_session_message(sm, false);
    active_ = false;
    backend_.cancel(renewal_timer_);
  });
}

void EntitySession::disconnect() {
  backend_.post(client_.node(), [this] {
    active_ = false;
    backend_.cancel(renewal_timer_);
    if (client_.broker() != transport::kInvalidNode) {
      backend_.unlink(client_.node(), client_.broker());
    }
  });
}

void EntitySession::set_responsive(bool responsive) {
  backend_.post(client_.node(), [this, responsive] {
    responsive_ = responsive;
  });
}

// --- broker-silence failover (DESIGN.md §11) -----------------------------

void EntitySession::arm_watchdog() {
  if (config_.broker_silence_timeout <= 0) return;
  backend_.cancel(watchdog_timer_);
  const Duration interval =
      std::max<Duration>(1, config_.broker_silence_timeout / 2);
  watchdog_timer_ =
      backend_.schedule(client_.node(), interval, [this] { on_watchdog(); });
}

void EntitySession::on_watchdog() {
  watchdog_timer_ = 0;
  if (!active_ || failing_over_) return;
  if (backend_.now() - last_broker_activity_ >=
      config_.broker_silence_timeout) {
    ET_LOG(kInfo) << identity_.id
                  << ": hosting broker silent; starting failover";
    begin_failover();
    return;
  }
  arm_watchdog();
}

void EntitySession::begin_failover() {
  failing_over_ = true;
  active_ = false;
  backend_.cancel(renewal_timer_);
  backend_.cancel(watchdog_timer_);
  watchdog_timer_ = 0;
  // Sever the dead broker's link: if it is in fact alive (we were merely
  // partitioned), its next ping send gets kUnavailable and it tears the
  // stale session down with a DISCONNECT trace per member — exactly the
  // bookkeeping we want for a session we are abandoning.
  if (client_.broker() != transport::kInvalidNode &&
      backend_.linked(client_.node(), client_.broker())) {
    backend_.unlink(client_.node(), client_.broker());
  }
  failover_retry_ = RetryState(config_.retry, backend_.now());
  attempt_failover();
}

void EntitySession::attempt_failover() {
  const std::uint64_t gen = ++failover_gen_;
  ++stats_.failover_attempts;
  // One attempt = find_broker -> connect -> resubscribe -> re-register ->
  // re-mint delegation; one re-registration re-homes the whole roster. The
  // whole tail after find_broker runs under one timeout; a TDN may hand us
  // a broker that crashed after registering.
  const Duration step_timeout =
      std::max<Duration>(100 * kMillisecond, config_.broker_silence_timeout);
  disc_.find_broker(
      [this, gen, step_timeout](Result<discovery::BrokerLocation> r) {
        backend_.post(client_.node(), [this, gen, step_timeout,
                                       r = std::move(r)]() mutable {
          if (gen != failover_gen_ || !failing_over_) return;
          if (!r.ok()) {
            failover_backoff();
            return;
          }
          const discovery::BrokerLocation loc = std::move(r).value();
          failover_timer_ =
              backend_.schedule(client_.node(), step_timeout, [this, gen] {
                if (gen != failover_gen_ || !failing_over_) return;
                failover_timer_ = 0;
                pending_ready_ = nullptr;  // abandon the in-flight attempt
                if (client_.broker() != transport::kInvalidNode &&
                    backend_.linked(client_.node(), client_.broker())) {
                  backend_.unlink(client_.node(), client_.broker());
                }
                failover_backoff();
              });
          client_.connect(loc.node, broker_params_, [this,
                                                     gen](const Status& s) {
            if (gen != failover_gen_ || !failing_over_) return;
            if (!s.is_ok()) return;  // the per-attempt timeout handles it
            // The new broker knows none of our subscriptions (broker-side
            // state is per-broker): replay them, then re-register. The
            // subscribe frames travel the same ordered link first, so the
            // registration response cannot outrun its subscription.
            client_.resubscribe_all();
            register_with_broker([this, gen](const Status& rs) {
              if (gen != failover_gen_ || !failing_over_) return;
              backend_.cancel(failover_timer_);
              failover_timer_ = 0;
              if (!rs.is_ok()) {
                failover_backoff();
                return;
              }
              finish_failover();
            });
          });
        });
      },
      step_timeout);
}

void EntitySession::failover_backoff() {
  Duration delay = 0;
  if (!failover_retry_.next_delay(backend_.now(), rng_, &delay)) {
    // An availability reporter must never stop trying to report: once the
    // policy's budget is spent, restart the schedule at max-backoff
    // cadence instead of giving up.
    failover_retry_ = RetryState(config_.retry, backend_.now());
    delay = std::max<Duration>(1, config_.retry.max_backoff);
  }
  failover_timer_ = backend_.schedule(client_.node(), delay, [this] {
    failover_timer_ = 0;
    if (failing_over_) attempt_failover();
  });
}

void EntitySession::finish_failover() {
  failing_over_ = false;
  ++stats_.failovers;
  last_broker_activity_ = backend_.now();
  ET_LOG(kInfo) << identity_.id << ": failover complete, session "
                << session_id_.to_string();
  if (after_failover_) after_failover_();
}

}  // namespace et::tracing
