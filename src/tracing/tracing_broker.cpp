#include "src/tracing/tracing_broker.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/pubsub/constrained_topic.h"

namespace et::tracing {

namespace tt = pubsub::trace_topics;

namespace {

/// A session's roster epoch, taken from its random id so that no two
/// sessions share one; never 0, which means "none".
std::uint64_t roster_epoch_of(const Uuid& session_id) {
  const Bytes id = session_id.to_bytes();
  std::uint64_t epoch = 0;
  for (int i = 0; i < 8; ++i) epoch = (epoch << 8) | id[i];
  return epoch == 0 ? 1 : epoch;
}

}  // namespace

TracingBrokerService::TracingBrokerService(pubsub::Broker& broker,
                                           TrustAnchors anchors,
                                           TracingConfig config,
                                           std::uint64_t seed)
    : broker_(broker),
      anchors_(std::move(anchors)),
      config_(config),
      rng_(seed),
      wheel_(TimerWheel::Scheduler{
                 [this](Duration d, std::function<void()> f) {
                   return broker_.backend().schedule(broker_.node(), d,
                                                     std::move(f));
                 },
                 [this](std::uint64_t id) { broker_.backend().cancel(id); },
                 [this] { return broker_.backend().now(); }},
             config.timer_wheel_tick),
      emitter_(broker, rng_,
               TraceEmitter::Options{config.digest_interval,
                                     config.digest_max_entries},
               &wheel_,
               [this](const std::string& host_id, std::uint64_t epoch) {
                 return owed_roster(host_id, epoch);
               }) {
  // §3.2: entities register with THE broker they are connected to, so the
  // registration subscriptions must not propagate — otherwise every broker
  // in the network would mint a (phantom) session for every entity.
  registration_service_ = broker_.subscribe_local(
      tt::registration(),
      [this](const pubsub::Message& m) { handle_registration(m); },
      /*local_only=*/true);
  batch_registration_service_ = broker_.subscribe_local(
      tt::registration_batch(),
      [this](const pubsub::Message& m) { handle_batch_registration(m); },
      /*local_only=*/true);
  // A client whose link vanished without a silent-mode request gets a
  // DISCONNECT trace (paper Table 1) and its session torn down. Every
  // roster member is disconnected individually so trackers keep
  // per-entity semantics. The broker cannot drop a listener, so this one
  // turns inert once the service is gone.
  broker_.add_client_unreachable_listener(
      [this, alive = std::weak_ptr<const bool>(alive_)](
          const std::string& entity) {
    if (alive.expired()) return;
    const auto it = by_entity_.find(entity);
    if (it == by_entity_.end()) return;
    const auto sit = sessions_.find(it->second);
    if (sit == sessions_.end()) return;
    disconnect_session(sit->second, "client link lost");
  });
}

TracingBrokerService::~TracingBrokerService() {
  // Unhook every broker registration that captures `this`. Open batches
  // and pending digests die unpublished with the emitter (its queued
  // flush task turns inert), and the wheel cancels the session timers.
  alive_.reset();
  broker_.unsubscribe_local(registration_service_);
  broker_.unsubscribe_local(batch_registration_service_);
  for (const auto& [sid, s] : sessions_) {
    broker_.unsubscribe_local(s.session_service);
    broker_.unsubscribe_local(s.interest_service);
  }
}

bool TracingBrokerService::has_session_for(const std::string& entity_id) const {
  return by_entity_.contains(entity_id);
}

TracingBrokerService::SessionView TracingBrokerService::session_view(
    const std::string& entity_id) const {
  SessionView v;
  const auto it = by_entity_.find(entity_id);
  if (it == by_entity_.end()) return v;
  const auto sit = sessions_.find(it->second);
  if (sit == sessions_.end()) return v;
  const Session& s = sit->second;
  v.exists = true;
  v.current_ping_interval = s.ping_interval;
  v.effective_interest = effective_interest(s);
  v.secure = s.secure;
  // A host id is no member: it reads the whole host's miss count.
  v.suspected = s.consecutive_misses >= config_.suspicion_misses;
  v.failed = s.consecutive_misses >= config_.failed_misses;
  for (const auto h : s.members) {
    if (!roster_.contains(h)) continue;
    const MemberRecord& rec = roster_[h];
    if (rec.entity_id != entity_id) continue;
    v.suspected = rec.suspected;
    v.failed = rec.failed;
    break;
  }
  return v;
}

TraceEmitter::Signing TracingBrokerService::signing(const Session& s) const {
  return TraceEmitter::Signing{s.trace_topic, &s.token, &s.delegate_key,
                               &s.trace_key, s.secure};
}

void TracingBrokerService::publish_registration_error(
    const std::string& entity_id, std::uint64_t request_id,
    const std::string& error) {
  // Plaintext error marker on the entity's response topic (§3.2: "an
  // error message is returned back to the entity").
  Writer w;
  w.u64(request_id);
  w.str(error);
  pubsub::Message m;
  m.topic = "Constrained/Traces/" + entity_id +
            "/Subscribe-Only/RegistrationResponse";
  m.payload = std::move(w).take();
  m.encrypted = false;
  broker_.publish_from_broker(std::move(m));
}

bool TracingBrokerService::verify_registration(
    const pubsub::Message& m, const std::string& id,
    const crypto::Credential& credential,
    const discovery::TopicAdvertisement& advertisement,
    std::uint64_t request_id) {
  const TimePoint now = broker_.backend().now();

  // Credential must chain to the CA.
  if (const Status s = credential.verify(anchors_.ca_key, now); !s.is_ok()) {
    ++stats_.rejected_registrations;
    publish_registration_error(id, request_id, s.to_string());
    return false;
  }
  // Proof of possession: message signed with the credential's key (§3.2).
  if (!credential.public_key().verify(m.signable_bytes(), m.signature)) {
    ++stats_.rejected_registrations;
    publish_registration_error(id, request_id,
                               "registration signature invalid");
    return false;
  }
  // Identity consistency.
  if (credential.subject() != id) {
    ++stats_.rejected_registrations;
    publish_registration_error(id, request_id, "credential subject mismatch");
    return false;
  }
  // Trace-topic provenance: TDN-signed advertisement owned by this entity.
  if (const Status s = advertisement.verify(anchors_.tdn_key, now);
      !s.is_ok()) {
    ++stats_.rejected_registrations;
    publish_registration_error(id, request_id, s.to_string());
    return false;
  }
  if (advertisement.owner().subject() != id) {
    ++stats_.rejected_registrations;
    publish_registration_error(id, request_id,
                               "advertisement owned by someone else");
    return false;
  }
  return true;
}

void TracingBrokerService::mint_session(const std::string& id,
                                        const crypto::Credential& cred,
                                        const discovery::TopicAdvertisement& ad,
                                        std::uint64_t request_id,
                                        std::vector<std::string> member_ids) {
  Session s;
  s.session_id = Uuid::generate(rng_);
  s.entity_id = id;
  s.trace_topic = ad.topic().to_string();
  s.credential = cred;
  s.advertisement = ad;
  s.session_key = crypto::SecretKey::generate(rng_, config_.symmetric_alg);
  s.ping_interval = config_.ping_interval;
  s.roster_epoch = roster_epoch_of(s.session_id);
  const Uuid sid = s.session_id;

  // Broker subscribes to the entity->broker session topic (§3.2). The
  // entity is connected here, so the subscription stays local.
  s.session_service = broker_.subscribe_local(
      tt::entity_to_broker(s.trace_topic, sid.to_string()),
      [this, sid](const pubsub::Message& msg) {
        handle_session_message(sid, msg);
      },
      /*local_only=*/true);
  // ... and to the interest-response topic for this trace topic (§3.5).
  s.interest_service = broker_.subscribe_local(
      tt::interest_response(s.trace_topic),
      [this, sid](const pubsub::Message& msg) {
        handle_interest_response(sid, msg);
      });

  // Replace any existing session claiming this id or one of its members
  // (re-registration; a member migrating between hosts follows its newest
  // registration). The new services are already up, so a re-registration
  // on the same trace topic never retracts its interest edge.
  auto replace = [this](const std::string& entity) {
    const auto it = by_entity_.find(entity);
    if (it == by_entity_.end()) return;
    const auto sit = sessions_.find(it->second);
    if (sit != sessions_.end()) {
      erase_session(sit->second);
    } else {
      by_entity_.erase(it);
    }
  };
  replace(id);
  for (const std::string& member : member_ids) replace(member);
  s.members.reserve(member_ids.size());
  for (std::string& member : member_ids) {
    s.members.push_back(roster_.emplace(MemberRecord{std::move(member)}));
  }

  // Hybrid-encrypted response: only the registering entity can read it.
  RegistrationResponse resp;
  resp.request_id = request_id;
  resp.session_id = sid;
  resp.session_key = s.session_key.serialize();
  resp.broker_name = broker_.name();
  const SealedEnvelope env = SealedEnvelope::seal(
      resp.serialize(), cred.public_key(), rng_, config_.symmetric_alg);
  pubsub::Message out;
  out.topic =
      "Constrained/Traces/" + id + "/Subscribe-Only/RegistrationResponse";
  out.payload = env.serialize();
  out.encrypted = true;
  broker_.publish_from_broker(std::move(out));

  // Start pulling (§3.3). Trace publication waits for the token.
  s.ping_timer =
      wheel_.schedule(s.ping_interval, [this, sid] { on_ping_timer(sid); });
  s.metrics_timer = wheel_.schedule(config_.metrics_interval,
                                    [this, sid] { on_metrics_timer(sid); });

  by_entity_[s.entity_id] = sid;
  for (const auto h : s.members) by_entity_[roster_[h].entity_id] = sid;
  sessions_.emplace(sid, std::move(s));
  ++stats_.registrations;
}

void TracingBrokerService::handle_registration(const pubsub::Message& m) {
  RegistrationRequest req;
  try {
    req = RegistrationRequest::deserialize(m.payload);
  } catch (const SerializeError&) {
    ++stats_.rejected_registrations;
    return;
  }
  if (!verify_registration(m, req.entity_id, req.credential,
                           req.advertisement, req.request_id)) {
    return;
  }
  // A single entity is a roster of one.
  mint_session(req.entity_id, req.credential, req.advertisement,
               req.request_id, {req.entity_id});
}

void TracingBrokerService::handle_batch_registration(const pubsub::Message& m) {
  BatchRegistrationRequest req;
  try {
    req = BatchRegistrationRequest::deserialize(m.payload);
  } catch (const SerializeError&) {
    ++stats_.rejected_registrations;
    return;
  }
  if (req.entity_ids.empty()) {
    ++stats_.rejected_registrations;
    publish_registration_error(req.host_id, req.request_id,
                               "batch registration without entities");
    return;
  }
  if (!verify_registration(m, req.host_id, req.credential, req.advertisement,
                           req.request_id)) {
    return;
  }
  mint_session(req.host_id, req.credential, req.advertisement, req.request_id,
               std::move(req.entity_ids));
  ++stats_.batch_registrations;
}

Result<SessionMessage> TracingBrokerService::authenticate_session_message(
    Session& s, const pubsub::Message& m) const {
  if (m.encrypted) {
    // §6.3: possession of the session key authenticates the entity.
    try {
      return SessionMessage::deserialize(s.session_key.decrypt(m.payload));
    } catch (const std::exception& e) {
      return unauthenticated(std::string("session decrypt failed: ") +
                             e.what());
    }
  }
  // §4.2: every entity-initiated message is signed.
  if (!s.credential.public_key().verify(m.signable_bytes(), m.signature)) {
    return unauthenticated("session message signature invalid");
  }
  try {
    return SessionMessage::deserialize(m.payload);
  } catch (const SerializeError& e) {
    return invalid_argument(std::string("malformed session message: ") +
                            e.what());
  }
}

void TracingBrokerService::handle_session_message(const Uuid& session_id,
                                                  const pubsub::Message& m) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;

  Result<SessionMessage> sm = authenticate_session_message(s, m);
  if (!sm.ok()) {
    ++stats_.rejected_session_messages;
    ET_LOG(kDebug) << broker_.name() << ": dropped session message from "
                   << s.entity_id << ": " << sm.status().to_string();
    return;
  }

  switch (sm->type) {
    case SessionMsgType::kPingResponse:
      handle_ping_response(s, *sm);
      break;
    case SessionMsgType::kStateReport: {
      if (!sm->state) break;
      s.last_state = sm->state;
      TracePayload p;
      p.type = state_trace_type(*sm->state);
      p.entity_id = s.entity_id;
      p.state = sm->state;
      publish_trace(s, std::move(p));
      break;
    }
    case SessionMsgType::kLoadReport: {
      if (!sm->load) break;
      TracePayload p;
      p.type = TraceType::kLoadInformation;
      p.entity_id = s.entity_id;
      p.load = sm->load;
      publish_trace(s, std::move(p));
      break;
    }
    case SessionMsgType::kTokenDelivery:
      handle_token_delivery(s, *sm);
      break;
    case SessionMsgType::kTraceKeyDelivery: {
      crypto::SecretKey key;
      try {
        key = crypto::SecretKey::deserialize(sm->trace_key);
      } catch (const std::exception&) {
        ++stats_.rejected_session_messages;
        break;
      }
      // Traces batched so far go out under the key they were made under.
      emitter_.cut(s.entity_id);
      s.trace_key = std::move(key);
      s.secure = true;
      break;
    }
    case SessionMsgType::kSilentMode: {
      TracePayload p;
      p.type = TraceType::kRevertingToSilentMode;
      p.entity_id = s.entity_id;
      publish_trace(s, std::move(p));
      // The publish may reentrantly tear down this session (see
      // on_ping_timer); only tear down here if it is still live.
      if (sessions_.contains(session_id)) erase_session(s);
      break;
    }
    default:
      break;
  }
}

void TracingBrokerService::handle_token_delivery(Session& s,
                                                 const SessionMessage& sm) {
  AuthorizationToken token;
  crypto::RsaPrivateKey delegate;
  try {
    token = AuthorizationToken::deserialize(sm.token);
    delegate = crypto::RsaPrivateKey::deserialize(sm.delegate_secret);
  } catch (const std::exception&) {
    ++stats_.rejected_session_messages;
    return;
  }
  const TimePoint now = broker_.backend().now();
  if (const Status st = token.verify(anchors_.tdn_key, anchors_.ca_key, now);
      !st.is_ok()) {
    ++stats_.rejected_session_messages;
    ET_LOG(kDebug) << broker_.name() << ": rejected token from "
                   << s.entity_id << ": " << st.to_string();
    return;
  }
  if (token.trace_topic().to_string() != s.trace_topic ||
      token.rights() != TokenRights::kPublish) {
    ++stats_.rejected_session_messages;
    return;
  }
  if (!(delegate.public_key() == token.delegate_key())) {
    ++stats_.rejected_session_messages;
    return;
  }
  // Traces batched so far go out under the token they were made under.
  emitter_.cut(s.entity_id);
  s.token = std::move(token);
  s.delegate_key = std::move(delegate);

  if (!s.join_published) {
    // "The first time a traced entity registers with a broker, the broker
    // issues a JOIN trace." Publication needs the token, so JOIN goes out
    // as soon as the delegation lands. One JOIN per session — a host's
    // roster is announced by its first digest/heartbeats.
    s.join_published = true;
    TracePayload p;
    p.type = TraceType::kJoin;
    p.entity_id = s.entity_id;
    publish_trace(s, std::move(p));
  }
  if (s.gauge_timer == 0) {
    const Uuid sid = s.session_id;
    s.gauge_timer = wheel_.schedule(config_.gauge_interval,
                                    [this, sid] { on_gauge_timer(sid); });
  }
}

void TracingBrokerService::member_miss(Session& s, MemberRecord& rec,
                                       TraceEmitter::Heartbeats* earlier) {
  ++rec.consecutive_misses;
  if (!rec.failed && rec.consecutive_misses >= config_.failed_misses) {
    rec.failed = true;
    ++stats_.failures;
    TracePayload p;
    p.type = TraceType::kFailed;
    p.entity_id = rec.entity_id;
    p.detail = "no ping response after " +
               std::to_string(rec.consecutive_misses) + " attempts";
    publish_trace(s, std::move(p), earlier);
  } else if (!rec.suspected &&
             rec.consecutive_misses >= config_.suspicion_misses) {
    rec.suspected = true;
    ++stats_.suspicions;
    TracePayload p;
    p.type = TraceType::kFailureSuspicion;
    p.entity_id = rec.entity_id;
    p.detail = std::to_string(rec.consecutive_misses) +
               " consecutive pings unanswered";
    publish_trace(s, std::move(p), earlier);
  }
}

void TracingBrokerService::member_alive(Session& s, MemberRecord& rec,
                                        TraceEmitter::Heartbeats& earlier) {
  const bool was_down = rec.suspected || rec.failed;
  rec.consecutive_misses = 0;
  rec.suspected = false;
  rec.failed = false;
  TracePayload p;
  p.type = TraceType::kAllsWell;
  p.entity_id = rec.entity_id;
  // Recovery ALLS_WELLs carry detail so they travel urgently (ending a
  // suspicion must not wait for the next digest flush).
  if (was_down) p.detail = "entity responsive again";
  publish_trace(s, std::move(p), &earlier);
}

void TracingBrokerService::disconnect_session(Session& s,
                                              const std::string& detail) {
  const Uuid sid = s.session_id;
  const auto members = s.members;
  for (const auto h : members) {
    if (!sessions_.contains(sid)) return;
    if (!roster_.contains(h)) continue;
    TracePayload p;
    p.type = TraceType::kDisconnect;
    p.entity_id = roster_[h].entity_id;
    p.detail = detail;
    publish_trace(s, std::move(p));
  }
  // The publish may have reentrantly torn the session down already.
  if (sessions_.contains(sid)) erase_session(s);
}

void TracingBrokerService::on_ping_timer(const Uuid& session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  const TimePoint now = broker_.backend().now();

  // Account for the previous ping if it is still outstanding.
  if (!s.outstanding.empty()) {
    ++s.consecutive_misses;
    // Hasten detection: shrink the interval (§3.3).
    s.ping_interval = std::max(config_.min_ping_interval, s.ping_interval / 2);
    // A whole-session miss: every member accrues one miss and escalates on
    // its own thresholds.
    const auto members = s.members;
    for (const auto h : members) {
      if (!sessions_.contains(session_id)) return;
      if (!roster_.contains(h)) continue;
      member_miss(s, roster_[h]);
    }
    if (!sessions_.contains(session_id)) return;
  }

  // Final escalation: once a session has stayed FAILED long enough
  // (disconnect_misses total consecutive misses), presume departure —
  // publish DISCONNECT and drop the session instead of probing forever.
  // The entity must then re-register, so trackers observe an explicit
  // RECOVERING -> READY transition rather than an unexplained revival.
  const bool failed = s.consecutive_misses >= config_.failed_misses;
  if (config_.disconnect_misses > 0 && failed &&
      s.consecutive_misses >= config_.disconnect_misses) {
    ++stats_.disconnects;
    disconnect_session(s, "presumed departed: " +
                              std::to_string(s.consecutive_misses) +
                              " consecutive pings unanswered");
    return;
  }

  // Issue the next ping (§3.3: monotonically increasing number + broker
  // timestamp). A FAILED session keeps getting probed — at the relaxed
  // base rate — so recovery is eventually observed. One ping covers the
  // whole roster; the response's liveness bitmap fans it back out.
  SessionMessage ping;
  ping.type = SessionMsgType::kPing;
  ping.ping_number = s.next_ping_number++;
  ping.ping_timestamp = now;

  pubsub::Message m;
  m.topic = tt::broker_to_entity(s.entity_id, s.trace_topic,
                                 s.session_id.to_string());
  m.payload = ping.serialize();
  broker_.publish_from_broker(std::move(m));
  ++stats_.pings_sent;

  // Delivering to a client whose link just vanished reentrantly fires the
  // unreachable handler, which may erase this very session; `s` would
  // dangle (other map entries are unaffected — std::map references are
  // stable across foreign erases).
  if (!sessions_.contains(session_id)) return;

  s.outstanding[ping.ping_number] = now;
  s.window.push_back(PingRecord{ping.ping_number, now, false, 0, false});
  while (s.window.size() > static_cast<std::size_t>(config_.ping_history)) {
    s.outstanding.erase(s.window.front().number);
    s.window.pop_front();
  }

  const Duration next = failed ? config_.ping_interval : s.ping_interval;
  const Uuid sid = s.session_id;
  s.ping_timer = wheel_.schedule(next, [this, sid] { on_ping_timer(sid); });
}

void TracingBrokerService::handle_ping_response(Session& s,
                                                const SessionMessage& sm) {
  const auto out = s.outstanding.find(sm.ping_number);
  if (out == s.outstanding.end()) return;  // stale/duplicate response
  const TimePoint now = broker_.backend().now();
  const Duration rtt = now - sm.ping_timestamp;
  s.outstanding.erase(out);
  ++stats_.ping_responses;

  const bool out_of_order = sm.ping_number < s.last_responded;
  s.last_responded = std::max(s.last_responded, sm.ping_number);
  for (auto& rec : s.window) {
    if (rec.number == sm.ping_number) {
      rec.responded = true;
      rec.rtt = rtt;
      rec.out_of_order = out_of_order;
      break;
    }
  }

  s.consecutive_misses = 0;
  // Relax the interval back toward the configured base.
  s.ping_interval = std::min(config_.ping_interval, s.ping_interval * 2);

  // Fan the liveness bitmap back out: bit i covers roster member i; a
  // clear bit is a per-member miss even though the session answered. An
  // empty bitmap (a single entity's response) answers for every member.
  // A member that answered and is not down yields a plain heartbeat.
  // While no tracker wants those (§3.5) it costs the counter publish_trace
  // would have bumped (before delegation, not even that); with digests on
  // it is one bit of this response's heartbeat bitmap, which the host's
  // digest takes as a whole (DESIGN.md §14). Only the ladder calls publish
  // per-entity traces, and a publish can reentrantly tear the session
  // down, so only they are followed by the re-check.
  const bool heartbeats_wanted =
      !s.token.empty() && (effective_interest(s) & kCatAllUpdates) != 0;
  const bool fold = heartbeats_wanted && emitter_.digests();
  TraceEmitter::Heartbeats beats;
  if (fold) {
    beats.epoch = s.roster_epoch;
    beats.members = static_cast<std::uint32_t>(s.members.size());
    beats.bits.assign((s.members.size() + 7) / 8, 0);
  }
  const Uuid sid = s.session_id;
  for (std::size_t i = 0; i < s.members.size(); ++i) {
    MemberRecord& rec = roster_[s.members[i]];
    const std::uint8_t bit = static_cast<std::uint8_t>(1u << (i % 8));
    const bool alive = sm.liveness.empty() ||
                       (i / 8 < sm.liveness.size() &&
                        (sm.liveness[i / 8] & bit) != 0);
    if (alive && !rec.suspected && !rec.failed &&
        (fold || !heartbeats_wanted)) {
      rec.consecutive_misses = 0;
      if (fold) {
        beats.bits[i / 8] |= bit;
        ++beats.count;
      } else if (!s.token.empty()) {
        ++stats_.traces_suppressed_no_interest;
      }
      continue;
    }
    if (alive) {
      member_alive(s, rec, beats);
    } else {
      member_miss(s, rec, &beats);
    }
    if (!sessions_.contains(sid)) return;
  }
  if (beats.count > 0) fold_heartbeats(s, beats);
}

void TracingBrokerService::fold_heartbeats(Session& s,
                                           TraceEmitter::Heartbeats& beats) {
  stats_.traces_published += beats.count;
  emitter_.fold(signing(s), s.entity_id, beats);
  std::fill(beats.bits.begin(), beats.bits.end(), 0);
  beats.count = 0;
}

std::vector<std::string> TracingBrokerService::owed_roster(
    const std::string& host_id, std::uint64_t epoch) {
  const auto it = by_entity_.find(host_id);
  if (it == by_entity_.end()) return {};
  const auto sit = sessions_.find(it->second);
  if (sit == sessions_.end()) return {};
  Session& s = sit->second;
  if (s.roster_epoch != epoch || !s.roster_owed) return {};
  s.roster_owed = false;
  // Built only for the digest that owes it: the arena holds the ids.
  std::vector<std::string> ids;
  ids.reserve(s.members.size());
  for (const auto h : s.members) ids.push_back(roster_[h].entity_id);
  return ids;
}

void TracingBrokerService::on_metrics_timer(const Uuid& session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;

  if (!s.window.empty()) {
    NetworkMetrics metrics;
    std::size_t responded = 0, ooo = 0;
    double rtt_sum = 0;
    for (const auto& rec : s.window) {
      // Pings still outstanding aren't losses yet.
      if (rec.responded) {
        ++responded;
        rtt_sum += to_millis(rec.rtt);
        if (rec.out_of_order) ++ooo;
      }
    }
    const std::size_t settled =
        s.window.size() - s.outstanding.size();
    if (settled > 0) {
      metrics.loss_rate =
          static_cast<double>(settled - responded) / settled;
    }
    if (responded > 0) {
      metrics.mean_rtt_ms = rtt_sum / static_cast<double>(responded);
      metrics.out_of_order_rate =
          static_cast<double>(ooo) / static_cast<double>(responded);
    }

    TracePayload p;
    p.type = TraceType::kNetworkMetrics;
    p.entity_id = s.entity_id;
    p.metrics = metrics;
    publish_trace(s, std::move(p));
    // The publish may reentrantly tear down this session (see
    // on_ping_timer); do not touch `s` again if it did.
    if (!sessions_.contains(session_id)) return;
  }

  const Uuid sid = s.session_id;
  s.metrics_timer = wheel_.schedule(config_.metrics_interval,
                                    [this, sid] { on_metrics_timer(sid); });
}

void TracingBrokerService::on_gauge_timer(const Uuid& session_id) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;
  ++s.gauge_round;

  TracePayload p;
  p.type = TraceType::kGaugeInterest;
  p.entity_id = s.entity_id;
  p.secured = s.secure;  // §5.1: flag that traces will be encrypted
  // The gauge probe itself rides the Interest topic unencrypted and, like
  // all broker-generated traces, carries the token (§5.1).
  emitter_.publish_raw(signing(s), s.entity_id,
                       tt::gauge_interest(s.trace_topic), p.serialize());
  // The publish may reentrantly tear down this session (see
  // on_ping_timer); do not touch `s` again if it did.
  if (!sessions_.contains(session_id)) return;

  const Uuid sid = s.session_id;
  s.gauge_timer = wheel_.schedule(config_.gauge_interval,
                                  [this, sid] { on_gauge_timer(sid); });
}

void TracingBrokerService::handle_interest_response(const Uuid& session_id,
                                                    const pubsub::Message& m) {
  const auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  Session& s = it->second;

  InterestResponse resp;
  try {
    resp = InterestResponse::deserialize(m.payload);
  } catch (const SerializeError&) {
    return;
  }
  const TimePoint now = broker_.backend().now();
  // Trackers authenticate their interest (§5.1: "interested trackers ...
  // respond ... by including their credentials").
  if (!resp.credential.verify(anchors_.ca_key, now).is_ok() ||
      resp.credential.subject() != resp.tracker_id ||
      !resp.credential.public_key().verify(m.signable_bytes(), m.signature)) {
    return;
  }
  ++stats_.interest_responses;
  // A heartbeat tracker without this session's roster gets it on the next
  // digest (DESIGN.md §14).
  if ((resp.categories & kCatAllUpdates) != 0 &&
      resp.roster_epoch != s.roster_epoch) {
    s.roster_owed = true;
  }
  const bool first_interest = effective_interest(s) == 0;
  s.interests[resp.tracker_id] =
      TrackerInterest{resp.categories, s.gauge_round};

  // Interest edge 0 -> nonzero: replay the entity's current state so a
  // tracker that registers after a suppressed report (typically the
  // RECOVERING announcement of a failed-over session) still observes it.
  if (first_interest && s.last_state &&
      (effective_interest(s) & kCatStateTransitions) != 0) {
    TracePayload p;
    p.type = state_trace_type(*s.last_state);
    p.entity_id = s.entity_id;
    p.state = s.last_state;
    p.detail = "state replayed on interest";
    publish_trace(s, std::move(p));
  }

  if (s.secure && !resp.key_delivery_topic.empty() && !s.trace_key.empty()) {
    deliver_trace_key(s, resp);
  }
}

void TracingBrokerService::deliver_trace_key(Session& s,
                                             const InterestResponse& resp) {
  // §5.1: seal {key, algorithm, padding} to the tracker's credential.
  const SealedEnvelope env =
      SealedEnvelope::seal(s.trace_key.serialize(),
                           resp.credential.public_key(), rng_,
                           config_.symmetric_alg);
  pubsub::Message m;
  m.topic = resp.key_delivery_topic;
  m.payload = env.serialize();
  m.encrypted = true;
  broker_.publish_from_broker(std::move(m));
  ++stats_.keys_distributed;
}

std::uint8_t TracingBrokerService::effective_interest(
    const Session& s) const {
  std::uint8_t mask = 0;
  for (const auto& [tracker, rec] : s.interests) {
    if (rec.last_round + config_.interest_ttl_rounds >= s.gauge_round) {
      mask |= rec.mask;
    }
  }
  return mask;
}

void TracingBrokerService::publish_trace(Session& s, TracePayload payload,
                                         TraceEmitter::Heartbeats* earlier) {
  if (s.token.empty()) return;  // delegation not complete yet
  const std::uint8_t category = category_of(payload.type);
  if (category == 0) return;  // GAUGE_INTEREST goes through on_gauge_timer
  // §3.5: traces are issued only when some tracker wants the category.
  if ((effective_interest(s) & category) == 0) {
    ++stats_.traces_suppressed_no_interest;
    return;
  }
  if (earlier != nullptr && earlier->count > 0) {
    const Uuid sid = s.session_id;
    fold_heartbeats(s, *earlier);
    if (!sessions_.contains(sid)) return;
  }
  // The emitter owns the signing ritual. Its open batch and the pending
  // digest it flushes first are keyed by the session's entity id — the
  // host for batch sessions.
  emitter_.trace(signing(s), s.entity_id, std::move(payload));
  ++stats_.traces_published;
}

void TracingBrokerService::erase_session(Session& s) {
  // Ship the traces batched and the heartbeats observed before teardown
  // while the roster source can still find the session (its roster may be
  // owed). The publish may reentrantly tear the session down already.
  const Uuid sid = s.session_id;
  const std::string host_id = s.entity_id;
  emitter_.flush(host_id);
  // Extract before touching anything else: any further reentrant lookup
  // (a publish can fire the client-unreachable listener) must no longer
  // find this session.
  auto node = sessions_.extract(sid);
  if (node.empty()) return;
  Session& dead = node.mapped();
  wheel_.cancel(dead.ping_timer);
  wheel_.cancel(dead.gauge_timer);
  wheel_.cancel(dead.metrics_timer);
  broker_.unsubscribe_local(dead.session_service);
  broker_.unsubscribe_local(dead.interest_service);
  by_entity_.erase(dead.entity_id);
  for (const auto h : dead.members) {
    if (!roster_.contains(h)) continue;
    by_entity_.erase(roster_[h].entity_id);
    roster_.erase(h);
  }
  dead.members.clear();
}

}  // namespace et::tracing
