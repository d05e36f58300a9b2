#include "src/tracing/tracker.h"

#include "src/common/logging.h"
#include "src/pubsub/constrained_topic.h"
#include "src/tracing/trace_digest.h"
#include "src/tracing/trace_emitter.h"

namespace et::tracing {

namespace tt = pubsub::trace_topics;

Tracker::Tracker(transport::NetworkBackend& backend, crypto::Identity identity,
                 TrustAnchors anchors, std::uint64_t seed)
    : backend_(backend),
      identity_(std::move(identity)),
      anchors_(std::move(anchors)),
      rng_(seed),
      client_(backend, identity_.id),
      disc_(backend, identity_),
      token_cache_(TracingConfig::Verification{}.cache_capacity,
                   TracingConfig::Verification{}.cache_ttl) {}

void Tracker::attach_tdn(transport::NodeId tdn,
                         const transport::LinkParams& params) {
  disc_.attach_tdn(tdn, params);
}

void Tracker::connect_broker(transport::NodeId broker,
                             const transport::LinkParams& params) {
  client_.connect(broker, params);
}

std::string Tracker::key_topic_for(const Tracked& t) const {
  return "Constrained/Traces/" + identity_.id + "/Subscribe-Only/TraceKeys/" +
         t.trace_topic;
}

void Tracker::track(const std::string& entity_id, std::uint8_t categories,
                    TraceHandler handler, ReadyCallback on_ready) {
  // §3.4: authorized discovery by entity id.
  disc_.discover(
      "Liveness/" + entity_id,
      [this, entity_id, categories, handler = std::move(handler),
       on_ready = std::move(on_ready)](
          Result<std::vector<discovery::TopicAdvertisement>> result) mutable {
        backend_.post(client_.node(), [this, entity_id, categories,
                                       handler = std::move(handler),
                                       on_ready = std::move(on_ready),
                                       result = std::move(result)]() mutable {
          if (!result.ok()) {
            if (on_ready) on_ready(result.status());
            return;
          }
          if (result->empty()) {
            if (on_ready) on_ready(not_found("no advertisement returned"));
            return;
          }
          // Verify provenance before trusting the advertisement.
          const discovery::TopicAdvertisement& ad = result->front();
          if (const Status s = ad.verify(anchors_.tdn_key, backend_.now());
              !s.is_ok()) {
            if (on_ready) on_ready(s);
            return;
          }
          Tracked t;
          t.entity_id = entity_id;
          t.advertisement = ad;
          t.trace_topic = ad.topic().to_string();
          t.categories = categories;
          t.handler = std::move(handler);
          begin_subscriptions(std::move(t), std::move(on_ready));
        });
      });
}

void Tracker::begin_subscriptions(Tracked t, ReadyCallback on_ready) {
  const std::string trace_topic = t.trace_topic;

  // Per-category derived topics (§3.3 Table 2): subscribe selectively.
  for (const std::uint8_t bit :
       {std::uint8_t(kCatChangeNotifications), std::uint8_t(kCatAllUpdates),
        std::uint8_t(kCatStateTransitions), std::uint8_t(kCatLoad),
        std::uint8_t(kCatNetworkMetrics)}) {
    if ((t.categories & bit) == 0) continue;
    client_.subscribe(
        tt::trace_publication(trace_topic, category_suffix(bit)),
        [this, trace_topic](const pubsub::Message& m) {
          on_trace(trace_topic, m);
        });
  }
  // Coalesced per-host digests (DESIGN.md §14) ride their own kind topic;
  // they carry ALLS_WELL observations, so they follow AllUpdates interest.
  if ((t.categories & kCatAllUpdates) != 0) {
    client_.subscribe(tt::trace_publication(trace_topic, tt::kDigest),
                      [this, trace_topic](const pubsub::Message& m) {
                        on_digest(trace_topic, m);
                      });
  }
  // GAUGE_INTEREST probes (§3.5).
  client_.subscribe(tt::gauge_interest(trace_topic),
                    [this, trace_topic](const pubsub::Message& m) {
                      on_trace(trace_topic, m);
                    });
  // Sealed trace-key deliveries (§5.1).
  client_.subscribe(key_topic_for(t),
                    [this, trace_topic](const pubsub::Message& m) {
                      on_key_delivery(trace_topic, m);
                    });

  tracked_.emplace(trace_topic, std::move(t));

  // Announce interest immediately rather than waiting for the next gauge
  // round (accepted by the broker as an unsolicited interest response —
  // extension documented in DESIGN.md).
  auto& entry = tracked_.at(trace_topic);
  respond_interest(entry, /*secured=*/true);

  if (on_ready) on_ready(Status::ok());
}

void Tracker::untrack(const std::string& entity_id) {
  backend_.post(client_.node(), [this, entity_id] {
    for (auto it = tracked_.begin(); it != tracked_.end(); ++it) {
      if (it->second.entity_id != entity_id) continue;
      const Tracked& t = it->second;
      for (const std::uint8_t bit :
           {std::uint8_t(kCatChangeNotifications),
            std::uint8_t(kCatAllUpdates), std::uint8_t(kCatStateTransitions),
            std::uint8_t(kCatLoad), std::uint8_t(kCatNetworkMetrics)}) {
        if ((t.categories & bit) == 0) continue;
        client_.unsubscribe(
            tt::trace_publication(t.trace_topic, category_suffix(bit)));
      }
      if ((t.categories & kCatAllUpdates) != 0) {
        client_.unsubscribe(tt::trace_publication(t.trace_topic, tt::kDigest));
      }
      client_.unsubscribe(tt::gauge_interest(t.trace_topic));
      client_.unsubscribe(key_topic_for(t));
      tracked_.erase(it);
      return;
    }
  });
}

std::optional<Bytes> Tracker::verify_and_open(Tracked& t,
                                              const std::string& trace_topic,
                                              const pubsub::Message& m) {
  // End-to-end verification (§4.3), the same check every broker's filter
  // runs: the broker network already filtered, but a tracker must not
  // trust its access link. The token chain runs once per distinct token.
  if (!verify_trace_message(&token_cache_, anchors_, backend_.now(),
                            m.as_view(), trace_topic)
           .is_ok()) {
    ++stats_.traces_rejected;
    return std::nullopt;
  }

  Bytes body = m.payload;
  if (m.encrypted) {
    if (t.trace_key.empty()) {
      ++stats_.undecryptable;
      return std::nullopt;
    }
    try {
      body = t.trace_key.decrypt(body);
    } catch (const std::exception&) {
      ++stats_.undecryptable;
      return std::nullopt;
    }
  }
  return body;
}

void Tracker::on_trace(const std::string& trace_topic,
                       const pubsub::Message& m) {
  const auto it = tracked_.find(trace_topic);
  if (it == tracked_.end()) return;
  Tracked& t = it->second;

  const std::optional<Bytes> body = verify_and_open(t, trace_topic, m);
  if (!body) return;
  if (is_trace_batch(*body)) {
    // One signature over a session's traces from one pass (DESIGN.md §14).
    // Every entry decodes before any is delivered: a malformed batch is
    // rejected whole.
    std::vector<TracePayload> batch;
    try {
      batch = decode_trace_batch(*body);
    } catch (const SerializeError&) {
      ++stats_.traces_rejected;
      return;
    }
    for (const TracePayload& p : batch) {
      ++stats_.traces_received;
      if (t.handler) t.handler(p, m);
    }
    return;
  }
  TracePayload payload;
  try {
    payload = TracePayload::deserialize(*body);
  } catch (const SerializeError&) {
    ++stats_.traces_rejected;
    return;
  }

  if (payload.type == TraceType::kGaugeInterest) {
    ++stats_.gauges_answered;
    respond_interest(t, payload.secured);
    return;
  }
  ++stats_.traces_received;
  if (t.handler) t.handler(payload, m);
}

void Tracker::on_digest(const std::string& trace_topic,
                        const pubsub::Message& m) {
  const auto it = tracked_.find(trace_topic);
  if (it == tracked_.end()) return;
  Tracked& t = it->second;

  const std::optional<Bytes> body = verify_and_open(t, trace_topic, m);
  if (!body) return;
  TraceDigest digest;
  try {
    digest = TraceDigest::deserialize(*body);
  } catch (const SerializeError&) {
    ++stats_.traces_rejected;
    return;
  }
  ++stats_.digests_received;

  if (!digest.roster.empty()) {
    t.roster_epoch = digest.epoch;
    t.roster = std::move(digest.roster);
  }
  if (digest.epoch != t.roster_epoch) {
    // No roster for this epoch (its roster-carrying digest was lost, or
    // we joined after it): skip rather than guess, and ask once.
    ++stats_.digests_without_roster;
    if (t.roster_asked != digest.epoch) {
      t.roster_asked = digest.epoch;
      respond_interest(t, /*secured=*/true);
    }
    return;
  }
  if (digest.members != t.roster.size()) {
    ++stats_.traces_rejected;  // bitmaps wider or narrower than the roster
    return;
  }

  // Expansion restores per-entity semantics: the handler observes the
  // same payload stream it would have without coalescing.
  TracePayload payload;
  payload.type = TraceType::kAllsWell;
  payload.issued_at = digest.issued_at;
  digest.for_each_observation([&](std::size_t member) {
    payload.entity_id = t.roster[member];
    ++stats_.digest_entries_expanded;
    ++stats_.traces_received;
    if (t.handler) t.handler(payload, m);
  });
}

void Tracker::respond_interest(Tracked& t, bool secured) {
  // §3.5/§5.1: outline our interests; include credential and (for secured
  // sessions) the topic we expect the sealed key on.
  InterestResponse resp;
  resp.tracker_id = identity_.id;
  resp.credential = identity_.credential;
  resp.categories = t.categories;
  if (secured && t.trace_key.empty()) {
    resp.key_delivery_topic = key_topic_for(t);
  }
  resp.roster_epoch = t.roster_epoch;

  pubsub::Message m;
  m.topic = tt::interest_response(t.trace_topic);
  m.payload = resp.serialize();
  m.publisher = identity_.id;
  publish_signed(client_, std::move(m), identity_.keys.private_key, sequence_,
                 backend_.now());
}

void Tracker::on_key_delivery(const std::string& trace_topic,
                              const pubsub::Message& m) {
  const auto it = tracked_.find(trace_topic);
  if (it == tracked_.end()) return;
  try {
    const SealedEnvelope env = SealedEnvelope::deserialize(m.payload);
    it->second.trace_key =
        crypto::SecretKey::deserialize(env.open(identity_.keys.private_key));
    ++stats_.keys_received;
  } catch (const std::exception& e) {
    ET_LOG(kDebug) << identity_.id << ": bad key delivery: " << e.what();
  }
}

}  // namespace et::tracing
