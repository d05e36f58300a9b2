#include "src/tracing/trace_emitter.h"

#include <algorithm>
#include <utility>

#include "src/pubsub/constrained_topic.h"

namespace et::tracing {

namespace tt = pubsub::trace_topics;

TraceEmitter::OwnedSigning::OwnedSigning(const Signing& s)
    : trace_topic(s.trace_topic),
      auth_token(s.token->serialize()),
      delegate_key(*s.delegate_key),
      trace_key(*s.trace_key),
      secure(s.secure) {}

TraceEmitter::TraceEmitter(pubsub::Broker& broker, Rng& rng, Options options,
                           TimerWheel* wheel, RosterSource roster)
    : broker_(broker),
      rng_(rng),
      options_(options),
      wheel_(wheel),
      roster_(std::move(roster)) {}

TraceEmitter::~TraceEmitter() {
  // Open batches and pending digests die with the emitter; publishing from
  // a destructor would race broker teardown. A queued flush task finds
  // `alive_` expired.
  for (auto& entry : pending_) {
    if (wheel_ != nullptr && entry.second.flush_timer != 0) {
      wheel_->cancel(entry.second.flush_timer);
    }
  }
}

void TraceEmitter::publish_signed(std::string topic, Bytes body, bool encrypt,
                                  const crypto::SecretKey& trace_key,
                                  Bytes auth_token,
                                  const crypto::RsaPrivateKey& delegate_key,
                                  const LedgerMeta* meta) {
  const bool ledgered = ledger_ != nullptr && meta != nullptr;
  pubsub::Message m;
  m.topic = std::move(topic);
  Bytes plain;  // pre-encryption body, kept only for the ledger
  if (ledgered && encrypt) plain = body;
  if (encrypt) {
    m.payload = trace_key.encrypt(body, rng_);
    m.encrypted = true;
  } else {
    m.payload = std::move(body);
  }
  m.publisher = broker_.name();
  m.sequence = ++sequence_;
  m.timestamp = broker_.backend().now();
  m.auth_token = std::move(auth_token);
  // §4.3: broker-generated traces are signed with the delegate key so any
  // routing broker can verify authorization without learning which broker
  // hosts the entity.
  m.signature = delegate_key.sign(m.signable_bytes());
  if (ledgered) {
    // Chain the publication before it enters routing: once a subscriber
    // can have seen the trace, it is already un-droppable history.
    (void)ledger_->append(m.topic, meta->entity_id, meta->trace_type,
                          meta->issued_at, encrypt ? plain : m.payload,
                          m.signature);
  }
  broker_.publish_from_broker(std::move(m));
}

void TraceEmitter::trace(const Signing& signing, const std::string& host_id,
                         TracePayload payload) {
  payload.issued_at = broker_.backend().now();
  payload.secured = signing.secure;
  // Ordering: the heartbeats folded before this trace must not arrive
  // after it.
  flush_digest(host_id);
  std::string topic = tt::trace_publication(
      signing.trace_topic, category_suffix(category_of(payload.type)));
  auto it = batches_.find(host_id);
  // A cut can reentrantly open another batch for the host: look again.
  while (it != batches_.end() && (it->second.topic != topic ||
                                  it->second.traces.size() >= kTraceBatchMax)) {
    cut(host_id);
    it = batches_.find(host_id);
  }
  if (it == batches_.end()) {
    it = batches_
             .emplace(host_id,
                      Batch{OwnedSigning(signing), std::move(topic), {}, {}})
             .first;
    post_flush();
  }
  Batch& b = it->second;
  b.meta = b.traces.empty()
               ? LedgerMeta{payload.entity_id,
                            static_cast<std::uint8_t>(payload.type),
                            payload.issued_at}
               : LedgerMeta{host_id,
                            static_cast<std::uint8_t>(TraceType::kBatch),
                            payload.issued_at};
  b.traces.push_back(payload.serialize());
}

void TraceEmitter::post_flush() {
  if (flush_posted_) return;
  flush_posted_ = true;
  // post, not a zero-delay schedule: the task joins the node's own queue
  // behind the work already there, on every backend.
  broker_.backend().post(
      broker_.node(), [this, alive = std::weak_ptr<const bool>(alive_)] {
        if (alive.expired()) return;
        // A batch opened while these publish joins this flush.
        while (!batches_.empty()) {
          publish_batch(batches_.extract(batches_.begin()).mapped());
        }
        flush_posted_ = false;
      });
}

void TraceEmitter::cut(const std::string& host_id) {
  // Detach before publishing: the publish can reentrantly observe the
  // emitter, and the batch must not be visible twice.
  auto node = batches_.extract(host_id);
  if (!node.empty()) publish_batch(node.mapped());
}

void TraceEmitter::publish_batch(Batch& b) {
  // A batch of one is the lone trace it always was: the same body and the
  // same ledger record.
  Bytes body = b.traces.size() == 1 ? std::move(b.traces.front())
                                    : encode_trace_batch(b.traces);
  ++stats_.traces_published;
  stats_.trace_entries += b.traces.size();
  publish_signed(std::move(b.topic), std::move(body), b.signing.secure,
                 b.signing.trace_key, std::move(b.signing.auth_token),
                 b.signing.delegate_key, &b.meta);
}

TraceEmitter::Pending& TraceEmitter::pending_for(const Signing& signing,
                                                 const std::string& host_id,
                                                 const Heartbeats& beats) {
  // A digest covers one roster: a session's teardown flushes its pending
  // digest before any other session can fold under the same host id.
  const auto it = pending_.find(host_id);
  if (it != pending_.end()) return it->second;
  // Copy the signing material: the session may be torn down before the
  // flush timer fires.
  Pending p{OwnedSigning(signing), {}, 0, 0};
  p.digest.host_id = host_id;
  p.digest.epoch = beats.epoch;
  p.digest.members = beats.members;
  p.flush_timer = wheel_->schedule(options_.digest_interval,
                                   [this, host_id] { flush_digest(host_id); });
  return pending_.emplace(host_id, std::move(p)).first->second;
}

void TraceEmitter::fold(const Signing& signing, const std::string& host_id,
                        const Heartbeats& beats) {
  // Ordering: the traces batched before these heartbeats must not arrive
  // after them.
  cut(host_id);
  const std::size_t cap = std::max<std::size_t>(1, options_.digest_max_entries);
  const TimePoint now = broker_.backend().now();
  std::size_t next = 0;  // first bit of `beats` not yet folded
  std::size_t left = beats.count;
  while (left > 0) {
    Pending& p = pending_for(signing, host_id, beats);
    const std::size_t take = std::min(left, cap - p.entries);
    Bytes& out = p.digest.bitmaps;
    const std::size_t at = out.size();
    if (next == 0 && take == left) {
      out.insert(out.end(), beats.bits.begin(), beats.bits.end());
    } else {
      // The digest fills mid-response: it takes the next `take` set bits
      // and the following digest the rest.
      out.resize(at + beats.bits.size(), 0);
      for (std::size_t copied = 0; copied < take; ++next) {
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << (next % 8));
        if ((beats.bits[next / 8] & bit) != 0) {
          out[at + next / 8] |= bit;
          ++copied;
        }
      }
    }
    p.entries += take;
    p.digest.issued_at = now;
    left -= take;
    if (p.entries >= cap) flush_digest(host_id);
  }
}

void TraceEmitter::publish_raw(const Signing& signing,
                               const std::string& host_id, std::string topic,
                               Bytes payload) {
  cut(host_id);
  publish_signed(std::move(topic), std::move(payload), /*encrypt=*/false,
                 *signing.trace_key, signing.token->serialize(),
                 *signing.delegate_key);
}

void TraceEmitter::flush(const std::string& host_id) {
  cut(host_id);
  flush_digest(host_id);
}

void TraceEmitter::flush_digest(const std::string& host_id) {
  const auto it = pending_.find(host_id);
  if (it == pending_.end()) return;
  // Detach before publishing: the publish can reentrantly observe the
  // emitter (a local subscriber's handler may trace again), and the
  // pending entry must not be visible twice.
  Pending p = std::move(it->second);
  pending_.erase(it);
  if (wheel_ != nullptr && p.flush_timer != 0) wheel_->cancel(p.flush_timer);
  if (roster_) p.digest.roster = roster_(host_id, p.digest.epoch);
  stats_.digest_entries += p.entries;
  ++stats_.digests_published;
  const LedgerMeta meta{p.digest.host_id,
                        static_cast<std::uint8_t>(TraceType::kDigest),
                        p.digest.issued_at};
  publish_signed(tt::trace_publication(p.signing.trace_topic, tt::kDigest),
                 p.digest.serialize(), p.signing.secure, p.signing.trace_key,
                 std::move(p.signing.auth_token), p.signing.delegate_key,
                 &meta);
}

void publish_signed(pubsub::Client& client, pubsub::Message m,
                    const crypto::RsaPrivateKey& key, std::uint64_t& sequence,
                    TimePoint now) {
  m.sequence = ++sequence;
  m.timestamp = now;
  m.signature = key.sign(m.signable_bytes());
  client.publish(std::move(m));
}

}  // namespace et::tracing
