#include "src/tracing/registration.h"

#include "src/crypto/secret_key.h"

namespace et::tracing {

Bytes RegistrationRequest::serialize() const {
  Writer w;
  w.str(entity_id);
  w.bytes(credential.serialize());
  w.bytes(advertisement.serialize());
  w.u64(request_id);
  return std::move(w).take();
}

RegistrationRequest RegistrationRequest::deserialize(BytesView b) {
  Reader r(b);
  RegistrationRequest out;
  out.entity_id = r.str();
  out.credential = crypto::Credential::deserialize(r.bytes());
  out.advertisement = discovery::TopicAdvertisement::deserialize(r.bytes());
  out.request_id = r.u64();
  r.expect_done();
  return out;
}

Bytes BatchRegistrationRequest::serialize() const {
  Writer w;
  w.str(host_id);
  w.bytes(credential.serialize());
  w.bytes(advertisement.serialize());
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(entity_ids.size()));
  for (const std::string& id : entity_ids) w.str(id);
  return std::move(w).take();
}

BatchRegistrationRequest BatchRegistrationRequest::deserialize(BytesView b) {
  Reader r(b);
  BatchRegistrationRequest out;
  out.host_id = r.str();
  out.credential = crypto::Credential::deserialize(r.bytes());
  out.advertisement = discovery::TopicAdvertisement::deserialize(r.bytes());
  out.request_id = r.u64();
  const std::uint32_t count = r.u32();
  // Every id costs at least its 4-byte length prefix.
  if (count > r.remaining() / 4) {
    throw SerializeError("batch entity count exceeds the payload");
  }
  out.entity_ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.entity_ids.push_back(r.str());
  r.expect_done();
  return out;
}

Bytes RegistrationResponse::serialize() const {
  Writer w;
  w.u64(request_id);
  w.raw(session_id.to_bytes());
  w.bytes(session_key);
  w.str(broker_name);
  return std::move(w).take();
}

RegistrationResponse RegistrationResponse::deserialize(BytesView b) {
  Reader r(b);
  RegistrationResponse out;
  out.request_id = r.u64();
  out.session_id = Uuid::from_bytes(r.raw(16));
  out.session_key = r.bytes();
  out.broker_name = r.str();
  r.expect_done();
  return out;
}

Bytes SealedEnvelope::serialize() const {
  Writer w;
  w.bytes(wrapped_key);
  w.bytes(ciphertext);
  return std::move(w).take();
}

SealedEnvelope SealedEnvelope::deserialize(BytesView b) {
  Reader r(b);
  SealedEnvelope out;
  out.wrapped_key = r.bytes();
  out.ciphertext = r.bytes();
  r.expect_done();
  return out;
}

SealedEnvelope SealedEnvelope::seal(BytesView plaintext,
                                    const crypto::RsaPublicKey& recipient,
                                    Rng& rng, crypto::SymmetricAlg alg) {
  const crypto::SecretKey content_key = crypto::SecretKey::generate(rng, alg);
  SealedEnvelope env;
  env.wrapped_key = recipient.encrypt(content_key.serialize(), rng);
  env.ciphertext = content_key.encrypt(plaintext, rng);
  return env;
}

Bytes SealedEnvelope::open(const crypto::RsaPrivateKey& key) const {
  const crypto::SecretKey content_key =
      crypto::SecretKey::deserialize(key.decrypt(wrapped_key));
  return content_key.decrypt(ciphertext);
}

Bytes InterestResponse::serialize() const {
  Writer w;
  w.str(tracker_id);
  w.bytes(credential.serialize());
  w.u8(categories);
  w.str(key_delivery_topic);
  w.u64(roster_epoch);
  return std::move(w).take();
}

InterestResponse InterestResponse::deserialize(BytesView b) {
  Reader r(b);
  InterestResponse out;
  out.tracker_id = r.str();
  out.credential = crypto::Credential::deserialize(r.bytes());
  out.categories = r.u8();
  out.key_delivery_topic = r.str();
  out.roster_epoch = r.u64();
  r.expect_done();
  return out;
}

}  // namespace et::tracing
