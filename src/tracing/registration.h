// Registration handshake payloads (paper §3.2) and interest responses
// (§3.5), plus the secure key-distribution payload (§5.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/serialize.h"
#include "src/common/uuid.h"
#include "src/crypto/credential.h"
#include "src/crypto/secret_key.h"
#include "src/discovery/advertisement.h"

namespace et::tracing {

/// Entity -> broker over the Registration constrained topic. The pubsub
/// message's `signature` field carries the proof-of-possession signature
/// over Message::signable_bytes() (§3.2 item 4).
struct RegistrationRequest {
  std::string entity_id;
  crypto::Credential credential;
  discovery::TopicAdvertisement advertisement;  // trace-topic provenance
  std::uint64_t request_id = 0;

  [[nodiscard]] Bytes serialize() const;
  static RegistrationRequest deserialize(BytesView b);
};

/// EntityHost -> broker over the RegistrationBatch constrained topic
/// (DESIGN.md §14): registers every co-hosted entity in one round-trip.
/// The host authenticates once — credential, advertisement provenance and
/// proof of possession are checked against `host_id` exactly as for a
/// single-entity registration — and the resulting session carries the
/// whole member roster. One delegation round then covers the batch.
struct BatchRegistrationRequest {
  std::string host_id;
  crypto::Credential credential;
  discovery::TopicAdvertisement advertisement;  // trace-topic provenance
  std::uint64_t request_id = 0;
  /// Co-hosted entity ids; bit i of a ping-response liveness bitmap
  /// refers to entity_ids[i].
  std::vector<std::string> entity_ids;

  [[nodiscard]] Bytes serialize() const;
  static BatchRegistrationRequest deserialize(BytesView b);
};

/// Broker -> entity, hybrid-encrypted (§3.2): the plaintext below is
/// AES-encrypted with a random secret key, which is itself RSA-encrypted
/// with the entity's public key so "only the entity in question is able to
/// decipher the contents".
struct RegistrationResponse {
  std::uint64_t request_id = 0;
  Uuid session_id;
  /// Serialized crypto::SecretKey: the session key used for the §6.3
  /// symmetric mode and for confidential token delivery.
  Bytes session_key;
  std::string broker_name;

  [[nodiscard]] Bytes serialize() const;
  static RegistrationResponse deserialize(BytesView b);
};

/// A hybrid-encrypted envelope: RSA-wrapped content key + AES ciphertext.
/// Used for registration responses and trace-key distribution ("the broker
/// uses a combination of the tracker's credential and a randomly generated
/// secret key to secure the payload", §5.1).
struct SealedEnvelope {
  Bytes wrapped_key;  // RSAES-PKCS1 of the content SecretKey material
  Bytes ciphertext;   // AES-CBC of the payload

  [[nodiscard]] Bytes serialize() const;
  static SealedEnvelope deserialize(BytesView b);

  /// Seals `plaintext` for the holder of `recipient`.
  static SealedEnvelope seal(BytesView plaintext,
                             const crypto::RsaPublicKey& recipient, Rng& rng,
                             crypto::SymmetricAlg alg);

  /// Opens with the recipient's private key. Throws std::invalid_argument
  /// on any mismatch (treat as tampering).
  [[nodiscard]] Bytes open(const crypto::RsaPrivateKey& key) const;
};

/// Tracker -> broker on the interest-response topic (§3.5). The pubsub
/// message signature carries the tracker's proof of possession.
struct InterestResponse {
  std::string tracker_id;
  crypto::Credential credential;
  std::uint8_t categories = 0;  // TraceCategory bitmask
  /// Topic the tracker expects the sealed trace key on (§5.1); empty when
  /// the tracker doesn't need the key.
  std::string key_delivery_topic;
  /// Roster epoch of the digests the tracker can expand (DESIGN.md §14);
  /// 0 when it holds none. Any other epoch than the session's makes the
  /// next digest carry the roster.
  std::uint64_t roster_epoch = 0;

  [[nodiscard]] Bytes serialize() const;
  static InterestResponse deserialize(BytesView b);
};

}  // namespace et::tracing
