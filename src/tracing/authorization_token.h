// Authorization tokens (paper §4.3).
//
// A traced entity delegates the right to publish its traces to its hosting
// broker: it generates a fresh key pair, embeds the *public* half in a
// token listing the trace topic, the granted rights and a validity window,
// signs the token with its long-term key, and hands the *private* half to
// the broker over the encrypted session channel.
//
// "One reason why we use randomly generated key-pairs within the token is
// to ensure that no other broker within the network is aware of the broker
// that a given traced entity is connected to."
//
// Verification chain (run by every broker that routes a trace, and by
// trackers):
//   1. the embedded topic advertisement carries the TDN signature binding
//      the trace topic to the owner's credential;
//   2. the owner's credential chains to the trusted CA;
//   3. the token is signed by the owner's key;
//   4. the token has not expired — with an allowance for NTP-bounded clock
//      skew ("use of NTP timestamps ensures that timestamps are within
//      30-100 milliseconds of each other");
//   5. the trace message's signature verifies against the delegate key.
#pragma once

#include <cstdint>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/crypto/rsa.h"
#include "src/discovery/advertisement.h"

namespace et::tracing {

/// Rights grantable through a token.
enum class TokenRights : std::uint8_t {
  kPublish = 1,    // broker delegation (the normal case)
  kSubscribe = 2,
};

/// Default skew allowance applied to token validity checks (upper end of
/// the paper's 30-100 ms NTP bound).
inline constexpr Duration kDefaultSkewAllowance = 100 * kMillisecond;

class AuthorizationToken {
 public:
  AuthorizationToken() = default;

  /// Assembles and signs a token. `advertisement` binds the topic to the
  /// owner; `owner_key` must be the private key matching the
  /// advertisement's owner credential; `delegate_key` is the fresh public
  /// half whose private half goes to the broker.
  static AuthorizationToken create(
      const discovery::TopicAdvertisement& advertisement,
      const crypto::RsaPublicKey& delegate_key, TokenRights rights,
      TimePoint valid_from, TimePoint valid_until,
      const crypto::RsaPrivateKey& owner_key);

  [[nodiscard]] const Uuid& trace_topic() const {
    return advertisement_.topic();
  }
  [[nodiscard]] const discovery::TopicAdvertisement& advertisement() const {
    return advertisement_;
  }
  [[nodiscard]] const crypto::RsaPublicKey& delegate_key() const {
    return delegate_key_;
  }
  [[nodiscard]] TokenRights rights() const { return rights_; }
  [[nodiscard]] TimePoint valid_from() const { return valid_from_; }
  [[nodiscard]] TimePoint valid_until() const { return valid_until_; }
  [[nodiscard]] bool empty() const { return advertisement_.empty(); }

  /// Steps 1-4 of the verification chain. `tdn_key`/`ca_key` anchor trust;
  /// `skew` loosens the expiry bounds.
  [[nodiscard]] Status verify(const crypto::RsaPublicKey& tdn_key,
                              const crypto::RsaPublicKey& ca_key,
                              TimePoint now,
                              Duration skew = kDefaultSkewAllowance) const;

  /// Step 5: does `signature` over `message` come from the delegate?
  [[nodiscard]] bool verify_delegate_signature(BytesView message,
                                               BytesView signature) const;

  /// Keeps the delegate key's Montgomery constants, so that step 5 on this
  /// token (and its copies) does no BigInt division. For tokens verified
  /// many times, such as a verifier's cached ones.
  void precompute_delegate_key() { delegate_key_.precompute(); }

  [[nodiscard]] Bytes tbs() const;
  [[nodiscard]] Bytes serialize() const;
  static AuthorizationToken deserialize(BytesView b);

 private:
  discovery::TopicAdvertisement advertisement_;
  crypto::RsaPublicKey delegate_key_;
  TokenRights rights_ = TokenRights::kPublish;
  TimePoint valid_from_ = 0;
  TimePoint valid_until_ = 0;
  Bytes owner_signature_;
};

}  // namespace et::tracing
