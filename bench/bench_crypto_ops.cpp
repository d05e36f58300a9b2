// Experiment E2 — paper Table 3, "Security and Authorization related
// Costs": token generation+signing, token verification, trace-message
// encryption/decryption, and signing/verifying plain and encrypted trace
// messages. Configuration per §6.1: RSA-1024 + SHA-1 + PKCS#1, AES-192.
#include <cstdio>

#include "bench/bench_util.h"

namespace et::bench {
namespace {

constexpr int kIterations = 100;
constexpr std::size_t kTraceBytes = 512;

void run() {
  Rng rng(99);
  SystemClock clock;
  crypto::CertificateAuthority ca("ca", rng, 1024);
  const crypto::Identity owner =
      crypto::Identity::create("owner", ca, rng, clock.now(),
                               24 * 3600 * kSecond, 1024);
  const crypto::RsaKeyPair tdn_keys = crypto::rsa_generate(rng, 1024);

  // TDN-signed advertisement establishing the trace topic. The timestamps
  // must be captured once: tbs() covers them, so the signed copy has to
  // carry the exact same values.
  const Uuid topic = Uuid::generate(rng);
  const TimePoint issued = clock.now();
  const TimePoint expires = issued + 24 * 3600 * kSecond;
  discovery::TopicAdvertisement unsigned_ad(
      topic, "Availability/Traces/owner", owner.credential, {}, issued,
      expires, "tdn-0", {});
  const discovery::TopicAdvertisement ad(
      topic, "Availability/Traces/owner", owner.credential, {}, issued,
      expires, "tdn-0", tdn_keys.private_key.sign(unsigned_ad.tbs()));

  const crypto::SecretKey trace_key = crypto::SecretKey::generate(rng);
  const Bytes trace_body = rng.next_bytes(kTraceBytes);

  auto timed = [&clock](auto&& fn) {
    const TimePoint t0 = clock.now();
    fn();
    return to_millis(clock.now() - t0);
  };

  RunningStats token_gen, token_verify, encrypt, decrypt;
  RunningStats sign_plain, verify_plain, sign_encrypted, verify_encrypted;

  tracing::AuthorizationToken token;  // last one generated, reused below
  crypto::RsaKeyPair delegate;
  for (int i = 0; i < kIterations; ++i) {
    // Token generation and signing = fresh delegate pair + signed token
    // (§4.3: "the entity also generates an asymmetric key pair" and signs
    // the token).
    token_gen.add(timed([&] {
      delegate = crypto::rsa_generate(rng, 1024);
      token = tracing::AuthorizationToken::create(
          ad, delegate.public_key, tracing::TokenRights::kPublish,
          clock.now(), clock.now() + 600 * kSecond, owner.keys.private_key);
    }));

    token_verify.add(timed([&] {
      const Status s = token.verify(tdn_keys.public_key, ca.public_key(),
                                    clock.now());
      if (!s.is_ok()) { std::fprintf(stderr, "token verify failed: %s\n", s.to_string().c_str()); std::abort(); }
    }));

    Bytes ciphertext;
    encrypt.add(timed([&] {
      ciphertext = trace_key.encrypt(trace_body, rng);
    }));
    decrypt.add(timed([&] {
      if (trace_key.decrypt(ciphertext) != trace_body) { std::fprintf(stderr, "decrypt mismatch\n"); std::abort(); }
    }));

    // Plain trace message: sign / verify with the delegate key.
    pubsub::Message plain;
    plain.topic = pubsub::trace_topics::trace_publication(
        topic.to_string(), "AllUpdates");
    plain.payload = trace_body;
    plain.publisher = "broker-0";
    plain.sequence = static_cast<std::uint64_t>(i) + 1;
    plain.timestamp = clock.now();
    plain.auth_token = token.serialize();
    sign_plain.add(timed([&] {
      plain.signature = delegate.private_key.sign(plain.signable_bytes());
    }));
    verify_plain.add(timed([&] {
      if (!token.verify_delegate_signature(plain.signable_bytes(),
                                           plain.signature)) {
        std::abort();
      }
    }));

    // Encrypted trace message.
    pubsub::Message enc = plain;
    enc.payload = ciphertext;
    enc.encrypted = true;
    sign_encrypted.add(timed([&] {
      enc.signature = delegate.private_key.sign(enc.signable_bytes());
    }));
    verify_encrypted.add(timed([&] {
      if (!token.verify_delegate_signature(enc.signable_bytes(),
                                           enc.signature)) {
        std::abort();
      }
    }));
  }

  PaperTable table("Security and Authorization related Costs (Table 3)");
  table.add_row("Token Generation and Signing", token_gen);
  table.add_row("Verifying Authorization Token", token_verify);
  table.add_row("Encrypting Trace Message", encrypt);
  table.add_row("Decrypting Trace Message", decrypt);
  table.add_row("Sign Trace Message", sign_plain);
  table.add_row("Verify Signature in Trace Message", verify_plain);
  table.add_row("Sign Encrypted Trace Message", sign_encrypted);
  table.add_row("Verify Signature in Encrypted Trace", verify_encrypted);
  table.print();
  table.print_json("crypto_ops");  // full precision: AES costs are µs
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E2: Security & authorization operation costs (paper Table 3)\n"
      "Units: milliseconds. %d iterations per operation, %zu-byte traces,\n"
      "RSA-1024 / SHA-1 / PKCS#1 signing, AES-192/CBC encryption.\n",
      et::bench::kIterations, et::bench::kTraceBytes);
  et::bench::run();
  return 0;
}
