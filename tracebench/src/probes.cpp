#include "probes.h"

#include <algorithm>
#include <functional>

#include "src/crypto/sha256.h"
#include "src/tracing/authorization_token.h"

namespace tracebench {

namespace {

constexpr int kBatches = 9;

/// Median over kBatches of the mean per-call time of `calls` runs of
/// `body`; `prepare` runs untimed before each batch.
double per_call_us(int calls, const std::function<void()>& body,
                   const std::function<void()>& prepare = {}) {
  std::vector<double> batch_us;
  for (int b = 0; b < kBatches; ++b) {
    if (prepare) prepare();
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) body();
    batch_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 / calls);
  }
  return median(batch_us);
}

}  // namespace

ProbeResults run_probes(const ProbeInputs& in, const Fixture& fixture,
                        const std::filesystem::path& scratch,
                        std::vector<std::string>& errors) {
  ProbeResults r;
  const et::pubsub::Message& m = in.message;
  const et::Bytes signable = m.signable_bytes();
  et::tracing::AuthorizationToken token;
  try {
    token = et::tracing::AuthorizationToken::deserialize(m.auth_token);
  } catch (const std::exception& e) {
    errors.push_back(std::string("probe: captured token undecodable: ") +
                     e.what());
    return r;
  }
  bool ok = true;

  r.rsa_sign_us = per_call_us(4, [&] {
    ok &= !in.sign_key->sign(signable).empty();
  });
  r.rsa_verify_us = per_call_us(20, [&] {
    ok &= token.delegate_key().verify(signable, m.signature);
  });
  if (!ok) errors.push_back("probe: RSA sign/verify of the captured trace failed");

  const auto anchors = fixture.anchors();
  ok = true;
  r.token_verify_us = per_call_us(10, [&] {
    ok &= token.verify(anchors.tdn_key, anchors.ca_key, in.verify_now).is_ok();
  });
  if (!ok) errors.push_back("probe: AuthorizationToken::verify rejected the captured token");

  // Plaintext length giving the captured ciphertext's size: IV (16 B)
  // plus PKCS#7-padded body.
  const std::size_t plain_len =
      m.payload.size() > 17 ? m.payload.size() - 17 : 1;
  et::Rng rng(plain_len);
  const et::Bytes plain = rng.next_bytes(plain_len);
  const et::Bytes cipher = fixture.probe_key.encrypt(plain, rng);
  if (!m.encrypted || cipher.size() != m.payload.size()) {
    errors.push_back("probe: captured trace is not an AES-192 ciphertext of the expected size");
  }
  ok = true;
  r.aes_encrypt_us = per_call_us(20, [&] {
    ok &= !fixture.probe_key.encrypt(plain, rng).empty();
  });
  r.aes_decrypt_us = per_call_us(10, [&] {
    ok &= fixture.probe_key.decrypt(cipher) == plain;
  });
  if (!ok) errors.push_back("probe: AES-192 round trip failed");

  const et::Bytes record_bytes = in.record.serialize();
  ok = true;
  r.sha256_us = per_call_us(50, [&] {
    ok &= et::crypto::Sha256::digest(record_bytes).size() == 32;
  });
  if (!ok || in.record.compute_digest() != in.record.digest) {
    errors.push_back("probe: captured ledger record does not hash to its digest");
  }

  const auto wal = scratch / "probe-ledger.wal";
  et::persist::TraceLedger ledger;
  ok = true;
  r.ledger_append_us = per_call_us(
      20,
      [&] {
        ok &= ledger
                  .append(in.record.topic, in.record.entity_id,
                          in.record.trace_type, in.record.issued_at,
                          in.record.payload, in.record.signature)
                  .is_ok();
      },
      [&] {
        // A fresh WAL per batch keeps the chain (held in memory) short.
        std::filesystem::remove(wal);
        ok &= ledger.open({wal.string(), et::persist::FsyncPolicy::kNever})
                  .is_ok();
      });
  if (!ok) errors.push_back("probe: TraceLedger::append failed");
  std::filesystem::remove(wal);
  return r;
}

void add_probe_metrics(Report& report, const ProbeResults& r) {
  report.add("crypto.rsa_sign_us", r.rsa_sign_us);
  report.add("crypto.rsa_verify_us", r.rsa_verify_us);
  report.add("crypto.aes_encrypt_us", r.aes_encrypt_us);
  report.add("crypto.aes_decrypt_us", r.aes_decrypt_us);
  report.add("crypto.sha256_us", r.sha256_us);
  report.add("persist.ledger_append_us", r.ledger_append_us);
  report.add("tracing.token_verify_us", r.token_verify_us);
}

void probe_captured(
    const std::optional<et::pubsub::Message>& captured, et::TimePoint at,
    const et::crypto::RsaPrivateKey& sign_key,
    const std::vector<std::unique_ptr<et::persist::TraceLedger>>& ledgers,
    const Fixture& fixture, const std::filesystem::path& scratch,
    Outcome& out) {
  out.gate(captured.has_value(), "no trace captured for the probes");
  if (!captured) return;
  ProbeInputs in;
  in.message = *captured;
  in.verify_now = at;
  in.sign_key = &sign_key;
  const auto with_chain =
      std::find_if(ledgers.begin(), ledgers.end(), [&](const auto& ledger) {
        return !ledger->records(in.message.topic).empty();
      });
  out.gate(with_chain != ledgers.end(), "captured trace has no ledger record");
  if (with_chain == ledgers.end()) return;
  in.record = (*with_chain)->records(in.message.topic).front();
  add_probe_metrics(out.report,
                    run_probes(in, fixture, scratch, out.gate_failures));
}

}  // namespace tracebench
