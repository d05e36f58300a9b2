// Kernel probes for the crypto and persist layers, each run on inputs
// captured from the workload it reports for: the trace message as the
// tracker received it, the deployment's own RSA-1024 key, and a record
// from the hosting broker's ledger.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "src/persist/ledger.h"
#include "src/pubsub/message.h"

namespace tracebench {

struct ProbeInputs {
  et::pubsub::Message message;       // an encrypted, signed trace publication
  et::TimePoint verify_now = 0;      // deployment clock at capture (token window)
  et::persist::LedgerRecord record;  // the ledger record of a published trace
  const et::crypto::RsaPrivateKey* sign_key = nullptr;  // deployment key
};

/// Median per-call cost of each kernel, in microseconds.
struct ProbeResults {
  double rsa_sign_us = 0;
  double rsa_verify_us = 0;
  double aes_encrypt_us = 0;
  double aes_decrypt_us = 0;
  double sha256_us = 0;
  double ledger_append_us = 0;
  double token_verify_us = 0;
};

/// Runs every probe a fixed number of times. Appends a line to `errors`
/// for each kernel whose output is wrong (a verify that fails, a
/// decryption that does not round-trip, an append that errors).
ProbeResults run_probes(const ProbeInputs& in, const Fixture& fixture,
                        const std::filesystem::path& scratch,
                        std::vector<std::string>& errors);

void add_probe_metrics(Report& report, const ProbeResults& r);

/// The probes of a traced run: runs every kernel on `captured` (a trace
/// the tracker received at deployment time `at`) and on the first ledger
/// record of its topic, signs with `sign_key`, and reports the results.
/// Fails a gate, and reports nothing, when there is no capture or record.
void probe_captured(
    const std::optional<et::pubsub::Message>& captured, et::TimePoint at,
    const et::crypto::RsaPrivateKey& sign_key,
    const std::vector<std::unique_ptr<et::persist::TraceLedger>>& ledgers,
    const Fixture& fixture, const std::filesystem::path& scratch,
    Outcome& out);

}  // namespace tracebench
