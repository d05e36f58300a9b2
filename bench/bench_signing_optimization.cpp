// Experiment E5 — paper Figure 5 (§6.3): the signing-cost optimization.
//
// Baseline: the traced entity RSA-signs every message it sends its hosting
// broker (§4.2). Optimized: entity and broker share the session's secret
// symmetric key and the entity AES-encrypts instead — "the
// encryption/decryption costs are cheaper than the corresponding
// signing/verification cost". Both modes measured across 2-6 hops on the
// TCP profile, end-to-end (entity state change -> verified trace at the
// tracker), exactly like E1.
#include <cstdio>

#include "bench/bench_util.h"

namespace et::bench {
namespace {

constexpr std::size_t kRounds = 40;

RunningStats run_config(std::size_t hops, tracing::EntitySigningMode mode) {
  tracing::TracingConfig config = paper_config();
  config.signing_mode = mode;

  Deployment dep(hops, transport::LinkParams::tcp_profile(), config);
  auto entity = dep.make_entity("traced-entity", 0);
  dep.start_tracing(*entity);
  auto tracker = dep.make_tracker("measuring-tracker", hops - 1);

  Latch received;
  dep.track(*tracker, "traced-entity", tracing::kCatStateTransitions,
            [&](const tracing::TracePayload& p, const pubsub::Message&) {
              if (p.state) received.hit();
            });

  RunningStats stats =
      measure_state_trace_latency(dep, *entity, received, kRounds);
  dep.net.stop();
  return stats;
}

}  // namespace
}  // namespace et::bench

int main() {
  using et::tracing::EntitySigningMode;
  std::printf(
      "E5: Signing-cost optimization (paper Figure 5, section 6.3)\n"
      "Units: milliseconds. %zu traces per configuration, TCP profile.\n",
      et::bench::kRounds);
  {
    et::bench::PaperTable table(
        "Entity signs every message (RSA-1024, section 4.2 baseline)");
    for (std::size_t hops = 2; hops <= 6; ++hops) {
      table.add_row(
          std::to_string(hops) + " hops",
          et::bench::run_config(hops, EntitySigningMode::kSignEachMessage));
    }
    table.print();
    table.print_json("signing_optimization");
  }
  {
    et::bench::PaperTable table(
        "Symmetric session key optimization (AES-192, section 6.3)");
    for (std::size_t hops = 2; hops <= 6; ++hops) {
      table.add_row(
          std::to_string(hops) + " hops",
          et::bench::run_config(hops, EntitySigningMode::kSymmetricSession));
    }
    table.print();
    table.print_json("signing_optimization");
  }
  return 0;
}
