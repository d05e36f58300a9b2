// Experiment E1 — paper Table 3 (trace-routing rows) and Figure 2:
// trace routing overhead vs broker hops, TCP-like vs UDP-like transport,
// authorization-only vs authorization + security.
//
// Topology (paper Figure 1): traced entity -> broker1 -> ... -> brokerH ->
// measuring tracker, one broker per "hop". Each trace crosses H+1 links
// and pays, per the scheme: entity RSA signature, broker verification,
// broker delegate signature + token attach, per-hop token verification
// (trace filter) and tracker-side end-to-end verification; the secured
// variant adds AES-192 encryption at the broker and decryption at the
// tracker.
#include <cstdio>

#include "bench/bench_util.h"

namespace et::bench {
namespace {

constexpr std::size_t kRounds = 40;

RunningStats run_config(std::size_t hops, const transport::LinkParams& link,
                        bool secure) {
  tracing::TracingConfig config = paper_config();
  config.secure_traces = secure;

  Deployment dep(hops, link, config);
  auto entity = dep.make_entity("traced-entity", 0);
  dep.start_tracing(*entity);
  auto tracker = dep.make_tracker("measuring-tracker", hops - 1);

  Latch received;
  dep.track(*tracker, "traced-entity", tracing::kCatStateTransitions,
            [&](const tracing::TracePayload& p, const pubsub::Message&) {
              if (p.state) received.hit();
            });

  RunningStats stats = measure_state_trace_latency(dep, *entity, received,
                                                   kRounds);
  // Halt all network threads while entity/tracker are still alive (they
  // are destroyed before `dep` on scope exit).
  dep.net.stop();
  return stats;
}

void run_transport(const char* name, const transport::LinkParams& link) {
  {
    PaperTable table("Trace Routing Overhead for different hops (" +
                     std::string(name) + ") -- Authorization Only");
    for (std::size_t hops = 2; hops <= 6; ++hops) {
      table.add_row(std::to_string(hops) + " hops",
                    run_config(hops, link, /*secure=*/false));
    }
    table.print();
    table.print_json("hops");
  }
  {
    PaperTable table("Trace Routing Overhead for different hops (" +
                     std::string(name) + ") -- Authorization & Security");
    for (std::size_t hops = 2; hops <= 6; ++hops) {
      table.add_row(std::to_string(hops) + " hops",
                    run_config(hops, link, /*secure=*/true));
    }
    table.print();
    table.print_json("hops");
  }
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf("E1: Trace routing overhead vs hops (paper Table 3 / Figure 2)\n");
  std::printf("Units: milliseconds. %zu traces per configuration.\n",
              et::bench::kRounds);
  et::bench::run_transport("TCP", et::transport::LinkParams::tcp_profile());
  et::bench::run_transport("UDP", et::transport::LinkParams::udp_profile());
  return 0;
}
