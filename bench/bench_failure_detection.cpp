// Experiments E8 and E13 — failure detection and recovery.
//
// E8 (ablation) — adaptive vs fixed ping interval (§3.3): "if
// consecutive pings do not have responses associated with them, the ping
// interval is reduced to hasten the failure detection of the entity."
// A traced entity is crashed at a random phase of the ping cycle; we
// measure time-to-FAILURE_SUSPICION and time-to-FAILED plus the pings
// spent, with and without the adaptive shrink, across many trials on the
// deterministic virtual-time backend.
//
// E13 (ablation) — end-to-end failure recovery (DESIGN.md §11): a lossy
// entity<->broker link plus an injected cut of configurable length. Swept
// over packet loss {0, 0.5%, 5%}, cut length {0.3 s, 1 s, permanent} and
// the suspect threshold K; reports detection latency, false-suspect rate
// during the healthy window, and time from cut to completed
// re-registration at a replacement broker. Emits one JSON object per
// table (PaperTable::print_json) for BENCH_failure_recovery.json.
#include <cstdio>
#include <memory>
#include <string>

#include "src/crypto/credential.h"
#include "src/discovery/discovery_client.h"
#include "src/discovery/tdn.h"
#include "src/pubsub/topology.h"
#include "src/tracing/config.h"
#include "src/tracing/trace_filter.h"
#include "src/tracing/traced_entity.h"
#include "src/tracing/tracing_broker.h"
#include "src/tracing/tracker.h"
#include "src/transport/fault_injector.h"
#include "src/transport/virtual_network.h"

#include "bench/bench_util.h"

namespace et::bench {
namespace {

using namespace et::tracing;

constexpr int kTrials = 25;

struct TrialResult {
  RunningStats suspicion_ms;
  RunningStats failed_ms;
  RunningStats pings;
};

TrialResult run(bool adaptive) {
  TrialResult result;
  for (int trial = 0; trial < kTrials; ++trial) {
    transport::VirtualTimeNetwork net(1000 + trial);
    Rng rng(77 + trial);
    crypto::CertificateAuthority ca("ca", rng, 512);
    crypto::Identity tdn_id = crypto::Identity::create(
        "tdn-0", ca, rng, net.now(), 24 * 3600 * kSecond, 512);
    TrustAnchors anchors{ca.public_key(), tdn_id.keys.public_key};
    discovery::Tdn tdn(net, std::move(tdn_id), ca.public_key(), 4);

    TracingConfig config;
    config.ping_interval = 500 * kMillisecond;
    // Fixed mode: the floor equals the base period, so no shrink happens.
    config.min_ping_interval =
        adaptive ? 100 * kMillisecond : 500 * kMillisecond;
    config.suspicion_misses = 3;
    config.failed_misses = 6;
    config.gauge_interval = kSecond;
    config.metrics_interval = 10 * kSecond;
    config.delegate_key_bits = 512;

    transport::LinkParams lan = transport::LinkParams::ideal_profile();
    lan.base_latency = 1500;

    pubsub::Topology topo(net);
    auto brokers =
        topo.make_chain(1, lan, "broker", [&](const std::string&) {
          pubsub::Broker::Options o;
          install_trace_filter(o, anchors, net);
          return o;
        });
    TracingBrokerService service(*brokers[0], anchors, config, 9);

    const crypto::Identity entity_id = crypto::Identity::create(
        "entity", ca, rng, net.now(), 24 * 3600 * kSecond, 512);
    TracedEntity entity(net, entity_id, anchors, config, rng.next_u64());
    entity.attach_tdn(tdn.node(), lan);
    entity.connect_broker(brokers[0]->node(), lan);
    entity.start_tracing({}, [](const Status& s) {
      if (!s.is_ok()) std::abort();
    });
    net.run_for(200 * kMillisecond);

    // A tracker keeps change-notification interest alive and timestamps
    // the suspicion/failure traces.
    const crypto::Identity tracker_id = crypto::Identity::create(
        "tracker", ca, rng, net.now(), 24 * 3600 * kSecond, 512);
    Tracker tracker(net, tracker_id, anchors, rng.next_u64());
    tracker.attach_tdn(tdn.node(), lan);
    tracker.connect_broker(brokers[0]->node(), lan);
    TimePoint suspected_at = 0, failed_at = 0;
    tracker.track("entity", kCatChangeNotifications,
                  [&](const TracePayload& p, const pubsub::Message&) {
                    if (p.type == TraceType::kFailureSuspicion &&
                        suspected_at == 0) {
                      suspected_at = net.now();
                    }
                    if (p.type == TraceType::kFailed && failed_at == 0) {
                      failed_at = net.now();
                    }
                  });
    net.run_for(2 * kSecond);

    // Crash at a random phase within one ping period.
    net.run_for(static_cast<Duration>(rng.next_below(500 * 1000)));
    const std::uint64_t pings_before = service.stats().pings_sent;
    const TimePoint crash_at = net.now();
    entity.set_responsive(false);
    net.run_for(30 * kSecond);

    if (suspected_at == 0 || failed_at == 0) {
      std::fprintf(stderr, "FATAL: detection never completed\n");
      std::abort();
    }
    result.suspicion_ms.add(to_millis(suspected_at - crash_at));
    result.failed_ms.add(to_millis(failed_at - crash_at));
    result.pings.add(static_cast<double>(service.stats().pings_sent -
                                         pings_before));
  }
  return result;
}

// --- E13: recovery under loss + injected cuts ------------------------------

constexpr int kRecoveryTrials = 8;
constexpr Duration kSteadyWindow = 20 * kSecond;

struct RecoveryConfig {
  std::string label;
  double loss = 0.0;           // entity<->broker packet loss
  int suspicion_misses = 3;    // suspect threshold K
  Duration cut_length = 0;     // 0 = permanent (until recovery)
};

struct RecoveryResult {
  RunningStats detect_ms;       // cut -> FAILURE_SUSPICION at the tracker
  RunningStats rereg_ms;        // cut -> failover completed at the entity
  RunningStats false_per_min;   // suspicions during the healthy window
  RunningStats suspected;       // fraction of trials that reached suspicion
  RunningStats recovered;       // fraction of trials that re-registered
};

RecoveryResult run_recovery(const RecoveryConfig& cfg) {
  RecoveryResult result;
  for (int trial = 0; trial < kRecoveryTrials; ++trial) {
    transport::VirtualTimeNetwork net(5000 + trial);
    Rng rng(900 + trial);
    crypto::CertificateAuthority ca("ca", rng, 512);
    crypto::Identity tdn_id = crypto::Identity::create(
        "tdn-0", ca, rng, net.now(), 24 * 3600 * kSecond, 512);
    TrustAnchors anchors{ca.public_key(), tdn_id.keys.public_key};
    discovery::Tdn tdn(net, std::move(tdn_id), ca.public_key(), 4);

    TracingConfig config;
    config.ping_interval = 500 * kMillisecond;
    config.min_ping_interval = 100 * kMillisecond;
    config.suspicion_misses = cfg.suspicion_misses;
    config.failed_misses = cfg.suspicion_misses + 3;
    config.disconnect_misses = cfg.suspicion_misses + 6;
    config.broker_silence_timeout = 3 * kSecond;
    RetryPolicy retry;
    retry.max_attempts = 0;
    retry.initial_backoff = 100 * kMillisecond;
    retry.max_backoff = kSecond;
    retry.deadline = 10 * kSecond;
    config.retry = retry;
    config.gauge_interval = kSecond;
    config.metrics_interval = 10 * kSecond;
    config.delegate_key_bits = 512;

    transport::LinkParams lan = transport::LinkParams::ideal_profile();
    lan.base_latency = 1500;
    // The entity's access link drops packets for real (UDP-like).
    transport::LinkParams lossy = lan;
    lossy.reliable = false;
    lossy.loss_probability = cfg.loss;

    pubsub::Topology topo(net);
    auto brokers =
        topo.make_chain(2, lan, "broker", [&](const std::string& name) {
          pubsub::Broker::Options o;
          o.name = name;
          install_trace_filter(o, anchors, net);
          return o;
        });
    std::vector<std::unique_ptr<TracingBrokerService>> services;
    for (auto* b : brokers) {
      services.push_back(
          std::make_unique<TracingBrokerService>(*b, anchors, config, 9));
    }
    discovery::DiscoveryClient registrar(
        net, crypto::Identity::create("registrar", ca, rng, net.now(),
                                      24 * 3600 * kSecond, 512));
    registrar.attach_tdn(tdn.node(), lan);
    for (auto* b : brokers) {
      registrar.register_broker(
          b->name(), b->node(),
          crypto::Identity::create(b->name(), ca, rng, net.now(),
                                   24 * 3600 * kSecond, 512)
              .credential);
    }

    const crypto::Identity entity_id = crypto::Identity::create(
        "entity", ca, rng, net.now(), 24 * 3600 * kSecond, 512);
    TracedEntity entity(net, entity_id, anchors, config, rng.next_u64());
    entity.attach_tdn(tdn.node(), lan);
    entity.connect_broker(brokers[0]->node(), lossy);
    entity.start_tracing({}, [](const Status& s) {
      if (!s.is_ok()) std::abort();
    });
    net.run_for(500 * kMillisecond);

    const crypto::Identity tracker_id = crypto::Identity::create(
        "tracker", ca, rng, net.now(), 24 * 3600 * kSecond, 512);
    Tracker tracker(net, tracker_id, anchors, rng.next_u64());
    tracker.attach_tdn(tdn.node(), lan);
    tracker.connect_broker(brokers[1]->node(), lan);
    int suspicions_before_cut = 0;
    TimePoint cut_at = 0, suspected_at = 0;
    tracker.track("entity", kCatChangeNotifications,
                  [&](const TracePayload& p, const pubsub::Message&) {
                    if (p.type != TraceType::kFailureSuspicion) return;
                    if (cut_at == 0) {
                      ++suspicions_before_cut;
                    } else if (suspected_at == 0) {
                      suspected_at = net.now();
                    }
                  });
    net.run_for(2 * kSecond);

    // Healthy window: any suspicion here is a false positive caused by
    // link loss alone.
    net.run_for(kSteadyWindow);

    cut_at = net.now();
    net.faults().blackhole(entity.client().node(), brokers[0]->node());
    if (cfg.cut_length > 0) {
      net.run_for(cfg.cut_length);
      net.faults().restore(entity.client().node(), brokers[0]->node());
    }
    const Duration budget = cfg.cut_length > 0 ? 10 * kSecond : 60 * kSecond;
    TimePoint recovered_at = 0;
    while (net.now() - cut_at < budget) {
      net.run_for(200 * kMillisecond);
      if (entity.stats().failovers >= 1) {
        recovered_at = net.now();
        break;
      }
    }

    result.false_per_min.add(suspicions_before_cut * 60.0 /
                             to_millis(kSteadyWindow) * 1000.0);
    result.suspected.add(suspected_at != 0 ? 1.0 : 0.0);
    result.recovered.add(recovered_at != 0 ? 1.0 : 0.0);
    if (suspected_at != 0) {
      result.detect_ms.add(to_millis(suspected_at - cut_at));
    }
    if (recovered_at != 0) {
      result.rereg_ms.add(to_millis(recovered_at - cut_at));
    }
  }
  return result;
}

void print_recovery(const RecoveryConfig& cfg) {
  const RecoveryResult r = run_recovery(cfg);
  PaperTable t(cfg.label);
  t.add_row("time to FAILURE_SUSPICION after cut (ms)", r.detect_ms);
  t.add_row("time to completed re-registration (ms)", r.rereg_ms);
  t.add_row("false suspicions per minute (healthy)", r.false_per_min,
            "1/min");
  t.add_row("fraction of trials suspected", r.suspected, "share");
  t.add_row("fraction of trials re-registered", r.recovered, "share");
  t.print();
  t.print_json("failure_recovery");
}

}  // namespace
}  // namespace et::bench

int main() {
  std::printf(
      "E8 (ablation): adaptive vs fixed ping interval (section 3.3)\n"
      "Base period 500 ms, suspicion after 3 misses, FAILED after 6.\n"
      "%d trials each; crash injected at a random ping phase.\n",
      et::bench::kTrials);
  const auto adaptive = et::bench::run(true);
  const auto fixed = et::bench::run(false);

  et::bench::PaperTable t1("Adaptive interval (floor 100 ms)");
  t1.add_row("time to FAILURE_SUSPICION (ms)", adaptive.suspicion_ms);
  t1.add_row("time to FAILED (ms)", adaptive.failed_ms);
  t1.add_row("pings sent during detection", adaptive.pings, "count");
  t1.print();

  et::bench::PaperTable t2("Fixed interval (500 ms)");
  t2.add_row("time to FAILURE_SUSPICION (ms)", fixed.suspicion_ms);
  t2.add_row("time to FAILED (ms)", fixed.failed_ms);
  t2.add_row("pings sent during detection", fixed.pings, "count");
  t2.print();

  std::printf(
      "\nE13: end-to-end failure recovery (DESIGN.md section 11)\n"
      "2-broker chain, lossy entity access link, broker-silence failover\n"
      "(watchdog 3 s), %d trials per configuration.\n",
      et::bench::kRecoveryTrials);
  // Loss sweep at K=3, permanent cut: detection + recovery under loss.
  for (const double loss : {0.0, 0.005, 0.05}) {
    et::bench::RecoveryConfig c;
    char label[96];
    std::snprintf(label, sizeof label,
                  "E13 loss sweep: loss %.1f%%, K=3, permanent cut",
                  loss * 100.0);
    c.label = label;
    c.loss = loss;
    et::bench::print_recovery(c);
  }
  // Cut-length sweep at 0.5% loss: short glitches must not trigger
  // recovery machinery.
  for (const et::Duration len :
       {300 * et::kMillisecond, et::kSecond, et::Duration{0}}) {
    et::bench::RecoveryConfig c;
    char label[96];
    if (len > 0) {
      std::snprintf(label, sizeof label,
                    "E13 cut-length sweep: %lld ms cut, loss 0.5%%, K=3",
                    static_cast<long long>(len / et::kMillisecond));
    } else {
      std::snprintf(label, sizeof label,
                    "E13 cut-length sweep: permanent cut, loss 0.5%%, K=3");
    }
    c.label = label;
    c.loss = 0.005;
    c.cut_length = len;
    et::bench::print_recovery(c);
  }
  // Suspect-threshold sweep at 5% loss: K trades detection latency
  // against false suspicion.
  for (const int k : {2, 3, 5}) {
    et::bench::RecoveryConfig c;
    char label[96];
    std::snprintf(label, sizeof label,
                  "E13 threshold sweep: K=%d, loss 5%%, permanent cut", k);
    c.label = label;
    c.loss = 0.05;
    c.suspicion_misses = k;
    et::bench::print_recovery(c);
  }
  return 0;
}
