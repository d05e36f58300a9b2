#include "src/chaos/scenario.h"

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <map>
#include <queue>
#include <set>
#include <stdexcept>

#include "src/common/serialize.h"
#include "src/tracing/trace_digest.h"
#include "src/tracing/trace_message.h"
#include "src/transport/fault_injector.h"

namespace et::chaos {

std::string OverlaySpec::describe() const {
  switch (shape) {
    case Shape::kChain:
      return "chain-" + std::to_string(brokers);
    case Shape::kRing:
      return "ring-" + std::to_string(brokers);
    case Shape::kTree:
      return "tree" + std::to_string(arity) + "-" +
             std::to_string(brokers);
    case Shape::kClusters:
      return "clusters" + std::to_string(leaves_per_core) + "-" +
             std::to_string(brokers);
    case Shape::kRandomTree:
      return "random" + std::to_string(max_degree) + "-" +
             std::to_string(brokers);
  }
  return "?";
}

tracing::TracingConfig chaos_config() {
  tracing::TracingConfig c;
  c.ping_interval = 100 * kMillisecond;
  c.min_ping_interval = 20 * kMillisecond;
  c.gauge_interval = 300 * kMillisecond;
  c.metrics_interval = 250 * kMillisecond;
  c.delegate_key_bits = 512;
  c.suspicion_misses = 3;
  c.failed_misses = 6;
  c.disconnect_misses = 9;
  c.broker_silence_timeout = 600 * kMillisecond;
  RetryPolicy r;
  r.max_attempts = 0;  // an availability reporter never gives up
  r.initial_backoff = 50 * kMillisecond;
  r.max_backoff = 400 * kMillisecond;
  r.deadline = 10 * kSecond;
  c.retry = r;
  c.recovery_announce_delay = 700 * kMillisecond;
  return c;
}

Duration detection_bound(const tracing::TracingConfig& c) {
  const int misses =
      c.disconnect_misses > 0 ? c.disconnect_misses : c.failed_misses;
  const Duration broker_side =
      static_cast<Duration>(misses) * c.ping_interval;
  return std::max(broker_side, c.broker_silence_timeout);
}

transport::LinkParams ScenarioDeployment::link() {
  transport::LinkParams p = transport::LinkParams::ideal_profile();
  p.base_latency = 1 * kMillisecond;
  return p;
}

ScenarioDeployment::ScenarioDeployment(transport::NetworkBackend& backend,
                                       Options opts)
    : backend_(backend),
      config_(opts.config),
      key_bits_(opts.key_bits),
      rng_(opts.seed),
      ca_("chaos-ca", rng_, key_bits_),
      // One long-term keypair shared by every scenario identity: CA
      // enrolment is one signature, which is what makes 128-broker
      // overlays build in test time.
      shared_keys_(crypto::rsa_generate(rng_, key_bits_)) {
  config_.delegate_key_bits = key_bits_;

  if (opts.durability.enabled) {
    durability_fsync_ = opts.durability.fsync;
    durability_dir_ = opts.durability.dir;
    if (durability_dir_.empty()) {
      // Unique per deployment instance: two same-seed runs must not share
      // (and thus cross-recover) state directories.
      static std::atomic<std::uint64_t> counter{0};
      durability_dir_ =
          (std::filesystem::temp_directory_path() /
           ("et-chaos-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1))))
              .string();
      owns_durability_dir_ = true;
    }
    std::filesystem::create_directories(durability_dir_);
  }

  // TDN replicas share one signing keypair: the TrustAnchors carry a
  // single tdn_key, so the replica set presents as one logical service.
  const crypto::RsaKeyPair tdn_keys = crypto::rsa_generate(rng_, key_bits_);
  anchors_.ca_key = ca_.public_key();
  anchors_.tdn_key = tdn_keys.public_key;
  const std::size_t replicas = std::max<std::size_t>(1, opts.tdn_replicas);
  for (std::size_t i = 0; i < replicas; ++i) {
    discovery::Tdn::Options to;
    to.identity.id = "tdn-" + std::to_string(i);
    to.identity.keys = tdn_keys;
    to.identity.credential = ca_.issue(to.identity.id, tdn_keys.public_key,
                                       backend_.now(), 24 * 3600 * kSecond);
    to.ca_key = ca_.public_key();
    to.seed = opts.seed + 1 + i;
    if (durable()) {
      to.persist_dir = durability_dir_ + "/tdn-" + std::to_string(i);
      to.fsync = durability_fsync_;
    }
    tdns_.push_back(
        std::make_unique<discovery::Tdn>(backend_, std::move(to)));
  }
  // Full-mesh replication links between the replicas.
  for (std::size_t i = 0; i < tdns_.size(); ++i) {
    for (std::size_t j = i + 1; j < tdns_.size(); ++j) {
      backend_.link(tdns_[i]->node(), tdns_[j]->node(), link());
      tdns_[i]->peer(tdns_[j]->node());
      tdns_[j]->peer(tdns_[i]->node());
    }
  }

  topology_ = std::make_unique<pubsub::Topology>(backend_);
  // Overlay links (broker-broker only) optionally carry loss; a reliable
  // link never drops, so lossy overlays must also flip reliable off.
  transport::LinkParams overlay_link = link();
  if (opts.overlay_loss > 0.0) {
    overlay_link.loss_probability = opts.overlay_loss;
    overlay_link.reliable = false;
  }
  const pubsub::BrokerOptionsFn brokeropts = [&](const std::string& name) {
    pubsub::Broker::Options o;
    o.name = name;
    if (durable()) {
      o.misbehaviour_persist_dir = durability_dir_ + "/broker-" + name;
      o.misbehaviour_fsync = durability_fsync_;
    }
    filters_.push_back(
        tracing::install_trace_filter(o, anchors_, backend_, config_));
    return o;
  };
  const OverlaySpec& ov = opts.overlay;
  switch (ov.shape) {
    case OverlaySpec::Shape::kChain:
      brokers_ = topology_->make_chain(ov.brokers, overlay_link, "broker",
                                       brokeropts);
      break;
    case OverlaySpec::Shape::kRing:
      brokers_ = topology_->make_ring(ov.brokers, overlay_link, "broker",
                                      brokeropts);
      break;
    case OverlaySpec::Shape::kTree:
      brokers_ = topology_->make_tree(ov.brokers, ov.arity, overlay_link,
                                      "broker", brokeropts);
      break;
    case OverlaySpec::Shape::kClusters: {
      const std::size_t cores = std::max<std::size_t>(
          1, ov.brokers / (1 + ov.leaves_per_core));
      brokers_ = topology_->make_clusters(cores, ov.leaves_per_core,
                                          overlay_link, "broker", brokeropts);
      for (std::size_t c = 0; c < cores; ++c) {
        std::vector<std::size_t> rack{c};
        for (std::size_t l = 0; l < ov.leaves_per_core; ++l) {
          rack.push_back(cores + c * ov.leaves_per_core + l);
        }
        racks_.push_back(std::move(rack));
      }
      break;
    }
    case OverlaySpec::Shape::kRandomTree:
      brokers_ = topology_->make_random_tree(ov.brokers, ov.max_degree,
                                             ov.shape_seed, overlay_link,
                                             "broker", brokeropts);
      break;
  }
  for (std::size_t i = 0; i < brokers_.size(); ++i) {
    services_.push_back(std::make_unique<tracing::TracingBrokerService>(
        *brokers_[i], anchors_, config_, opts.seed + 100 + i));
    if (durable()) {
      persist::TraceLedger::Options lo;
      lo.path = durability_dir_ + "/ledger-" + brokers_[i]->name() + ".log";
      lo.fsync = durability_fsync_;
      ledgers_.push_back(std::make_unique<persist::TraceLedger>(lo));
      services_[i]->set_trace_ledger(ledgers_[i].get());
    }
  }
  if (opts.repair.enabled) {
    pubsub::RepairPolicy::Options po;
    po.activate_standby = opts.repair.activate_standby;
    po.repeer = opts.repair.repeer;
    po.seed = opts.seed;
    po.link_params = overlay_link;  // repair edges are no better than the
                                    // overlay they patch
    // Lossy overlays drop interest announces too; extra anti-entropy
    // rounds give the post-repair re-flood per-hop retries.
    if (opts.overlay_loss > 0.0) po.resync_rounds = 5;
    repair_policy_ = std::make_unique<pubsub::RepairPolicy>(
        backend_, *topology_, po);
    for (std::size_t i = 0; i < brokers_.size(); ++i) {
      repair_services_.push_back(
          std::make_unique<pubsub::OverlayRepairService>(
              *brokers_[i], repair_policy_.get(), opts.repair.service));
      repair_policy_->attach(i, *brokers_[i], *repair_services_[i]);
      repair_services_[i]->start();
    }
  }
}

ScenarioDeployment::~ScenarioDeployment() {
  if (owns_durability_dir_) {
    // Close the stores (they hold fds into the tree) before removing it.
    for (auto& t : tdns_) t->simulate_restart(/*with_state=*/false);
    ledgers_.clear();
    std::error_code ec;
    std::filesystem::remove_all(durability_dir_, ec);
  }
}

void ScenarioDeployment::restart_tdn_state(std::size_t i, bool with_state) {
  discovery::Tdn& t = *tdns_.at(i);
  backend_.post(t.node(),
                [&t, with_state] { t.simulate_restart(with_state); });
}

void ScenarioDeployment::restart_broker_state(std::size_t i,
                                              bool with_state) {
  pubsub::Broker& b = *brokers_.at(i);
  backend_.post(b.node(), [&b, with_state] {
    b.restart_misbehaviour_state(with_state);
  });
}

void ScenarioDeployment::attach_restart_handler(ScheduleEngine& engine) {
  engine.set_restart_handler(
      [this](std::size_t index, bool tdn_target, bool with_state) {
        if (tdn_target) {
          restart_tdn_state(index, with_state);
        } else {
          restart_broker_state(index, with_state);
        }
      });
}

std::vector<std::string> ScenarioDeployment::audit_ledgers(
    const AvailabilityOracle& oracle) const {
  std::vector<std::string> out;
  if (ledgers_.empty()) {
    out.push_back("audit_ledgers: durability disabled, nothing to audit");
    return out;
  }
  // 1. Chain integrity: every broker's per-topic chains must verify.
  for (std::size_t i = 0; i < ledgers_.size(); ++i) {
    for (const std::string& v :
         persist::LedgerAuditor::verify_all(*ledgers_[i])) {
      out.push_back(brokers_[i]->name() + ": " + v);
    }
  }
  // 2. Observed ⊆ ledgered: every trace a tracker saw must exist in some
  // hosting broker's chain (an entity fails over, so its history may
  // spread across several brokers' ledgers), keyed by (type, issued_at).
  // A digest record vouches for an ALLS_WELL at its stamp for every member
  // whose bit it sets, named by the roster that a record earlier in the
  // same chain carried for the digest's epoch; a batch record vouches for
  // each trace it carries (DESIGN.md §14).
  constexpr auto kDigest =
      static_cast<std::uint8_t>(tracing::TraceType::kDigest);
  constexpr auto kBatch =
      static_cast<std::uint8_t>(tracing::TraceType::kBatch);
  constexpr auto kAllsWell =
      static_cast<std::uint8_t>(tracing::TraceType::kAllsWell);
  std::map<std::string, std::set<std::pair<std::uint8_t, TimePoint>>> ledgered;
  for (std::size_t i = 0; i < ledgers_.size(); ++i) {
    for (const std::string& topic : ledgers_[i]->topics()) {
      std::map<std::uint64_t, std::vector<std::string>> rosters;  // by epoch
      for (const persist::LedgerRecord& r : ledgers_[i]->records(topic)) {
        ledgered[r.entity_id].insert({r.trace_type, r.issued_at});
        if (r.trace_type == kBatch) {
          try {
            for (const tracing::TracePayload& p :
                 tracing::decode_trace_batch(r.payload)) {
              ledgered[p.entity_id].insert(
                  {static_cast<std::uint8_t>(p.type), p.issued_at});
            }
          } catch (const SerializeError&) {
            out.push_back("undecodable batch payload in ledger topic " +
                          topic);
          }
          continue;
        }
        if (r.trace_type != kDigest) continue;
        tracing::TraceDigest d;
        try {
          d = tracing::TraceDigest::deserialize(r.payload);
        } catch (const SerializeError&) {
          out.push_back("undecodable digest payload in ledger topic " + topic);
          continue;
        }
        if (!d.roster.empty()) rosters[d.epoch] = std::move(d.roster);
        const auto roster = rosters.find(d.epoch);
        if (roster == rosters.end() || roster->second.size() != d.members) {
          out.push_back(brokers_[i]->name() + ": digest #" +
                        std::to_string(r.sequence) + " in ledger topic " +
                        topic + " names roster epoch " +
                        std::to_string(d.epoch) +
                        " that no earlier record carried");
          continue;
        }
        d.for_each_observation([&](std::size_t member) {
          ledgered[roster->second[member]].insert({kAllsWell, d.issued_at});
        });
      }
    }
  }
  for (const auto& entity : entities_) {
    const std::string& eid = entity->entity_id();
    const auto& vouched = ledgered[eid];
    for (const auto& tracker : trackers_) {
      const auto events =
          oracle.observed_events(tracker->tracker_id(), eid);
      TimePoint last_issued = 0;
      for (const auto& ev : events) {
        if (!vouched.contains(
                {static_cast<std::uint8_t>(ev.type), ev.issued_at})) {
          out.push_back("phantom trace: " + tracker->tracker_id() + "/" +
                        eid + " observed " +
                        std::string(tracing::trace_type_name(ev.type)) +
                        " issued_at=" + std::to_string(ev.issued_at) +
                        " absent from every ledger");
        }
        if (ev.issued_at < last_issued) {
          out.push_back("reordered trace: " + tracker->tracker_id() + "/" +
                        eid + " observed " +
                        std::string(tracing::trace_type_name(ev.type)) +
                        " issued_at=" + std::to_string(ev.issued_at) +
                        " after issued_at=" + std::to_string(last_issued));
        }
        last_issued = std::max(last_issued, ev.issued_at);
      }
    }
  }
  return out;
}

crypto::Identity ScenarioDeployment::make_identity(const std::string& id) {
  crypto::Identity ident;
  ident.id = id;
  ident.keys = shared_keys_;
  ident.credential = ca_.issue(id, shared_keys_.public_key, backend_.now(),
                               24 * 3600 * kSecond);
  return ident;
}

void ScenarioDeployment::register_brokers() {
  registrar_ = std::make_unique<discovery::DiscoveryClient>(
      backend_, make_identity("registrar"));
  for (const auto& tdn : tdns_) {
    registrar_->attach_tdn(tdn->node(), link());
  }
  for (pubsub::Broker* b : brokers_) {
    registrar_->register_broker(b->name(), b->node(),
                                make_identity(b->name()).credential);
  }
}

tracing::TracedEntity& ScenarioDeployment::add_entity(
    const std::string& id, std::size_t broker_index) {
  auto e = std::make_unique<tracing::TracedEntity>(
      backend_, make_identity(id), anchors_, config_, rng_.next_u64());
  for (const auto& tdn : tdns_) e->attach_tdn(tdn->node(), link());
  e->connect_broker(brokers_.at(broker_index)->node(), link());
  entities_.push_back(std::move(e));
  entity_home_.push_back(broker_index);
  last_failovers_.push_back(0);
  return *entities_.back();
}

tracing::Tracker& ScenarioDeployment::add_tracker(const std::string& id,
                                                  std::size_t broker_index) {
  auto t = std::make_unique<tracing::Tracker>(backend_, make_identity(id),
                                              anchors_, rng_.next_u64());
  for (const auto& tdn : tdns_) t->attach_tdn(tdn->node(), link());
  t->connect_broker(brokers_.at(broker_index)->node(), link());
  trackers_.push_back(std::move(t));
  tracker_home_.push_back(broker_index);
  return *trackers_.back();
}

std::size_t ScenarioDeployment::broker_index_of(
    transport::NodeId node) const {
  for (std::size_t i = 0; i < brokers_.size(); ++i) {
    if (brokers_[i]->node() == node) return i;
  }
  return SIZE_MAX;
}

namespace {

/// BFS over the peered overlay using only hops the fault plan currently
/// lets packets through.
bool overlay_path(const std::vector<pubsub::Broker*>& brokers,
                  const std::vector<std::pair<std::size_t, std::size_t>>&
                      edges,
                  const transport::FaultInjector& faults, std::size_t from,
                  std::size_t to, TimePoint now) {
  if (from == to) return !faults.cut(brokers[from]->node(),
                                     brokers[from]->node(), now);
  std::vector<std::vector<std::size_t>> adj(brokers.size());
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(brokers.size(), false);
  std::queue<std::size_t> q;
  seen[from] = true;
  q.push(from);
  while (!q.empty()) {
    const std::size_t u = q.front();
    q.pop();
    for (const std::size_t v : adj[u]) {
      if (seen[v]) continue;
      if (faults.cut(brokers[u]->node(), brokers[v]->node(), now)) continue;
      if (v == to) return true;
      seen[v] = true;
      q.push(v);
    }
  }
  return false;
}

}  // namespace

bool ScenarioDeployment::reachable(std::size_t tracker_index,
                                   std::size_t entity_index, TimePoint now) {
  tracing::TracedEntity& e = *entities_.at(entity_index);
  const transport::NodeId hosting = e.client().broker();
  const std::size_t host_index = broker_index_of(hosting);
  if (host_index == SIZE_MAX) return false;  // mid-failover, unhosted
  if (e.failing_over() || !e.tracing_active()) return false;
  const transport::FaultInjector& faults = backend_.faults();
  if (faults.cut(e.client().node(), hosting, now)) return false;
  tracing::Tracker& t = *trackers_.at(tracker_index);
  const std::size_t t_home = tracker_home_.at(tracker_index);
  if (faults.cut(t.client().node(), brokers_[t_home]->node(), now)) {
    return false;
  }
  return overlay_path(brokers_, topology_->edges(), faults, t_home,
                      host_index, now);
}

void ScenarioDeployment::sample_truth(AvailabilityOracle& oracle,
                                      TimePoint now) {
  for (std::size_t t = 0; t < trackers_.size(); ++t) {
    for (std::size_t e = 0; e < entities_.size(); ++e) {
      oracle.set_truth(trackers_[t]->tracker_id(),
                       entities_[e]->entity_id(), reachable(t, e, now), now);
    }
  }
  for (std::size_t e = 0; e < entities_.size(); ++e) {
    const std::uint64_t fo = entities_[e]->stats().failovers;
    if (fo > last_failovers_[e]) {
      oracle.note_failover(entities_[e]->entity_id(), fo, now);
      last_failovers_[e] = fo;
    }
  }
}

bool ScenarioDeployment::reachable_static(std::size_t tracker_index,
                                          std::size_t entity_index,
                                          TimePoint now) const {
  const std::size_t e_home = entity_home_.at(entity_index);
  const std::size_t t_home = tracker_home_.at(tracker_index);
  const transport::FaultInjector& faults = backend_.faults();
  // Home-broker table and client node ids are immutable after creation,
  // so this is safe while RealTimeNetwork actors run.
  if (faults.cut(entities_.at(entity_index)->client().node(),
                 brokers_[e_home]->node(), now)) {
    return false;
  }
  if (faults.cut(trackers_.at(tracker_index)->client().node(),
                 brokers_[t_home]->node(), now)) {
    return false;
  }
  return overlay_path(brokers_, topology_->edges(), faults, t_home, e_home,
                      now);
}

void ScenarioDeployment::sample_truth_static(AvailabilityOracle& oracle,
                                             TimePoint now) const {
  for (std::size_t t = 0; t < trackers_.size(); ++t) {
    for (std::size_t e = 0; e < entities_.size(); ++e) {
      oracle.set_truth(trackers_[t]->tracker_id(),
                       entities_[e]->entity_id(),
                       reachable_static(t, e, now), now);
    }
  }
}

std::vector<std::size_t> ScenarioDeployment::rack(std::size_t r) const {
  return racks_.at(r);
}

}  // namespace et::chaos
