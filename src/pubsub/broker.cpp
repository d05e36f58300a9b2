#include "src/pubsub/broker.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/common/serialize.h"
#include "src/common/topic_path.h"

namespace et::pubsub {

using transport::NodeId;

namespace {

// True when `topic` is already the '/'-joined canonical form of `path` —
// the common case, which lets the broker forward the original wire bytes.
// Non-canonical spellings (stray or doubled slashes) need an owning
// rewrite. Equivalent to `path.canonical() == topic` without allocating.
bool topic_is_canonical(const TopicPath& path, std::string_view topic) {
  std::size_t want = path.empty() ? 0 : path.size() - 1;
  for (const auto& seg : path.segments()) want += seg.size();
  if (topic.size() != want) return false;
  std::size_t off = 0;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) {
      if (topic[off] != '/') return false;
      ++off;
    }
    const std::string& seg = path[i];
    if (topic.compare(off, seg.size(), seg) != 0) return false;
    off += seg.size();
  }
  return true;
}

// Keys the local-service index's exact buckets: equal topics hash
// equally whatever their spelling, and nothing is joined per message.
std::size_t topic_hash(const TopicPath& path) {
  std::uint64_t h = 0;
  for (const auto& seg : path.segments()) h = h * 31 + segment_hash(seg);
  return static_cast<std::size_t>(h);
}

}  // namespace

// ---------------------------------------------------------------------------
// Broker

Broker::Broker(transport::NetworkBackend& backend, Options options)
    : backend_(backend),
      name_(std::move(options.name)),
      misbehaviour_threshold_(options.misbehaviour_threshold),
      summary_depth_(options.interest_summary_depth),
      filter_(std::move(options.message_filter)),
      misbehaviour_fsync_(options.misbehaviour_fsync),
      misbehaviour_dir_(std::move(options.misbehaviour_persist_dir)) {
  if (options.client_unreachable_handler) {
    unreachable_listeners_.push_back(
        std::move(options.client_unreachable_handler));
  }
  auto index = std::make_shared<ServiceIndex>();
  const auto empty = std::make_shared<const ServiceList>();
  index->exact.fill(empty);
  index->wild = empty;
  local_services_.store(std::move(index), std::memory_order_release);
  node_ = backend_.add_node(
      name_, [this](NodeId from, BytesView payload) {
        on_packet(from, payload);
      });
  if (!misbehaviour_dir_.empty()) open_misbehaviour_store();
}

void Broker::peer(NodeId other) {
  if (!neighbours_.insert(other).second) return;
  for (const auto& listener : peer_listeners_) listener(other, true);
}

void Broker::unpeer(NodeId other) {
  if (neighbours_.erase(other) == 0) return;
  summaries_.erase(other);
  // Drop everything the dead peer had announced, with no split horizon
  // since the originator is gone.
  retract_unwanted(remote_subs_.remove_endpoint(other));
  for (const auto& listener : peer_listeners_) listener(other, false);
}

void Broker::retract_unwanted(const std::vector<std::string>& emptied) {
  // Same cascade as handle_unsubscribe: a pattern still covered by other
  // local or remote interest keeps its upstream edge.
  for (const std::string& pattern : emptied) {
    const TopicPath compiled(pattern);
    if (!local_subs_.any_match(compiled) &&
        !remote_subs_.any_match(compiled)) {
      propagate_unsubscribe(compiled, pattern, transport::kInvalidNode);
    }
  }
}

void Broker::add_peer_listener(PeerListener listener) {
  if (listener) peer_listeners_.push_back(std::move(listener));
}

void Broker::set_link_handler(LinkFrameHandler handler) {
  link_handler_ = std::move(handler);
}

LocalServiceId Broker::subscribe_local(const std::string& pattern,
                                       LocalHandler handler, bool local_only) {
  auto svc = std::make_shared<LocalService>();
  svc->id = ++last_service_id_;
  svc->compiled = TopicPath(pattern);
  svc->pattern = svc->compiled.canonical();
  svc->handler = std::move(handler);
  svc->local_only = local_only;
  const TopicPath& compiled = svc->compiled;
  const std::string& norm = svc->pattern;

  // Republish the index copy-on-write: a send stage may be iterating the
  // old snapshot right now (a handler registering a service). Only the
  // touched bucket is copied; the new id is the largest, so appending
  // keeps the bucket in registration order.
  auto next = std::make_shared<ServiceIndex>(
      *local_services_.load(std::memory_order_acquire));
  std::shared_ptr<const ServiceList>& bucket =
      has_wildcard_segment(compiled)
          ? next->wild
          : next->exact[topic_hash(compiled) % ServiceIndex::kBuckets];
  auto grown = std::make_shared<ServiceList>(*bucket);
  grown->push_back(svc);
  bucket = std::move(grown);
  local_services_.store(std::move(next), std::memory_order_release);

  // Register interest network-wide so remote publications reach us. The
  // broker itself is the subscriber; constrained Subscribe-Only/Broker
  // topics permit exactly this. Suppressed subscriptions stay local.
  if (local_subs_.add(compiled, node_) && !local_only) {
    propagate_subscribe(compiled, norm, transport::kInvalidNode);
  }
  return svc->id;
}

void Broker::unsubscribe_local(LocalServiceId id) {
  auto next = std::make_shared<ServiceIndex>(
      *local_services_.load(std::memory_order_acquire));
  // Removal is rare: find the list holding the id (the wildcard list or
  // one exact bucket) and copy only that list.
  const auto has_id = [id](const auto& svc) { return svc->id == id; };
  const auto holds_id = [&has_id](const std::shared_ptr<const ServiceList>& l) {
    return std::any_of(l->begin(), l->end(), has_id);
  };
  std::shared_ptr<const ServiceList>* slot =
      holds_id(next->wild) ? &next->wild : nullptr;
  for (auto& bucket : next->exact) {
    if (slot == nullptr && holds_id(bucket)) slot = &bucket;
  }
  if (slot == nullptr) return;  // unknown id
  auto shrunk = std::make_shared<ServiceList>(**slot);
  const auto it = std::find_if(shrunk->begin(), shrunk->end(), has_id);
  const std::shared_ptr<const LocalService> gone = *it;
  shrunk->erase(it);
  const bool pattern_still_served =
      std::any_of(shrunk->begin(), shrunk->end(), [&gone](const auto& svc) {
        return svc->pattern == gone->pattern;
      });
  *slot = std::move(shrunk);
  local_services_.store(std::move(next), std::memory_order_release);

  if (pattern_still_served) return;
  if (local_subs_.remove(gone->compiled, node_) && !gone->local_only) {
    retract_unwanted({gone->pattern});
  }
}

LocalServiceId Broker::register_interest(const Interest& interest,
                                         LocalHandler handler,
                                         bool local_only) {
  std::vector<std::string> segs = TopicPath(interest.prefix).segments();
  if (interest.depth > 0 && segs.size() > interest.depth) {
    segs.resize(interest.depth);
  }
  if (segs.empty() || !is_wildcard_segment(segs.back())) {
    segs.emplace_back(kMultiLevelWildcard);
  }
  return subscribe_local(join_topic(segs), std::move(handler), local_only);
}

void Broker::resync_interest() {
  // Back-fill every neighbour with the union of local client interest,
  // neighbour-announced interest, and every pattern recorded on any
  // edge: a late-joined peer has no table yet, a healed peer may have
  // lost our announcements, and a broker whose only edge died carries
  // empty summary tables while its clients' subscriptions still need
  // re-announcing over a repair edge. Adds are refcount-idempotent here
  // and table-idempotent on the receiving side.
  std::set<std::string> all;
  for (const auto& [n, table] : summaries_) {
    for (auto& p : table.recorded_patterns()) all.insert(std::move(p));
  }
  const auto local = local_subs_.snapshot();
  const auto remote = remote_subs_.snapshot();
  for (const auto& p : local->patterns()) all.insert(p);
  for (const auto& p : remote->patterns()) all.insert(p);
  for (const NodeId n : neighbours_) {
    InterestSummaryTable& table = summary_for(n);
    for (const auto& p : all) {
      const TopicPath compiled(p);
      // Split horizon: a pattern whose only interest is the target
      // neighbour's own announcement is not echoed back to it.
      if (!local->any_match(compiled)) {
        const std::set<NodeId> holders = remote->match(compiled);
        if (holders.size() == 1 && *holders.begin() == n) continue;
      }
      (void)table.add(compiled);
    }
    for (const auto& summary : table.announced()) {
      send_frame(n, make_subscribe(summary, 0));
    }
  }
}

std::size_t Broker::summarized_edges() const {
  std::size_t total = 0;
  for (const auto& [n, table] : summaries_) total += table.edge_count();
  return total;
}

InterestSummaryTable& Broker::summary_for(NodeId neighbour) {
  return summaries_.try_emplace(neighbour, summary_depth_).first->second;
}

void Broker::propagate_subscribe(const TopicPath& compiled,
                                 const std::string& pattern, NodeId except) {
  for (const NodeId n : neighbours_) {
    if (n == except) continue;
    const auto announce = summary_for(n).add(compiled);
    if (summary_depth_ == 0) {
      // Legacy: re-announce verbatim (the table recorded the pattern for
      // resync, but never gates what is sent).
      send_frame(n, make_subscribe(pattern, 0));
    } else if (announce) {
      send_frame(n, make_subscribe(*announce, 0));
    }
  }
}

void Broker::propagate_unsubscribe(const TopicPath& compiled,
                                   const std::string& pattern,
                                   NodeId except) {
  for (const NodeId n : neighbours_) {
    if (n == except) continue;
    const auto retract = summary_for(n).remove(compiled);
    if (summary_depth_ == 0) {
      send_frame(n, make_unsubscribe(pattern));
    } else if (retract) {
      send_frame(n, make_unsubscribe(*retract));
    }
  }
}

void Broker::publish_from_broker(Message m) {
  if (m.publisher.empty()) m.publisher = name_;
  if (m.sequence == 0) m.sequence = ++sequence_;
  if (m.timestamp == 0) m.timestamp = backend_.now();
  counters_.published.inc();
  const TopicPath path(m.topic);
  const Encoded enc{m, transport::share_payload(encode_publish_frame(m))};
  route(FrameView::parse(*enc.wire), transport::kInvalidNode, path,
        ConstrainedTopic::parse(path), &enc);
}

void Broker::add_client_unreachable_listener(
    ClientUnreachableHandler handler) {
  if (handler) unreachable_listeners_.push_back(std::move(handler));
}

std::string Broker::client_identity(NodeId id) const {
  const auto it = clients_.find(id);
  return it == clients_.end() ? std::string() : it->second;
}

bool Broker::is_blacklisted(NodeId endpoint) const {
  return blacklist_.contains(endpoint);
}

void Broker::report_misbehaviour(NodeId endpoint, const std::string& why) {
  const int strikes = ++strikes_[endpoint];
  ET_LOG(kInfo) << name_ << ": misbehaviour from "
                << backend_.node_name(endpoint) << " (" << why << "), strike "
                << strikes << "/" << misbehaviour_threshold_;
  const bool blacklisting =
      strikes >= misbehaviour_threshold_ && !blacklist_.contains(endpoint);
  // Write-ahead: the strike is on disk before its consequences apply, so
  // a crash right after the disconnect cannot forget why it happened.
  persist_strike(endpoint, strikes, blacklisting);
  if (blacklisting) {
    // §5.2: terminate communications with the offender.
    blacklist_.insert(endpoint);
    counters_.disconnects.inc();
    clients_.erase(endpoint);
    local_subs_.remove_endpoint(endpoint);
    remote_subs_.remove_endpoint(endpoint);
    backend_.unlink(node_, endpoint);
    ET_LOG(kWarn) << name_ << ": terminated communications with "
                  << backend_.node_name(endpoint);
  }
}

void Broker::open_misbehaviour_store() {
  persist::DurableStore::Options so;
  so.dir = misbehaviour_dir_;
  so.fsync = misbehaviour_fsync_;
  const Status s = misbehaviour_store_.open(
      so, [this](BytesView blob) { apply_misbehaviour_snapshot(blob); },
      [this](BytesView rec) { apply_misbehaviour_record(rec); });
  if (!s.is_ok()) {
    ET_LOG(kWarn) << name_
                  << ": misbehaviour store unavailable: " << s.to_string();
  }
}

void Broker::persist_strike(NodeId endpoint, int strikes, bool blacklisted) {
  if (!misbehaviour_durable()) return;
  Writer w;
  w.u32(endpoint);
  w.str(client_identity(endpoint));  // audit trail; "" for peer brokers
  w.u32(static_cast<std::uint32_t>(strikes));
  w.boolean(blacklisted || blacklist_.contains(endpoint));
  (void)misbehaviour_store_.append(std::move(w).take());
}

void Broker::apply_misbehaviour_record(BytesView rec) {
  try {
    Reader r(rec);
    const NodeId endpoint = r.u32();
    (void)r.str();  // entity id: audit metadata only
    const int strikes = static_cast<int>(r.u32());
    const bool blacklisted = r.boolean();
    r.expect_done();
    // Last-writer-wins per endpoint: each record carries the running
    // total, so replay over a snapshot is idempotent.
    strikes_[endpoint] = std::max(strikes_[endpoint], strikes);
    if (blacklisted) blacklist_.insert(endpoint);
  } catch (const SerializeError& e) {
    ET_LOG(kWarn) << name_
                  << ": undecodable misbehaviour record dropped: "
                  << e.what();
  }
}

void Broker::apply_misbehaviour_snapshot(BytesView blob) {
  try {
    Reader r(blob);
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const NodeId endpoint = r.u32();
      const int strikes = static_cast<int>(r.u32());
      const bool blacklisted = r.boolean();
      strikes_[endpoint] = std::max(strikes_[endpoint], strikes);
      if (blacklisted) blacklist_.insert(endpoint);
    }
    r.expect_done();
  } catch (const SerializeError& e) {
    ET_LOG(kWarn) << name_
                  << ": undecodable misbehaviour snapshot ignored: "
                  << e.what();
  }
}

Bytes Broker::misbehaviour_blob() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(strikes_.size()));
  for (const auto& [endpoint, strikes] : strikes_) {
    w.u32(endpoint);
    w.u32(static_cast<std::uint32_t>(strikes));
    w.boolean(blacklist_.contains(endpoint));
  }
  return std::move(w).take();
}

Status Broker::checkpoint_misbehaviour() {
  if (!misbehaviour_durable()) {
    return internal_error("checkpoint on non-durable broker");
  }
  return misbehaviour_store_.checkpoint(misbehaviour_blob());
}

void Broker::restart_misbehaviour_state(bool with_state) {
  strikes_.clear();
  blacklist_.clear();
  if (!misbehaviour_durable()) return;
  if (!with_state) {
    (void)misbehaviour_store_.reset();
    return;
  }
  open_misbehaviour_store();
}

void Broker::send_frame(NodeId to, const Frame& f) {
  note_send_status(to, backend_.send(node_, to, f.serialize()));
}

void Broker::send_wire(NodeId to, transport::SharedPayload wire) {
  note_send_status(to, backend_.send(node_, to, std::move(wire)));
}

void Broker::note_send_status(NodeId to, const Status& s) {
  if (s.is_ok()) return;
  ET_LOG(kDebug) << name_ << ": send to " << backend_.node_name(to)
                 << " failed: " << s.to_string();
  // A vanished link to a directly connected client means it disconnected:
  // drop its state and notify the tracing layer exactly once.
  if (s.code() == Code::kUnavailable) {
    const auto it = clients_.find(to);
    if (it != clients_.end()) {
      const std::string entity_id = it->second;
      clients_.erase(it);
      retract_unwanted(local_subs_.remove_endpoint(to));
      for (const auto& listener : unreachable_listeners_) {
        listener(entity_id);
      }
    }
  }
}

void Broker::on_packet(NodeId from, BytesView payload) {
  if (blacklist_.contains(from)) return;
  // Borrowed decode: every frame field is a view into `payload`, valid for
  // the duration of this call. Paths that outlive it materialize.
  FrameView f;
  try {
    f = FrameView::parse(payload);
  } catch (const SerializeError& e) {
    report_misbehaviour(from, std::string("malformed frame: ") + e.what());
    return;
  }
  switch (f.type) {
    case FrameType::kConnect:
      handle_connect(from, f);
      break;
    case FrameType::kSubscribe:
      handle_subscribe(from, f);
      break;
    case FrameType::kUnsubscribe:
      handle_unsubscribe(from, f);
      break;
    case FrameType::kPublish:
      handle_publish(from, f);
      break;
    case FrameType::kKeepalive:
    case FrameType::kPeerExchange:
      // Link-maintenance traffic: owned by the overlay-repair service,
      // never routed. Ignored when no service is installed.
      if (link_handler_) link_handler_(from, f);
      break;
    default:
      break;  // acks/errors are for clients; ignore here
  }
}

void Broker::handle_connect(NodeId from, const FrameView& f) {
  if (f.text.empty()) {
    send_frame(from, make_error(1, "connect requires an entity id",
                                f.request_id));
    report_misbehaviour(from, "connect without entity id");
    return;
  }
  clients_[from] = std::string(f.text);
  Frame ack;
  ack.type = FrameType::kConnectAck;
  ack.text = name_;
  ack.request_id = f.request_id;
  send_frame(from, ack);
}

void Broker::handle_subscribe(NodeId from, const FrameView& f) {
  // Compile the pattern once; every check below reuses the split form.
  const TopicPath compiled(f.text);
  const std::string pattern = compiled.canonical();
  if (pattern.empty()) {
    send_frame(from, make_error(1, "empty pattern", f.request_id));
    return;
  }

  const bool from_broker = is_neighbour(from);
  if (from_broker) {
    // Neighbour interest: record and keep propagating (split horizon).
    if (remote_subs_.add(compiled, from) && !local_subs_.any_match(compiled)) {
      propagate_subscribe(compiled, pattern, from);
    }
    return;
  }

  // Client subscribe: enforce the constrained-topic grammar at the edge.
  const std::string actor = client_identity(from);
  const Status allowed = check_constrained_action(
      pattern, TopicAction::kSubscribe, /*actor_is_broker=*/false, actor);
  if (!allowed.is_ok()) {
    counters_.discarded.inc();
    send_frame(from, make_error(2, allowed.to_string(), f.request_id));
    report_misbehaviour(from, "unauthorized subscribe to " + pattern);
    return;
  }

  bool propagate = local_subs_.add(compiled, from);
  // Suppress distribution: the constrainer's subscriptions stay local.
  if (const auto ct = ConstrainedTopic::parse(pattern);
      ct && ct->distribution == Distribution::kSuppress &&
      ct->allowed == AllowedActions::kSubscribeOnly &&
      !ct->constrainer_is_broker() && ct->constrainer == actor) {
    propagate = false;
  }
  if (propagate) {
    propagate_subscribe(compiled, pattern, transport::kInvalidNode);
  }
  Frame ack;
  ack.type = FrameType::kSubscribeAck;
  ack.text = pattern;
  ack.request_id = f.request_id;
  send_frame(from, ack);
}

void Broker::handle_unsubscribe(NodeId from, const FrameView& f) {
  const TopicPath compiled(f.text);
  const std::string pattern = compiled.canonical();
  const bool emptied = is_neighbour(from)
                           ? remote_subs_.remove(compiled, from)
                           : local_subs_.remove(compiled, from);
  if (emptied && !local_subs_.any_match(compiled) &&
      !remote_subs_.any_match(compiled)) {
    propagate_unsubscribe(compiled, pattern, from);
  }
}

void Broker::handle_publish(NodeId from, const FrameView& f) {
  if (!f.message) {
    report_misbehaviour(from, "publish frame without message");
    return;
  }
  const MessageView& mv = *f.message;
  // Split and grammar-parse the topic exactly once; every downstream step
  // (edge enforcement, suppress check, routing) reuses the parsed forms.
  const TopicPath path(mv.topic);
  const std::optional<ConstrainedTopic> ct = ConstrainedTopic::parse(path);

  const bool from_broker = is_neighbour(from);
  if (!from_broker) {
    // Edge enforcement: may this client publish here?
    const std::string actor = client_identity(from);
    if (actor.empty()) {
      counters_.discarded.inc();
      report_misbehaviour(from, "publish before connect");
      return;
    }
    const Status allowed = check_constrained_action(
        ct, TopicAction::kPublish, /*actor_is_broker=*/false, actor);
    if (!allowed.is_ok()) {
      counters_.discarded.inc();
      send_frame(from, make_error(2, allowed.to_string(), 0));
      report_misbehaviour(from,
                          "unauthorized publish to " + std::string(mv.topic));
      return;
    }
  }

  // Tracing-layer filter (token verification), inline on the view.
  // Applies to all inbound messages; broker-originated traces go through
  // publish_from_broker and are the local broker's own responsibility.
  if (filter_) {
    const Status verdict = filter_(*this, mv, from);
    if (!verdict.is_ok()) {
      counters_.discarded.inc();
      report_misbehaviour(from,
                          "filter rejected message: " + verdict.message());
      return;
    }
  }

  counters_.published.inc();

  // Non-canonical topic spellings must be rewritten so subscribers and
  // downstream hops see the canonical form — the wire bytes can't be
  // forwarded verbatim. Rare: one owning copy, encoded once.
  if (!topic_is_canonical(path, mv.topic)) {
    counters_.materialized.inc();
    Message m = mv.materialize();
    m.topic = path.canonical();
    const Encoded enc{m, transport::share_payload(encode_publish_frame(m))};
    route(FrameView::parse(*enc.wire), from, path, ct, &enc);
    return;
  }
  route(f, from, path, ct);
}

void Broker::route(const FrameView& f, NodeId arrived_from,
                   const TopicPath& path,
                   const std::optional<ConstrainedTopic>& ct,
                   const Encoded* encoded) {
  const MatchPlan plan = compute_match(path, ct, is_neighbour(arrived_from));
  execute_send(f, arrived_from, plan, encoded);
}

Broker::MatchPlan Broker::compute_match(
    const TopicPath& path, const std::optional<ConstrainedTopic>& ct,
    bool from_neighbour) const {
  MatchPlan plan;
  plan.services = local_services_.load(std::memory_order_acquire);
  // Exact services can only sit in the topic's bucket; wildcard services
  // are all candidates. Local-only services ignore neighbours' frames.
  const auto wanted = [from_neighbour](const LocalService& svc) {
    return !(from_neighbour && svc.local_only);
  };
  auto& matched = plan.matched_services;
  const auto& bucket =
      *plan.services->exact[topic_hash(path) % ServiceIndex::kBuckets];
  for (const auto& svc : bucket) {
    if (svc->compiled == path && wanted(*svc)) matched.push_back(svc.get());
  }
  const std::size_t exact_matches = matched.size();
  for (const auto& svc : *plan.services->wild) {
    if (wanted(*svc) && topic_matches(svc->compiled, path)) {
      matched.push_back(svc.get());
    }
  }
  // Both runs are in registration order; merging by id keeps it overall.
  std::inplace_merge(matched.begin(), matched.begin() + exact_matches,
                     matched.end(),
                     [](const LocalService* a, const LocalService* b) {
                       return a->id < b->id;
                     });
  plan.local_targets = local_subs_.match(path);
  // Suppress distribution: a constrainer's Publish-Only publications stay
  // on this broker — don't even look at neighbour interest.
  const bool suppress = ct && ct->distribution == Distribution::kSuppress &&
                        ct->allowed == AllowedActions::kPublishOnly;
  if (!suppress) plan.remote_targets = remote_subs_.match(path);
  return plan;
}

void Broker::execute_send(const FrameView& f, NodeId arrived_from,
                          const MatchPlan& plan, const Encoded* encoded) {
  // Local services (tracing broker, etc.) take an owning Message: the
  // broker's own when it built the frame, else one copy of the inbound
  // view, paid only when a service matched. Handlers may register further
  // services while running (a trace registration subscribes the session
  // topics); the plan's snapshot pins the list iterated here, so newly
  // appended services never see the current message.
  if (!plan.matched_services.empty()) {
    std::optional<Message> copy;
    if (encoded == nullptr) {
      counters_.materialized.inc();
      copy = f.message->materialize();
    }
    const Message& m = encoded != nullptr ? encoded->message : *copy;
    for (const LocalService* svc : plan.matched_services) svc->handler(m);
  }

  // One buffer shared by every destination: the broker's own encoding, or
  // one copy of the received wire bytes — zero owning Message copies and
  // zero re-serializations on a forwarding hop.
  transport::SharedPayload wire = encoded != nullptr ? encoded->wire : nullptr;
  const bool view_forward = encoded == nullptr;
  const auto shared_wire = [&]() -> const transport::SharedPayload& {
    if (!wire) {
      wire = std::make_shared<const Bytes>(f.wire.begin(), f.wire.end());
    }
    return wire;
  };

  // Local clients.
  for (const NodeId client : plan.local_targets) {
    if (client == node_ || client == arrived_from) continue;
    counters_.delivered_local.inc();
    if (view_forward) counters_.view_forwards.inc();
    send_wire(client, shared_wire());
  }
  // Neighbour brokers with matching interest (split horizon). Empty when
  // the match stage determined suppress-distribution applies.
  for (const NodeId n : plan.remote_targets) {
    if (n == arrived_from) continue;
    counters_.forwarded.inc();
    if (view_forward) counters_.view_forwards.inc();
    send_wire(n, shared_wire());
  }
}

}  // namespace et::pubsub
