#include "span_tracer.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench_common.h"

namespace tracebench {

using et::transport::NodeId;

namespace {
/// The span the calling thread is inside (0 = none). Handlers of one
/// backend never nest across threads, so a thread-local stack suffices.
thread_local std::uint64_t t_current_span = 0;
}  // namespace

/// RAII span: opens on construction when recording, commits on exit.
class SpanTracer::Scope {
 public:
  Scope(SpanTracer& tracer, NodeId node, SpanKind kind, std::uint64_t parent,
        std::int64_t sent_ns)
      : tracer_(tracer), active_(tracer.recording()) {
    if (!active_) return;
    span_.id = ++tracer.next_id_;
    span_.parent = parent;
    span_.node = node;
    span_.kind = kind;
    span_.sent_ns = sent_ns;
    prev_ = t_current_span;
    t_current_span = span_.id;
    span_.start_ns = now_ns();
  }
  ~Scope() {
    if (!active_) return;
    span_.end_ns = now_ns();
    t_current_span = prev_;
    tracer_.commit(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanTracer& tracer_;
  bool active_;
  Span span_;
  std::uint64_t prev_ = 0;
};

SpanTracer::SpanTracer(et::transport::NetworkBackend& inner) : inner_(inner) {
  // Share the inner backend's fault plan (non-owning alias): anything a
  // component arms through this decorator must reach the real backend.
  faults_ = std::shared_ptr<et::transport::FaultInjector>(
      std::shared_ptr<et::transport::FaultInjector>(), &inner.faults());
}

et::pubsub::MessageFilter SpanTracer::wrap_filter(
    et::pubsub::MessageFilter filter) {
  return [this, filter = std::move(filter)](et::pubsub::Broker& self,
                                            const et::pubsub::MessageView& m,
                                            NodeId from) {
    Scope scope(*this, self.node(), SpanKind::kFilter, t_current_span, -1);
    return filter(self, m, from);
  };
}

std::vector<Span> SpanTracer::take_spans() {
  std::lock_guard lock(mu_);
  return std::exchange(spans_, {});
}

std::vector<std::string> SpanTracer::node_names() const {
  std::lock_guard lock(mu_);
  return names_;
}

void SpanTracer::commit(const Span& span) {
  std::lock_guard lock(mu_);
  spans_.push_back(span);
}

NodeId SpanTracer::add_node(std::string name,
                            et::transport::PacketHandler handler) {
  // The wrapper learns its own id only after the inner add_node returns;
  // no packet can reach the node before then.
  auto self = std::make_shared<std::atomic<NodeId>>(et::transport::kInvalidNode);
  auto inner_handler =
      std::make_shared<et::transport::PacketHandler>(std::move(handler));
  const std::string label = name;
  const NodeId id = inner_.add_node(
      std::move(name),
      [this, self, inner_handler](NodeId from, et::BytesView payload) {
        const NodeId to = self->load();
        Link link;
        {
          std::lock_guard lock(mu_);
          auto it = links_.find(pair_key(from, to));
          if (it != links_.end() && !it->second.empty()) {
            link = it->second.front();
            it->second.pop_front();
          }
        }
        Scope scope(*this, to, SpanKind::kPacket, link.parent, link.sent_ns);
        (*inner_handler)(from, payload);
      });
  self->store(id);
  std::lock_guard lock(mu_);
  if (names_.size() <= id) names_.resize(id + 1);
  names_[id] = label;
  return id;
}

void SpanTracer::link(NodeId a, NodeId b,
                      const et::transport::LinkParams& params) {
  inner_.link(a, b, params);
}

void SpanTracer::unlink(NodeId a, NodeId b) { inner_.unlink(a, b); }

void SpanTracer::detach(NodeId node) { inner_.detach(node); }

et::Status SpanTracer::send(NodeId from, NodeId to,
                            et::transport::SharedPayload payload) {
  const std::size_t size = payload ? payload->size() : 0;
  const Link link{t_current_span, now_ns()};
  // The link is queued under the same lock as the send so a handler on
  // another thread cannot run before its link exists.
  std::lock_guard lock(mu_);
  et::Status s = inner_.send(from, to, std::move(payload));
  if (s.is_ok()) {
    links_[pair_key(from, to)].push_back(link);
    if (recording()) {
      frames_.fetch_add(1, std::memory_order_relaxed);
      bytes_.fetch_add(size, std::memory_order_relaxed);
    }
  }
  return s;
}

void SpanTracer::post(NodeId node, et::transport::Task task) {
  const std::uint64_t parent = t_current_span;
  const std::int64_t at = recording() ? now_ns() : -1;
  inner_.post(node, [this, node, parent, at, task = std::move(task)] {
    Scope scope(*this, node, SpanKind::kTask, parent, at);
    task();
  });
}

et::transport::TimerId SpanTracer::schedule(NodeId node, et::Duration delay,
                                            et::transport::Task task) {
  const std::uint64_t parent = t_current_span;
  const std::int64_t at = recording() ? now_ns() : -1;
  return inner_.schedule(
      node, delay, [this, node, parent, at, task = std::move(task)] {
        Scope scope(*this, node, SpanKind::kTimer, parent, at);
        task();
      });
}

void SpanTracer::cancel(et::transport::TimerId id) { inner_.cancel(id); }

std::int64_t self_time_ns(
    const Span& span,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  for (auto& [a, b] : children) {
    a = std::max(a, span.start_ns);
    b = std::min(b, span.end_ns);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;  // end of the union so far
  for (const auto& [a, b] : children) {
    if (b <= a) continue;
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return (span.end_ns - span.start_ns) - covered;
}

SpanSummary summarize(const std::vector<Span>& spans, std::int64_t t0,
                      std::int64_t t1, std::size_t node_count) {
  SpanSummary out;
  out.busy_ns.assign(node_count, 0);
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  // Nested children: spans that run inside their parent's interval (a
  // filter call inside a broker's packet handler). Causal children run
  // after their parent ends and never overlap it.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      nested;
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    if (s.start_ns < p.end_ns && s.end_ns > p.start_ns) {
      nested[p.id].emplace_back(s.start_ns, s.end_ns);
    }
  }

  for (const Span& s : spans) {
    if (s.start_ns < t0 || s.start_ns >= t1) continue;
    ++out.spans;
    const auto kids = nested.find(s.id);
    const std::int64_t self =
        kids == nested.end() ? s.end_ns - s.start_ns
                             : self_time_ns(s, kids->second);
    if (s.node < node_count) out.busy_ns[s.node] += self;
    if (s.kind == SpanKind::kFilter) {
      out.filter_ns += s.end_ns - s.start_ns;
      ++out.filter_calls;
    }
    if (s.kind == SpanKind::kPacket && s.sent_ns >= 0) {
      out.packet_wait_ns += s.start_ns - s.sent_ns;
      ++out.linked_packets;
    }
  }
  return out;
}

bool write_spans(const std::filesystem::path& path,
                 const std::vector<Span>& spans,
                 const std::vector<std::string>& node_names) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    std::fprintf(f, "#node\t%zu\t%s\n", i, node_names[i].c_str());
  }
  std::fprintf(f, "#id\tparent\tnode\tkind\tstart_ns\tend_ns\tsent_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%u\t%u\t%lld\t%lld\t%lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.node,
                 static_cast<unsigned>(s.kind),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.sent_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace tracebench
