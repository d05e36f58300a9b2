#include "src/tracing/trace_filter.h"

#include <optional>
#include <string_view>
#include <utility>

namespace et::tracing {

namespace {

/// Is `topic` a trace publication this filter polices? Returns the parsed
/// topic when yes.
std::optional<pubsub::ConstrainedTopic> trace_publication(
    std::string_view topic) {
  auto ct = pubsub::ConstrainedTopic::parse(topic);
  if (!ct || ct->event_type != "Traces" || !ct->constrainer_is_broker() ||
      ct->allowed != pubsub::AllowedActions::kPublishOnly) {
    return std::nullopt;  // not a trace publication; other rules apply
  }
  return ct;
}

}  // namespace

pubsub::MessageFilter make_trace_filter(const TrustAnchors& anchors,
                                        transport::NetworkBackend& backend) {
  return make_trace_filter(anchors, backend, nullptr);
}

pubsub::MessageFilter make_trace_filter(
    const TrustAnchors& anchors, transport::NetworkBackend& backend,
    std::shared_ptr<TokenVerifyCache> cache,
    std::shared_ptr<internal::FilterCounters> counters) {
  return [anchors, &backend, cache = std::move(cache),
          counters = std::move(counters)](pubsub::Broker&,
                                          const pubsub::MessageView& m,
                                          transport::NodeId) -> Status {
    const auto ct = trace_publication(m.topic);
    if (!ct) {
      if (counters) counters->passthrough.inc();
      return Status::ok();
    }
    // The first suffix segment of a trace-publication topic is the
    // trace-topic UUID the token must name.
    Status verdict = verify_trace_message(
        cache.get(), anchors, backend.now(), m,
        ct->suffixes.empty() ? std::string_view{} : ct->suffixes.front());
    if (counters) {
      counters->checked.inc();
      (verdict.is_ok() ? counters->accepted : counters->rejected).inc();
    }
    return verdict;
  };
}

TraceFilterHandle install_trace_filter(pubsub::Broker::Options& options,
                                       const TrustAnchors& anchors,
                                       transport::NetworkBackend& backend,
                                       const TracingConfig& config) {
  const TracingConfig::Verification& verification = config.verification;
  std::shared_ptr<TokenVerifyCache> cache;
  if (verification.cache_capacity > 0) {
    cache = std::make_shared<TokenVerifyCache>(verification.cache_capacity,
                                               verification.cache_ttl);
  }
  auto counters = std::make_shared<internal::FilterCounters>();
  options.message_filter = make_trace_filter(anchors, backend, cache, counters);
  return {std::move(cache), std::move(counters)};
}

}  // namespace et::tracing
