#include "src/tracing/entity_host.h"

#include <algorithm>
#include <utility>

namespace et::tracing {

EntityHost::EntityHost(transport::NetworkBackend& backend,
                       crypto::Identity identity, TrustAnchors anchors,
                       TracingConfig config, std::uint64_t seed)
    : EntitySession(backend, std::move(identity), std::move(anchors), config,
                    seed, /*batch=*/true) {}

void EntityHost::register_entities(
    discovery::DiscoveryRestrictions restrictions,
    std::vector<std::string> entity_ids, ReadyCallback on_ready) {
  start(std::move(restrictions), std::move(entity_ids), std::move(on_ready));
}

void EntityHost::set_responsive(const std::string& entity_id,
                                bool responsive) {
  backend_.post(client_.node(), [this, entity_id, responsive] {
    const auto it = std::find(roster_.begin(), roster_.end(), entity_id);
    if (it == roster_.end()) return;
    alive_[it - roster_.begin()] = responsive ? 1 : 0;
  });
}

}  // namespace et::tracing
