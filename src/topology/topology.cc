#include "topology/topology.h"

#include <algorithm>

#include "common/require.h"

namespace dct {

void TopologyConfig::validate() const {
  require(racks >= 1, "TopologyConfig: need at least one rack");
  require(servers_per_rack >= 1, "TopologyConfig: need at least one server per rack");
  require(racks_per_vlan >= 1, "TopologyConfig: racks_per_vlan must be >= 1");
  require(agg_switches >= 1, "TopologyConfig: need at least one aggregation switch");
  require(external_servers >= 0, "TopologyConfig: external_servers must be >= 0");
  require(server_link_capacity > 0, "TopologyConfig: server link capacity must be > 0");
  require(tor_uplink_capacity > 0, "TopologyConfig: ToR uplink capacity must be > 0");
  require(agg_uplink_capacity > 0, "TopologyConfig: agg uplink capacity must be > 0");
  require(!redundant_tor_uplinks || agg_switches >= 2,
          "TopologyConfig: redundant ToR uplinks need at least two aggregation switches");
}

std::string_view to_string(LinkKind kind) {
  switch (kind) {
    case LinkKind::kServerUp: return "server_up";
    case LinkKind::kServerDown: return "server_down";
    case LinkKind::kTorUp: return "tor_up";
    case LinkKind::kTorDown: return "tor_down";
    case LinkKind::kAggUp: return "agg_up";
    case LinkKind::kAggDown: return "agg_down";
    case LinkKind::kExternalUp: return "external_up";
    case LinkKind::kExternalDown: return "external_down";
  }
  return "unknown";
}

bool is_inter_switch(LinkKind kind) noexcept {
  switch (kind) {
    case LinkKind::kTorUp:
    case LinkKind::kTorDown:
    case LinkKind::kAggUp:
    case LinkKind::kAggDown:
      return true;
    default:
      return false;
  }
}

// Each external node's link to and from the core router.
constexpr BytesPerSec kExternalLinkCapacity = gbps(1.0);
static_assert(kExternalLinkCapacity > 0);

Topology::Topology(TopologyConfig config) : config_(config) {
  config_.validate();
  const auto n_servers = static_cast<std::size_t>(config_.total_servers());
  const auto n_racks = static_cast<std::size_t>(config_.racks);
  const auto n_aggs = static_cast<std::size_t>(config_.agg_switches);

  server_up_.resize(n_servers);
  server_down_.resize(n_servers);
  tor_up_.resize(n_racks);
  tor_down_.resize(n_racks);
  agg_up_.resize(n_aggs);
  agg_down_.resize(n_aggs);
  // Two directed links per server, per ToR uplink and per aggregation
  // switch; a redundant topology has a second uplink per ToR.
  const std::size_t n_tor_uplinks = n_racks * (has_redundant_uplinks() ? 2 : 1);
  links_.reserve(2 * (n_servers + n_tor_uplinks + n_aggs));
  inter_switch_links_.reserve(2 * (n_tor_uplinks + n_aggs));

  auto add_link = [&](LinkKind kind, BytesPerSec cap, std::int32_t entity) {
    links_.push_back(Link{kind, cap, entity});
    const LinkId id{static_cast<std::int32_t>(links_.size() - 1)};
    if (is_inter_switch(kind)) inter_switch_links_.push_back(id);
    return id;
  };

  // Internal servers <-> their ToR.
  for (std::int32_t s = 0; s < config_.internal_servers(); ++s) {
    server_up_[static_cast<std::size_t>(s)] =
        add_link(LinkKind::kServerUp, config_.server_link_capacity, s);
    server_down_[static_cast<std::size_t>(s)] =
        add_link(LinkKind::kServerDown, config_.server_link_capacity, s);
  }
  // External servers <-> core router (entity is the server id).
  for (std::int32_t s = config_.internal_servers(); s < config_.total_servers(); ++s) {
    server_up_[static_cast<std::size_t>(s)] =
        add_link(LinkKind::kExternalUp, kExternalLinkCapacity, s);
    server_down_[static_cast<std::size_t>(s)] =
        add_link(LinkKind::kExternalDown, kExternalLinkCapacity, s);
  }
  // ToR <-> aggregation.
  for (std::int32_t r = 0; r < config_.racks; ++r) {
    tor_up_[static_cast<std::size_t>(r)] =
        add_link(LinkKind::kTorUp, config_.tor_uplink_capacity, r);
    tor_down_[static_cast<std::size_t>(r)] =
        add_link(LinkKind::kTorDown, config_.tor_uplink_capacity, r);
  }
  // Aggregation <-> core router.
  for (std::int32_t a = 0; a < config_.agg_switches; ++a) {
    agg_up_[static_cast<std::size_t>(a)] =
        add_link(LinkKind::kAggUp, config_.agg_uplink_capacity, a);
    agg_down_[static_cast<std::size_t>(a)] =
        add_link(LinkKind::kAggDown, config_.agg_uplink_capacity, a);
  }
  // Secondary ToR <-> backup-agg links, appended *after* every primary link
  // so enabling redundancy never renumbers the primary link ids.
  if (has_redundant_uplinks()) {
    tor_up2_.resize(n_racks);
    tor_down2_.resize(n_racks);
    for (std::int32_t r = 0; r < config_.racks; ++r) {
      tor_up2_[static_cast<std::size_t>(r)] =
          add_link(LinkKind::kTorUp, config_.tor_uplink_capacity, r);
      tor_down2_[static_cast<std::size_t>(r)] =
          add_link(LinkKind::kTorDown, config_.tor_uplink_capacity, r);
    }
  }
}

std::int32_t Topology::server_count() const noexcept { return config_.total_servers(); }
std::int32_t Topology::internal_server_count() const noexcept {
  return config_.internal_servers();
}
std::int32_t Topology::rack_count() const noexcept { return config_.racks; }
std::int32_t Topology::vlan_count() const noexcept {
  return (config_.racks + config_.racks_per_vlan - 1) / config_.racks_per_vlan;
}
std::int32_t Topology::agg_count() const noexcept { return config_.agg_switches; }
std::int32_t Topology::link_count() const noexcept {
  return static_cast<std::int32_t>(links_.size());
}

bool Topology::is_external(ServerId s) const {
  require(s.valid() && s.value() < server_count(), "is_external: server out of range");
  return s.value() >= config_.internal_servers();
}

RackId Topology::rack_of(ServerId s) const {
  require(s.valid() && s.value() < server_count(), "rack_of: server out of range");
  if (is_external(s)) return RackId{};
  return RackId{s.value() / config_.servers_per_rack};
}

VlanId Topology::vlan_of(RackId r) const {
  require(r.valid() && r.value() < rack_count(), "vlan_of: rack out of range");
  return VlanId{r.value() / config_.racks_per_vlan};
}

std::int32_t Topology::agg_of(RackId r) const {
  require(r.valid() && r.value() < rack_count(), "agg_of: rack out of range");
  // VLAN-aligned assignment: whole VLANs land on the same aggregation
  // switch, mirroring the paper's note that placement prefers same-VLAN
  // before crossing higher tiers.
  return vlan_of(r).value() % config_.agg_switches;
}

std::int32_t Topology::backup_agg_of(RackId r) const {
  return (agg_of(r) + 1) % config_.agg_switches;
}

bool Topology::same_rack(ServerId a, ServerId b) const {
  if (is_external(a) || is_external(b)) return false;
  return rack_of(a) == rack_of(b);
}

bool Topology::same_vlan(ServerId a, ServerId b) const {
  if (is_external(a) || is_external(b)) return false;
  return vlan_of(rack_of(a)) == vlan_of(rack_of(b));
}

std::vector<ServerId> Topology::servers_in_rack(RackId r) const {
  require(r.valid() && r.value() < rack_count(), "servers_in_rack: rack out of range");
  std::vector<ServerId> out;
  out.reserve(static_cast<std::size_t>(config_.servers_per_rack));
  const std::int32_t first = r.value() * config_.servers_per_rack;
  for (std::int32_t s = first; s < first + config_.servers_per_rack; ++s) {
    out.push_back(ServerId{s});
  }
  return out;
}

const Link& Topology::link(LinkId l) const {
  require(l.valid() && l.value() < link_count(), "link: id out of range");
  return links_[static_cast<std::size_t>(l.value())];
}

void Topology::route_into(ServerId src, ServerId dst, std::vector<LinkId>& out) const {
  out.clear();
  require(src.valid() && src.value() < server_count(), "route: src out of range");
  require(dst.valid() && dst.value() < server_count(), "route: dst out of range");
  if (src == dst) return;  // loopback: never touches the network

  const bool src_ext = is_external(src);
  const bool dst_ext = is_external(dst);

  out.push_back(server_up_[static_cast<std::size_t>(src.value())]);
  if (!src_ext && !dst_ext && same_rack(src, dst)) {
    out.push_back(server_down_[static_cast<std::size_t>(dst.value())]);
    return;
  }

  const std::int32_t src_agg = src_ext ? -1 : agg_of(rack_of(src));
  const std::int32_t dst_agg = dst_ext ? -1 : agg_of(rack_of(dst));

  if (!src_ext) out.push_back(tor_up_[static_cast<std::size_t>(rack_of(src).value())]);
  if (src_agg != dst_agg || src_ext || dst_ext) {
    // Through the core router.
    if (!src_ext) out.push_back(agg_up_[static_cast<std::size_t>(src_agg)]);
    if (!dst_ext) out.push_back(agg_down_[static_cast<std::size_t>(dst_agg)]);
  }
  if (!dst_ext) out.push_back(tor_down_[static_cast<std::size_t>(rack_of(dst).value())]);
  out.push_back(server_down_[static_cast<std::size_t>(dst.value())]);
}

std::vector<LinkId> Topology::route(ServerId src, ServerId dst) const {
  std::vector<LinkId> out;
  route_into(src, dst, out);
  return out;
}

LinkId Topology::server_up_link(ServerId s) const {
  require(s.valid() && s.value() < server_count(), "server_up_link: out of range");
  return server_up_[static_cast<std::size_t>(s.value())];
}
LinkId Topology::server_down_link(ServerId s) const {
  require(s.valid() && s.value() < server_count(), "server_down_link: out of range");
  return server_down_[static_cast<std::size_t>(s.value())];
}
LinkId Topology::tor_up_link(RackId r) const {
  require(r.valid() && r.value() < rack_count(), "tor_up_link: out of range");
  return tor_up_[static_cast<std::size_t>(r.value())];
}
LinkId Topology::tor_down_link(RackId r) const {
  require(r.valid() && r.value() < rack_count(), "tor_down_link: out of range");
  return tor_down_[static_cast<std::size_t>(r.value())];
}
LinkId Topology::tor_up2_link(RackId r) const {
  require(has_redundant_uplinks(), "tor_up2_link: topology has no redundant uplinks");
  require(r.valid() && r.value() < rack_count(), "tor_up2_link: out of range");
  return tor_up2_[static_cast<std::size_t>(r.value())];
}
LinkId Topology::tor_down2_link(RackId r) const {
  require(has_redundant_uplinks(), "tor_down2_link: topology has no redundant uplinks");
  require(r.valid() && r.value() < rack_count(), "tor_down2_link: out of range");
  return tor_down2_[static_cast<std::size_t>(r.value())];
}
LinkId Topology::agg_up_link(std::int32_t agg) const {
  require(agg >= 0 && agg < agg_count(), "agg_up_link: out of range");
  return agg_up_[static_cast<std::size_t>(agg)];
}
LinkId Topology::agg_down_link(std::int32_t agg) const {
  require(agg >= 0 && agg < agg_count(), "agg_down_link: out of range");
  return agg_down_[static_cast<std::size_t>(agg)];
}

BytesPerSec Topology::bisection_bandwidth() const {
  // The narrowest full-duplex cut between halves of the cluster crosses the
  // aggregation tier: min(total ToR uplink, total agg uplink) per direction.
  const BytesPerSec tor_total =
      config_.tor_uplink_capacity * static_cast<double>(config_.racks);
  const BytesPerSec agg_total =
      config_.agg_uplink_capacity * static_cast<double>(config_.agg_switches);
  return std::min(tor_total, agg_total);
}

}  // namespace dct
