// Datacenter cluster topology (the paper's Figure 1).
//
// The measured cluster is a classic two-tier tree: tens of servers per rack
// behind an inexpensive top-of-rack (ToR) switch, ToRs uplinked to a small
// number of high-degree aggregation switches, aggregation switches joined by
// a core IP router.  VLANs span small groups of racks to keep broadcast
// domains small.  A handful of *external* servers hang off the core router;
// they upload new data into the cluster and pull results out (the sparse
// far-right / far-top band of the paper's Figure 2 heatmap).
//
// `Topology` is an immutable value: it owns the node/link tables and answers
// routing and locality queries.  All higher layers (flow simulator, workload
// placement, analysis, tomography) consume it by const reference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace dct {

/// Parameters describing a cluster.  Defaults give a scaled-down analogue of
/// the paper's ~1500-server cluster (see DESIGN.md §5 on scale substitution).
struct TopologyConfig {
  std::int32_t racks = 25;
  std::int32_t servers_per_rack = 20;   ///< paper: "tens of servers per rack"
  std::int32_t racks_per_vlan = 5;      ///< VLANs span small numbers of racks
  std::int32_t agg_switches = 2;        ///< high-degree aggregation switches
  std::int32_t external_servers = 10;   ///< ingest/egress nodes off the core

  /// Dual-homes every ToR: besides its primary aggregation switch, each rack
  /// gets a secondary uplink/downlink pair to a backup aggregation switch
  /// ((agg_of + 1) mod agg_switches).  The secondary links carry no traffic
  /// while the primary path is healthy — they exist so failure-aware routing
  /// (NetworkState) can exploit the paper's VLAN/agg redundancy when a ToR
  /// uplink flaps or an aggregation switch crashes.  Requires agg_switches
  /// >= 2.  Default off: the seed topology is unchanged.
  bool redundant_tor_uplinks = false;

  /// Defaults give the oversubscribed tree typical of 2009-era mining
  /// clusters: 20 x 1 Gbps servers behind a 2 Gbps ToR uplink (10:1), and
  /// VLAN-grouped ToRs sharing 10 Gbps aggregation uplinks.
  BytesPerSec server_link_capacity = gbps(1.0);   ///< server NIC (paper: 1 Gbps)
  BytesPerSec tor_uplink_capacity = gbps(1.5);    ///< ToR -> aggregation (13:1 oversub)
  BytesPerSec agg_uplink_capacity = gbps(6.0);    ///< aggregation -> core

  /// Validates ranges; throws dct::Error on nonsense (non-positive counts
  /// or capacities).
  void validate() const;

  [[nodiscard]] std::int32_t internal_servers() const noexcept {
    return racks * servers_per_rack;
  }
  [[nodiscard]] std::int32_t total_servers() const noexcept {
    return internal_servers() + external_servers;
  }
};

/// Classification of a directed link; analysis code groups measurements by
/// kind (the paper's congestion results are about *inter-switch* links).
enum class LinkKind : std::uint8_t {
  kServerUp,    ///< server -> ToR
  kServerDown,  ///< ToR -> server
  kTorUp,       ///< ToR -> aggregation
  kTorDown,     ///< aggregation -> ToR
  kAggUp,       ///< aggregation -> core router
  kAggDown,     ///< core router -> aggregation
  kExternalUp,  ///< external server -> core router
  kExternalDown ///< core router -> external server
};

/// Returns a short human-readable name ("tor_up", ...) for a link kind.
[[nodiscard]] std::string_view to_string(LinkKind kind);

/// True for links between switches (ToR<->agg, agg<->core); these are the
/// links whose utilization §4.2 studies.
[[nodiscard]] bool is_inter_switch(LinkKind kind) noexcept;

/// One directed link with a fixed capacity.
struct Link {
  LinkKind kind = LinkKind::kServerUp;
  BytesPerSec capacity = 0;
  /// Owning entity for reporting: the server for server/external links, the
  /// ToR's rack for ToR links, the aggregation switch index for agg links.
  std::int32_t entity = -1;
};

/// Immutable cluster topology with O(path-length) routing.
class Topology {
 public:
  explicit Topology(TopologyConfig config);

  [[nodiscard]] const TopologyConfig& config() const noexcept { return config_; }

  // --- Entity counts -------------------------------------------------------
  /// Total servers including external nodes; ids are [0, server_count).
  [[nodiscard]] std::int32_t server_count() const noexcept;
  /// Servers inside the cluster (racked); ids are [0, internal_server_count).
  [[nodiscard]] std::int32_t internal_server_count() const noexcept;
  [[nodiscard]] std::int32_t rack_count() const noexcept;
  [[nodiscard]] std::int32_t vlan_count() const noexcept;
  [[nodiscard]] std::int32_t agg_count() const noexcept;
  [[nodiscard]] std::int32_t link_count() const noexcept;

  // --- Locality ------------------------------------------------------------
  /// True for ingest/egress nodes attached to the core router.
  [[nodiscard]] bool is_external(ServerId s) const;
  /// Rack of an internal server; invalid RackId for external servers.
  [[nodiscard]] RackId rack_of(ServerId s) const;
  [[nodiscard]] VlanId vlan_of(RackId r) const;
  /// Aggregation switch serving a rack's ToR.
  [[nodiscard]] std::int32_t agg_of(RackId r) const;
  /// Backup aggregation switch of a rack's ToR (only meaningful when
  /// `has_redundant_uplinks()`); always differs from `agg_of(r)`.
  [[nodiscard]] std::int32_t backup_agg_of(RackId r) const;
  [[nodiscard]] bool same_rack(ServerId a, ServerId b) const;
  [[nodiscard]] bool same_vlan(ServerId a, ServerId b) const;
  /// All internal servers in a rack, in id order.
  [[nodiscard]] std::vector<ServerId> servers_in_rack(RackId r) const;

  // --- Links & routing ------------------------------------------------------
  [[nodiscard]] const Link& link(LinkId l) const;
  /// Ids of all links between switches (the paper's congestion scope).
  [[nodiscard]] const std::vector<LinkId>& inter_switch_links() const noexcept {
    return inter_switch_links_;
  }

  /// The directed sequence of links a flow from `src` to `dst` traverses.
  /// Same server => empty path (loopback, never touches the network).
  /// Same rack   => server-up, server-down (through the ToR only).
  /// Same agg    => adds the two ToR<->agg hops.
  /// Otherwise   => full path through the core router.
  [[nodiscard]] std::vector<LinkId> route(ServerId src, ServerId dst) const;

  /// Appends the route to `out` without allocating a fresh vector; the hot
  /// path of the flow simulator.  `out` is cleared first.
  void route_into(ServerId src, ServerId dst, std::vector<LinkId>& out) const;

  // --- Named link accessors (used to build routing matrices) ----------------
  [[nodiscard]] LinkId server_up_link(ServerId s) const;
  [[nodiscard]] LinkId server_down_link(ServerId s) const;
  [[nodiscard]] LinkId tor_up_link(RackId r) const;
  [[nodiscard]] LinkId tor_down_link(RackId r) const;
  [[nodiscard]] LinkId agg_up_link(std::int32_t agg) const;
  [[nodiscard]] LinkId agg_down_link(std::int32_t agg) const;

  /// True when the topology was built with redundant ToR uplinks.
  [[nodiscard]] bool has_redundant_uplinks() const noexcept {
    return config_.redundant_tor_uplinks && config_.agg_switches >= 2;
  }
  /// Secondary ToR -> backup-agg uplink; requires has_redundant_uplinks().
  [[nodiscard]] LinkId tor_up2_link(RackId r) const;
  /// Backup-agg -> ToR downlink; requires has_redundant_uplinks().
  [[nodiscard]] LinkId tor_down2_link(RackId r) const;

  /// Full-duplex bisection bandwidth through the aggregation tier, the
  /// normalization Fig. 10's aggregate-rate plot refers to.
  [[nodiscard]] BytesPerSec bisection_bandwidth() const;

 private:
  TopologyConfig config_;
  std::vector<Link> links_;
  std::vector<LinkId> inter_switch_links_;
  // Dense per-entity link tables; all sized at construction.
  std::vector<LinkId> server_up_;
  std::vector<LinkId> server_down_;
  std::vector<LinkId> tor_up_;
  std::vector<LinkId> tor_down_;
  std::vector<LinkId> agg_up_;
  std::vector<LinkId> agg_down_;
  std::vector<LinkId> tor_up2_;    // empty unless redundant_tor_uplinks
  std::vector<LinkId> tor_down2_;  // empty unless redundant_tor_uplinks
};

}  // namespace dct
