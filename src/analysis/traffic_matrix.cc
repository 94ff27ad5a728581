#include "analysis/traffic_matrix.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "analysis/analysis_obs.h"
#include "common/require.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace dct {

void SparseTm::add(std::int32_t from, std::int32_t to, double bytes) {
  require(from >= 0 && from < n_ && to >= 0 && to < n_, "SparseTm::add: out of range");
  require(bytes >= 0, "SparseTm::add: negative bytes");
  if (bytes == 0) return;
  cells_[key(from, to)] += bytes;
  total_ += bytes;
}

double SparseTm::at(std::int32_t from, std::int32_t to) const {
  require(from >= 0 && from < n_ && to >= 0 && to < n_, "SparseTm::at: out of range");
  const auto it = cells_.find(key(from, to));
  return it == cells_.end() ? 0.0 : it->second;
}

std::vector<SparseTm::Entry> SparseTm::entries() const {
  std::vector<Entry> out;
  out.reserve(cells_.size());
  for (const auto& [k, v] : cells_) {
    out.push_back({static_cast<std::int32_t>(k >> 32),
                   static_cast<std::int32_t>(k & 0xffffffffu), v});
  }
  return out;
}

double SparseTm::l1_distance(const SparseTm& a, const SparseTm& b) {
  double sum = 0;
  for (const auto& [k, v] : a.cells_) {
    const auto it = b.cells_.find(k);
    sum += std::fabs(v - (it == b.cells_.end() ? 0.0 : it->second));
  }
  for (const auto& [k, v] : b.cells_) {
    if (a.cells_.find(k) == a.cells_.end()) sum += std::fabs(v);
  }
  return sum;
}

double SparseTm::entries_for_volume(double volume_fraction) const {
  require(volume_fraction > 0 && volume_fraction <= 1,
          "entries_for_volume: fraction must be in (0,1]");
  if (cells_.empty() || total_ <= 0) return 0;
  std::vector<double> vals;
  vals.reserve(cells_.size());
  for (const auto& [k, v] : cells_) vals.push_back(v);
  std::sort(vals.begin(), vals.end(), std::greater<>());
  const double target = volume_fraction * total_;
  double acc = 0;
  std::size_t count = 0;
  for (double v : vals) {
    acc += v;
    ++count;
    if (acc >= target) break;
  }
  return static_cast<double>(count);
}

namespace {

// Maps a flow endpoint to a TM node index, or -1 to drop the flow.
std::int32_t scope_node(const Topology& topo, ServerId s, TmScope scope) {
  if (scope == TmScope::kServer) return s.value();
  if (topo.is_external(s)) return -1;
  return topo.rack_of(s).value();
}

}  // namespace

std::vector<SparseTm> build_tm_series(const ClusterTrace& trace, const Topology& topo,
                                      TimeSec window, TmScope scope) {
  require(window > 0, "build_tm_series: window must be > 0");
  // The window count is cast to size_t; an out-of-range cast is undefined.
  require(trace.duration() / window < 0x1p63,
          "build_tm_series: duration / window overflows the window count");
#if DCT_OBS_ENABLED
  obs::WallNsCounter obs_timer(detail::g_analysis_metrics.tm_build_wall_ns);
#endif
  const auto n_windows =
      static_cast<std::size_t>(std::ceil(trace.duration() / window));
  const std::int32_t n =
      scope == TmScope::kServer ? topo.server_count() : topo.rack_count();
  std::vector<SparseTm> tms(std::max<std::size_t>(n_windows, 1), SparseTm(n));

  // One pass in trace order: each flow's bytes spread over its windows.
  const TimeSec duration = trace.duration();
  for (const SocketFlowLog& f : trace.flows()) {
    const std::int32_t from = scope_node(topo, f.local, scope);
    const std::int32_t to = scope_node(topo, f.peer, scope);
    if (from < 0 || to < 0) continue;
    if (scope == TmScope::kToR && from == to) continue;  // same-rack dropped
    if (f.bytes <= 0) continue;
    const TimeSec start = std::max<TimeSec>(0.0, f.start);
    const TimeSec flow_end = std::min<TimeSec>(duration, std::max(f.end, start));
    if (flow_end <= start) {
      // Instantaneous flow: all bytes land in the containing window.
      const auto w = std::min(static_cast<std::size_t>(start / window), tms.size() - 1);
      tms[w].add(from, to, static_cast<double>(f.bytes));
      continue;
    }
    const double density = static_cast<double>(f.bytes) / (flow_end - start);
    auto w = static_cast<std::size_t>(start / window);
    for (; w < tms.size(); ++w) {
      const TimeSec w_lo = static_cast<double>(w) * window;
      const TimeSec w_hi = w_lo + window;
      if (w_lo >= flow_end) break;
      const TimeSec overlap = std::min(w_hi, flow_end) - std::max(w_lo, start);
      if (overlap > 0) tms[w].add(from, to, density * overlap);
    }
  }
  return tms;
}

double pair_observability(const ClusterTrace& trace, ServerId a, ServerId b,
                          TimeSec t0, TimeSec t1) {
  require(t1 >= t0, "pair_observability: t1 must be >= t0");
  if (trace.gaps().empty() || t1 <= t0) return 1.0;
  // A merged flow is lost iff its end time lies inside BOTH endpoints' gaps
  // (the hardened merge drops a record whose end falls in its server's gap,
  // and the flow dies only when both copies are dropped).  Survival over the
  // window is therefore one minus the joint-gap overlap fraction; the naive
  // product of per-server losses would overstate loss whenever the two
  // servers' gaps do not coincide in time.
  const auto& ia = trace.gap_intervals(a);
  const auto& ib = trace.gap_intervals(b);
  if (ia.empty() || ib.empty()) return 1.0;
  double joint = 0;
  std::size_t i = 0, j = 0;
  while (i < ia.size() && j < ib.size()) {
    const TimeSec lo = std::max({ia[i].first, ib[j].first, t0});
    const TimeSec hi = std::min({ia[i].second, ib[j].second, t1});
    if (hi > lo) joint += hi - lo;
    if (ia[i].second < ib[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return std::clamp(1.0 - joint / (t1 - t0), 0.0, 1.0);
}

std::vector<SparseTm> build_tm_series_gap_aware(const ClusterTrace& trace,
                                                const Topology& topo, TimeSec window,
                                                TmScope scope,
                                                const TmCoverageOptions& options) {
  require(window > 0, "build_tm_series_gap_aware: window must be > 0");
  require(options.reference_halo >= 0,
          "build_tm_series_gap_aware: reference_halo must be >= 0");
  require(options.count_shrinkage >= 0,
          "build_tm_series_gap_aware: count_shrinkage must be >= 0");
  if (trace.gaps().empty()) {
    // identical by construction
    return build_tm_series(trace, topo, window, scope);
  }

  // Pass 1 — naive deposits.  Every surviving flow contributes exactly as in
  // build_tm_series; the ledger below only ever adds mass on top, so cells
  // no correction touches stay bit-identical.
  std::vector<SparseTm> tms = build_tm_series(trace, topo, window, scope);

  // Index the surviving records by endpoint.  Server a's log holds exactly
  // one record per flow with endpoint a (a send or a recv copy), so these
  // buckets are what remains of each per-server ledger after the merge.
  std::vector<std::vector<const SocketFlowLog*>> by_server(
      static_cast<std::size_t>(topo.server_count()));
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.local.value() >= 0 && f.local.value() < topo.server_count()) {
      by_server[static_cast<std::size_t>(f.local.value())].push_back(&f);
    }
    if (f.peer != f.local && f.peer.value() >= 0 &&
        f.peer.value() < topo.server_count()) {
      by_server[static_cast<std::size_t>(f.peer.value())].push_back(&f);
    }
  }

  // Sum the exact lost-record counts into each server's merged coverage
  // holes.  A raw gap is a connected interval, so it lies inside exactly one
  // merged hole; the per-hole total is exact no matter how overlapping raw
  // gaps split the blame between themselves.
  const TimeSec duration = trace.duration();
  std::unordered_map<std::int32_t, std::vector<std::int64_t>> lost_by_server;
  for (const GapRecord& g : trace.gaps()) {
    if (g.records_lost <= 0) continue;
    const auto& holes = trace.gap_intervals(g.server);
    auto [it, inserted] = lost_by_server.try_emplace(g.server.value());
    if (inserted) it->second.assign(holes.size(), 0);
    const TimeSec at = std::clamp<TimeSec>(g.start, 0.0, duration);
    for (std::size_t h = 0; h < holes.size(); ++h) {
      if (at >= holes[h].first && at < holes[h].second) {
        it->second[h] += g.records_lost;
        break;
      }
    }
  }

  // Pass 2 — settle each hole's ledger.  Servers settle in ascending id
  // order (not map order): corrections for different servers can touch the
  // same cell, so a fixed deposit sequence is what keeps the corrected
  // series reproducible.
  std::vector<std::int32_t> loss_servers;
  loss_servers.reserve(lost_by_server.size());
  for (const auto& [server, lost] : lost_by_server) loss_servers.push_back(server);
  std::sort(loss_servers.begin(), loss_servers.end());

  for (const std::int32_t server : loss_servers) {
    const auto& lost = lost_by_server.at(server);
    const auto& holes = trace.gap_intervals(ServerId{server});
    const auto& mine = by_server[static_cast<std::size_t>(server)];
    for (std::size_t h = 0; h < holes.size(); ++h) {
      if (lost[h] <= 0) continue;
      const TimeSec lo = holes[h].first;
      const TimeSec hi = holes[h].second;
      // Flows still ending inside the hole are the records peer recovery
      // (or a duplicated upload) saved; the remainder vanished entirely —
      // both endpoint copies ended inside gaps.
      std::int64_t saved = 0;
      for (const SocketFlowLog* f : mine) {
        if (f->end >= lo && f->end < hi) ++saved;
      }
      if (lost[h] <= saved) continue;  // ledger balances: nothing dual-lost
      const double d = static_cast<double>(lost[h] - saved);

      // References: the server's surviving records ending around the hole
      // stand in for the lost ones (size, peers, direction, duration),
      // falling back to its whole record set when the neighbourhood is
      // quiet.
      std::vector<const SocketFlowLog*> refs;
      for (const SocketFlowLog* f : mine) {
        if (f->end >= lo - options.reference_halo &&
            f->end < hi + options.reference_halo) {
          refs.push_back(f);
        }
      }
      if (refs.empty()) refs = mine;
      double sum_b = 0;
      for (const SocketFlowLog* f : refs) sum_b += static_cast<double>(f->bytes);
      if (refs.empty() || sum_b <= 0) continue;

      // Price the d dual-lost flows at the references' median size (robust
      // to a server's few giant transfers), shrunk by d / (d + k) against
      // singleton-count variance; halve because each dual-lost flow sits in
      // both endpoints' ledgers.
      std::vector<double> sizes;
      sizes.reserve(refs.size());
      for (const SocketFlowLog* f : refs) {
        sizes.push_back(static_cast<double>(f->bytes));
      }
      std::nth_element(sizes.begin(),
                       sizes.begin() + static_cast<std::ptrdiff_t>(sizes.size() / 2),
                       sizes.end());
      const double ref_size = sizes[sizes.size() / 2];
      const double shrink =
          options.count_shrinkage > 0 ? d / (d + options.count_shrinkage) : 1.0;
      const double mass = 0.5 * d * ref_size * shrink;

      // A lost flow deposited bytes before its fatal end, exactly as its
      // references did: widen the deposit span backwards by the references'
      // byte-weighted mean duration.
      double mean_dur = 0;
      for (const SocketFlowLog* f : refs) {
        mean_dur += std::max<double>(f->end - f->start, 0.0) *
                    static_cast<double>(f->bytes) / sum_b;
      }
      const TimeSec span_lo = std::max<TimeSec>(0.0, lo - mean_dur);
      const TimeSec span = hi - span_lo;
      if (span <= 0) continue;
      for (const SocketFlowLog* f : refs) {
        const std::int32_t from = scope_node(topo, f->local, scope);
        const std::int32_t to = scope_node(topo, f->peer, scope);
        if (from < 0 || to < 0) continue;
        if (scope == TmScope::kToR && from == to) continue;
        const double share = mass * static_cast<double>(f->bytes) / sum_b;
        auto w = static_cast<std::size_t>(span_lo / window);
        for (; w < tms.size(); ++w) {
          const TimeSec w_lo = static_cast<double>(w) * window;
          if (w_lo >= hi) break;
          const TimeSec overlap = std::min(w_lo + window, hi) - std::max(w_lo, span_lo);
          if (overlap > 0) tms[w].add(from, to, share * overlap / span);
        }
      }
    }
  }
  return tms;
}

SparseTm build_tm(const ClusterTrace& trace, const Topology& topo, TimeSec t0,
                  TimeSec window, TmScope scope) {
  require(window > 0, "build_tm: window must be > 0");
#if DCT_OBS_ENABLED
  obs::WallNsCounter obs_timer(detail::g_analysis_metrics.tm_build_wall_ns);
#endif
  const std::int32_t n =
      scope == TmScope::kServer ? topo.server_count() : topo.rack_count();
  const TimeSec t1 = t0 + window;
  SparseTm tm(n);
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.end <= t0 || f.start >= t1 || f.bytes <= 0) continue;
    const std::int32_t from = scope_node(topo, f.local, scope);
    const std::int32_t to = scope_node(topo, f.peer, scope);
    if (from < 0 || to < 0) continue;
    if (scope == TmScope::kToR && from == to) continue;
    const TimeSec span = std::max<TimeSec>(f.end - f.start, 1e-9);
    const TimeSec overlap = std::min(f.end, t1) - std::max(f.start, t0);
    tm.add(from, to, static_cast<double>(f.bytes) * overlap / span);
  }
  return tm;
}

PairBytesStats pair_bytes_stats(const SparseTm& server_tm, const Topology& topo) {
  require(server_tm.size() == topo.server_count(),
          "pair_bytes_stats: TM must be server-scoped");
  PairBytesStats out;
  std::size_t nonzero_within = 0;
  std::size_t nonzero_across = 0;
  for (const auto& e : server_tm.entries()) {
    if (e.from == e.to || e.bytes <= 0) continue;
    const ServerId a{e.from};
    const ServerId b{e.to};
    if (topo.is_external(a) || topo.is_external(b)) continue;
    if (topo.same_rack(a, b)) {
      out.log_bytes_within_rack.add(std::log(e.bytes));
      ++nonzero_within;
    } else {
      out.log_bytes_across_racks.add(std::log(e.bytes));
      ++nonzero_across;
    }
  }
  out.log_bytes_within_rack.finalize();
  out.log_bytes_across_racks.finalize();

  const auto n = static_cast<std::size_t>(topo.internal_server_count());
  const auto per_rack = static_cast<std::size_t>(topo.config().servers_per_rack);
  out.pairs_within_rack = n * (per_rack - 1);
  out.pairs_across_racks = n * (n - per_rack);
  out.prob_zero_within_rack =
      out.pairs_within_rack > 0
          ? 1.0 - static_cast<double>(nonzero_within) /
                      static_cast<double>(out.pairs_within_rack)
          : 1.0;
  out.prob_zero_across_racks =
      out.pairs_across_racks > 0
          ? 1.0 - static_cast<double>(nonzero_across) /
                      static_cast<double>(out.pairs_across_racks)
          : 1.0;
  return out;
}

CorrespondentStats correspondent_stats(const SparseTm& server_tm, const Topology& topo) {
  require(server_tm.size() == topo.server_count(),
          "correspondent_stats: TM must be server-scoped");
  const auto n = static_cast<std::size_t>(topo.internal_server_count());
  // Correspondents are counted symmetrically (talks to = sends or receives).
  std::vector<std::unordered_map<std::int32_t, bool>> peers(n);
  for (const auto& e : server_tm.entries()) {
    if (e.bytes <= 0 || e.from == e.to) continue;
    const ServerId a{e.from};
    const ServerId b{e.to};
    if (topo.is_external(a) || topo.is_external(b)) continue;
    peers[static_cast<std::size_t>(e.from)][e.to] = true;
    peers[static_cast<std::size_t>(e.to)][e.from] = true;
  }

  CorrespondentStats out;
  const double rack_size = topo.config().servers_per_rack;
  std::vector<double> counts_within;
  std::vector<double> counts_across;
  for (std::size_t s = 0; s < n; ++s) {
    double within = 0;
    double across = 0;
    for (const auto& [peer, _] : peers[s]) {
      if (topo.same_rack(ServerId{static_cast<std::int32_t>(s)}, ServerId{peer})) {
        ++within;
      } else {
        ++across;
      }
    }
    counts_within.push_back(within);
    counts_across.push_back(across);
    out.frac_within_rack.add(within / (rack_size - 1));
    out.frac_across_racks.add(across / (static_cast<double>(n) - rack_size));
  }
  out.frac_within_rack.finalize();
  out.frac_across_racks.finalize();
  out.median_within = median(counts_within);
  out.median_across = median(counts_across);
  return out;
}

LocalityBreakdown locality_breakdown(const SparseTm& server_tm, const Topology& topo) {
  require(server_tm.size() == topo.server_count(),
          "locality_breakdown: TM must be server-scoped");
  LocalityBreakdown out;
  double total = 0;
  for (const auto& e : server_tm.entries()) {
    if (e.bytes <= 0) continue;
    total += e.bytes;
    const ServerId a{e.from};
    const ServerId b{e.to};
    if (topo.is_external(a) || topo.is_external(b)) {
      out.frac_external += e.bytes;
    } else if (topo.same_rack(a, b)) {
      out.frac_same_rack += e.bytes;
    } else if (topo.same_vlan(a, b)) {
      out.frac_same_vlan += e.bytes;
    } else {
      out.frac_cross_vlan += e.bytes;
    }
  }
  if (total > 0) {
    out.frac_same_rack /= total;
    out.frac_same_vlan /= total;
    out.frac_cross_vlan /= total;
    out.frac_external /= total;
  }
  return out;
}

BinnedSeries aggregate_rate_series(const ClusterTrace& trace, TimeSec bin_width) {
  require(bin_width > 0, "aggregate_rate_series: bin_width must be > 0");
  // The bin count is cast to size_t; an out-of-range cast is undefined.
  require(trace.duration() / bin_width < 0x1p63,
          "aggregate_rate_series: duration / bin_width overflows the bin count");
  const auto bins =
      static_cast<std::size_t>(std::ceil(trace.duration() / bin_width));
  BinnedSeries series(0.0, bin_width, std::max<std::size_t>(bins, 1));
  for (const SocketFlowLog& f : trace.flows()) {
    if (f.bytes <= 0) continue;
    series.add_interval(f.start, std::max(f.end, f.start), static_cast<double>(f.bytes));
  }
  return series.to_rate();
}

std::vector<double> tm_change_series(const std::vector<SparseTm>& tms) {
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < tms.size(); ++i) {
    if (tms[i].total() <= 0) continue;
    out.push_back(SparseTm::l1_distance(tms[i + 1], tms[i]) / tms[i].total());
  }
  return out;
}

}  // namespace dct
