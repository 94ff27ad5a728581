#include "tomography/routing.h"

#include <algorithm>

#include "analysis/traffic_matrix.h"
#include "common/require.h"

namespace dct {

double DenseTorTm::total() const {
  double t = 0;
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i != j) t += at(i, j);
    }
  }
  return t;
}

std::size_t DenseTorTm::nonzero_count() const {
  std::size_t c = 0;
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i != j && at(i, j) > 0) ++c;
    }
  }
  return c;
}

std::size_t DenseTorTm::entries_for_volume(double volume_fraction) const {
  require(volume_fraction > 0 && volume_fraction <= 1,
          "entries_for_volume: fraction must be in (0,1]");
  std::vector<double> vals;
  for (std::int32_t i = 0; i < n_; ++i) {
    for (std::int32_t j = 0; j < n_; ++j) {
      if (i != j && at(i, j) > 0) vals.push_back(at(i, j));
    }
  }
  if (vals.empty()) return 0;
  std::sort(vals.begin(), vals.end(), std::greater<>());
  double total = 0;
  for (double v : vals) total += v;
  const double target = volume_fraction * total;
  double acc = 0;
  std::size_t count = 0;
  for (double v : vals) {
    acc += v;
    ++count;
    if (acc >= target) break;
  }
  return count;
}

DenseTorTm DenseTorTm::from_sparse(const SparseTm& tm) {
  DenseTorTm out(tm.size());
  for (const auto& e : tm.entries()) {
    if (e.from != e.to) out.add(e.from, e.to, e.bytes);
  }
  return out;
}

RoutingMatrix::RoutingMatrix(const Topology& topo) : n_(topo.rack_count()) {
  // Measured links: every inter-switch link, densely re-indexed.
  measured_of_link_.assign(static_cast<std::size_t>(topo.link_count()), -1);
  link_ids_.reserve(topo.inter_switch_links().size());
  for (LinkId l : topo.inter_switch_links()) {
    measured_of_link_[static_cast<std::size_t>(l.value())] =
        static_cast<std::int32_t>(link_ids_.size());
    link_ids_.push_back(l);
  }

  // Each rack's measured ToR links and aggregation switch, and each
  // switch's measured core links, looked up once.
  const auto n = static_cast<std::size_t>(n_);
  const auto measured = [&](LinkId l) {
    const std::int32_t idx = measured_index(l);
    ensure(idx >= 0, "unmeasured link on a ToR path");
    return idx;
  };
  std::vector<std::int32_t> tor_up(n), tor_down(n), agg_of(n);
  for (std::int32_t r = 0; r < n_; ++r) {
    const auto k = static_cast<std::size_t>(r);
    tor_up[k] = measured(topo.tor_up_link(RackId{r}));
    tor_down[k] = measured(topo.tor_down_link(RackId{r}));
    agg_of[k] = topo.agg_of(RackId{r});
  }
  const auto n_aggs = static_cast<std::size_t>(topo.agg_count());
  std::vector<std::int32_t> agg_up(n_aggs), agg_down(n_aggs);
  for (std::int32_t a = 0; a < topo.agg_count(); ++a) {
    agg_up[static_cast<std::size_t>(a)] = measured(topo.agg_up_link(a));
    agg_down[static_cast<std::size_t>(a)] = measured(topo.agg_down_link(a));
  }

  // At most four hops per OD pair.
  links_.reserve(4 * n * n);
  offsets_.reserve(n * n + 1);
  offsets_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        links_.push_back(tor_up[i]);
        if (agg_of[i] != agg_of[j]) {
          links_.push_back(agg_up[static_cast<std::size_t>(agg_of[i])]);
          links_.push_back(agg_down[static_cast<std::size_t>(agg_of[j])]);
        }
        links_.push_back(tor_down[j]);
      }
      offsets_.push_back(static_cast<std::int32_t>(links_.size()));
    }
  }
}

std::int32_t RoutingMatrix::measured_index(LinkId l) const {
  require(l.valid() &&
              static_cast<std::size_t>(l.value()) < measured_of_link_.size(),
          "measured_index: link out of range");
  return measured_of_link_[static_cast<std::size_t>(l.value())];
}

LinkId RoutingMatrix::link_at(std::int32_t measured) const {
  require(measured >= 0 && measured < link_count(), "link_at: out of range");
  return link_ids_[static_cast<std::size_t>(measured)];
}

std::span<const std::int32_t> RoutingMatrix::path(std::int32_t i, std::int32_t j) const {
  require(i >= 0 && i < n_ && j >= 0 && j < n_ && i != j, "path: bad OD pair");
  return od_path(static_cast<std::size_t>(i) * n_ + j);
}

std::vector<double> RoutingMatrix::link_loads(const DenseTorTm& tm) const {
  require(tm.size() == n_, "link_loads: TM size mismatch");
  std::vector<double> b(static_cast<std::size_t>(link_count()), 0.0);
  const std::vector<double>& x = tm.raw();
  for (std::size_t k = 0; k < x.size(); ++k) {
    if (x[k] <= 0) continue;
    for (std::int32_t l : od_path(k)) b[static_cast<std::size_t>(l)] += x[k];
  }
  return b;
}

std::vector<double> RoutingMatrix::adjoint(const std::vector<double>& lambda) const {
  require(lambda.size() == static_cast<std::size_t>(link_count()),
          "adjoint: size mismatch");
  std::vector<double> y(static_cast<std::size_t>(n_) * n_, 0.0);
  for (std::size_t k = 0; k < y.size(); ++k) {
    double acc = 0;
    for (std::int32_t l : od_path(k)) acc += lambda[static_cast<std::size_t>(l)];
    y[k] = acc;
  }
  return y;
}

}  // namespace dct
