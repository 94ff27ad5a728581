#include "obs/metrics.h"

#include <algorithm>

#include "common/require.h"

namespace dct::obs {

void Histogram::observe(double v) noexcept {
  max_ = count_ == 0 ? v : std::max(max_, v);
  ++count_;
  sum_ += v;
}

const char* to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

Metric& Registry::find_or_create(std::string subsystem, std::string name,
                                 std::string unit, MetricKind kind) {
  require(!subsystem.empty() && !name.empty(), "Registry: empty metric id");
  auto key = std::make_pair(subsystem, name);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    require(it->second.kind == kind,
            "Registry: re-registering '" + it->second.full_name() +
                "' with a different kind");
    require(it->second.unit == unit,
            "Registry: re-registering '" + it->second.full_name() +
                "' with a different unit");
    return it->second;
  }
  Metric m;
  m.subsystem = std::move(subsystem);
  m.name = std::move(name);
  m.unit = std::move(unit);
  m.kind = kind;
  return metrics_.emplace(std::move(key), std::move(m)).first->second;
}

Counter* Registry::counter(std::string subsystem, std::string name, std::string unit) {
  Metric& m = find_or_create(std::move(subsystem), std::move(name), std::move(unit),
                             MetricKind::kCounter);
  if (!m.counter) m.counter = std::make_unique<Counter>();
  return m.counter.get();
}

Gauge* Registry::gauge(std::string subsystem, std::string name, std::string unit) {
  Metric& m = find_or_create(std::move(subsystem), std::move(name), std::move(unit),
                             MetricKind::kGauge);
  if (!m.gauge) m.gauge = std::make_unique<Gauge>();
  return m.gauge.get();
}

Histogram* Registry::histogram(std::string subsystem, std::string name,
                               std::string unit) {
  Metric& m = find_or_create(std::move(subsystem), std::move(name), std::move(unit),
                             MetricKind::kHistogram);
  if (!m.histogram) m.histogram = std::make_unique<Histogram>();
  return m.histogram.get();
}

std::vector<const Metric*> Registry::metrics() const {
  std::vector<const Metric*> out;
  out.reserve(metrics_.size());
  for (const auto& [key, m] : metrics_) out.push_back(&m);
  return out;  // map iteration is already sorted by (subsystem, name)
}

std::vector<std::pair<std::string, double>> Registry::scalar_snapshot() const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(metrics_.size());
  for (const auto& [key, m] : metrics_) {
    switch (m.kind) {
      case MetricKind::kCounter:
        out.emplace_back(m.full_name(), static_cast<double>(m.counter->value()));
        break;
      case MetricKind::kGauge:
        out.emplace_back(m.full_name(), m.gauge->value());
        break;
      case MetricKind::kHistogram:
        break;  // wall-clock sums are run-dependent; excluded by contract
    }
  }
  return out;
}

}  // namespace dct::obs
