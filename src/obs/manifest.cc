#include "obs/manifest.h"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/fsio.h"
#include "common/require.h"

namespace dct::obs {
namespace {

// Shortest round-trip number formatting (std::to_chars), so identical
// doubles always print identically and goldens can diff the output.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no inf/nan
  // Integral values print without an exponent or trailing ".0" — counters
  // and seeds read naturally.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    const auto i = static_cast<long long>(v);
    return std::to_string(i);
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Appends rather than operator+: GCC 12 raises a false -Wrestrict on
// "\"" + std::string + "\"" in Release builds.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

}  // namespace

BuildInfo current_build_info() {
  BuildInfo b;
#ifdef DCT_SANITIZE_BUILD
  b.sanitized = true;
#endif
#ifdef DCT_BUILD_TYPE
  b.build_type = DCT_BUILD_TYPE;
#endif
#ifdef DCT_COMPILER_ID
  b.compiler = DCT_COMPILER_ID;
#endif
  return b;
}

void RunManifest::capture_metrics(const Registry& registry) {
  metrics.clear();
  for (const Metric* m : registry.metrics()) {
    MetricSnapshot s;
    s.full_name = m->full_name();
    s.unit = m->unit;
    s.kind = m->kind;
    switch (m->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(m->counter->value());
        break;
      case MetricKind::kGauge:
        s.value = m->gauge->value();
        break;
      case MetricKind::kHistogram:
        s.count = m->histogram->count();
        s.sum = m->histogram->sum();
        s.mean = m->histogram->mean();
        s.max = m->histogram->max();
        break;
    }
    metrics.push_back(std::move(s));
  }
}

std::string RunManifest::to_json() const {
  std::string j;
  j.reserve(1024 + metrics.size() * 128);
  j += "{\n";
  j += "  \"schema\": " + quoted(schema) + ",\n";
  j += "  \"harness\": " + quoted(harness) + ",\n";
  j += "  \"scenario\": " + quoted(scenario) + ",\n";
  j += "  \"seed\": " + std::to_string(seed) + ",\n";
  j += "  \"sim_duration_s\": " + json_number(sim_duration_s) + ",\n";
  j += "  \"config\": {";
  bool first = true;
  for (const auto& [k, v] : config) {  // std::map: sorted keys
    j += first ? "\n" : ",\n";
    j += "    " + quoted(k) + ": " + json_number(v);
    first = false;
  }
  j += config.empty() ? "},\n" : "\n  },\n";
  j += "  \"build\": {\n";
  j += "    \"obs_enabled\": " + std::string(build.obs_enabled ? "true" : "false") +
       ",\n";
  j += "    \"sanitized\": " + std::string(build.sanitized ? "true" : "false") + ",\n";
  j += "    \"build_type\": " + quoted(build.build_type) + ",\n";
  j += "    \"compiler\": " + quoted(build.compiler) + "\n";
  j += "  },\n";
  j += "  \"wall_seconds\": " + json_number(wall_seconds) + ",\n";
  j += "  \"metrics\": {";
  first = true;
  for (const auto& m : metrics) {
    j += first ? "\n" : ",\n";
    j += "    " + quoted(m.full_name) + ": {\"kind\": \"" + to_string(m.kind) +
         "\", \"unit\": " + quoted(m.unit);
    if (m.kind == MetricKind::kHistogram) {
      j += ", \"count\": " + std::to_string(m.count) +
           ", \"sum\": " + json_number(m.sum) + ", \"mean\": " + json_number(m.mean) +
           ", \"max\": " + json_number(m.max);
    } else {
      j += ", \"value\": " + json_number(m.value);
    }
    j += "}";
    first = false;
  }
  j += metrics.empty() ? "}\n" : "\n  }\n";
  j += "}\n";
  return j;
}

std::string RunManifest::to_csv() const {
  std::string csv = "metric,kind,unit,value,count,sum,mean,max\n";
  for (const auto& m : metrics) {
    csv += m.full_name;
    csv += ',';
    csv += to_string(m.kind);
    csv += ',';
    csv += m.unit;
    csv += ',';
    csv += json_number(m.value);
    csv += ',';
    csv += std::to_string(m.count);
    csv += ',';
    csv += json_number(m.sum);
    csv += ',';
    csv += json_number(m.mean);
    csv += ',';
    csv += json_number(m.max);
    csv += '\n';
  }
  return csv;
}

std::string RunManifest::write_json(const std::string& path) const {
  // Write-to-temp + rename (common/fsio.h) so a reader (or a crash
  // mid-write) never sees a half-written manifest: the rename either
  // installs the complete file or leaves the previous one untouched.
  atomic_write_file(path, to_json());
  return path;
}

}  // namespace dct::obs
