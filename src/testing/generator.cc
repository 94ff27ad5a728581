#include "testing/generator.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/fsio.h"
#include "common/require.h"

namespace dct::testing {

namespace {

// The scalar knob surface the generator randomizes and the shrinker edits,
// as (key, get, set) accessors.  repro_json serializes exactly this table
// (plus the three u64 seeds), and scenario_from_repro applies it on top of
// the scenarios::tiny base — keeping the two directions in lockstep by
// construction.
struct Knob {
  const char* key;
  double (*get)(const ScenarioConfig&);
  void (*set)(ScenarioConfig&, double);
};

// A repro file is untrusted input: a knob value must be finite and inside
// its field's range before the cast (an out-of-range float-to-int cast is
// undefined behaviour).  Bool fields take exactly 0 or 1.
template <typename T>
T knob_value(const char* key, double v) {
  bool ok = std::isfinite(v);
  if constexpr (std::is_same_v<T, bool>) {
    ok = ok && (v == 0.0 || v == 1.0);
  } else if constexpr (std::is_integral_v<T>) {
    // max + 1 is a power of two, so the upper bound is exact in double.
    ok = ok && v >= static_cast<double>(std::numeric_limits<T>::min()) &&
         v < static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  }
  require(ok, std::string("scenario_from_repro: knob ") + key +
                  " is non-finite or outside its field's range");
  return static_cast<T>(v);
}

#define DCT_KNOB(key, field, type)                               \
  Knob {                                                         \
    key, [](const ScenarioConfig& c) -> double {                 \
      return static_cast<double>(c.field);                       \
    },                                                           \
        [](ScenarioConfig& c, double v) {                        \
          c.field = knob_value<type>(key, v);                    \
        }                                                        \
  }

const std::vector<Knob>& knob_table() {
  static const std::vector<Knob> table = {
      DCT_KNOB("sim.end_time", sim.end_time, double),
      DCT_KNOB("topology.racks", topology.racks, std::int32_t),
      DCT_KNOB("topology.servers_per_rack", topology.servers_per_rack, std::int32_t),
      DCT_KNOB("topology.racks_per_vlan", topology.racks_per_vlan, std::int32_t),
      DCT_KNOB("topology.agg_switches", topology.agg_switches, std::int32_t),
      DCT_KNOB("topology.external_servers", topology.external_servers, std::int32_t),
      DCT_KNOB("topology.redundant_tor_uplinks", topology.redundant_tor_uplinks, bool),
      DCT_KNOB("workload.jobs_per_second", workload.jobs_per_second, double),
      DCT_KNOB("workload.speculative_execution", workload.speculative_execution, bool),
      DCT_KNOB("workload.spec_slowdown_threshold", workload.spec_slowdown_threshold,
               double),
      DCT_KNOB("workload.spec_check_interval", workload.spec_check_interval, double),
      DCT_KNOB("workload.hedged_reads", workload.hedged_reads, bool),
      DCT_KNOB("workload.hedge_quantile", workload.hedge_quantile, double),
      DCT_KNOB("workload.hedge_min_timeout", workload.hedge_min_timeout, double),
      DCT_KNOB("workload.read_retry_jitter", workload.read_retry_jitter, double),
      DCT_KNOB("workload.repair.paced", workload.repair.paced, bool),
      DCT_KNOB("workload.repair.max_in_flight", workload.repair.max_in_flight,
               std::int32_t),
      DCT_KNOB("workload.repair.per_source_cap", workload.repair.per_source_cap,
               std::int32_t),
      DCT_KNOB("workload.repair.per_dest_cap", workload.repair.per_dest_cap,
               std::int32_t),
      DCT_KNOB("workload.repair.tokens_per_second", workload.repair.tokens_per_second,
               double),
      DCT_KNOB("workload.repair.token_burst", workload.repair.token_burst, double),
      DCT_KNOB("workload.repair.pacer_interval", workload.repair.pacer_interval,
               double),
      DCT_KNOB("workload.repair.congestion_util_threshold",
               workload.repair.congestion_util_threshold, double),
      DCT_KNOB("workload.repair.max_attempts", workload.repair.max_attempts,
               std::int32_t),
      DCT_KNOB("faults.link_flap_rate", faults.link_flap_rate, double),
      DCT_KNOB("faults.link_flap_mean_duration", faults.link_flap_mean_duration,
               double),
      DCT_KNOB("faults.server_crash_rate", faults.server_crash_rate, double),
      DCT_KNOB("faults.server_mean_repair", faults.server_mean_repair, double),
      DCT_KNOB("faults.tor_crash_rate", faults.tor_crash_rate, double),
      DCT_KNOB("faults.tor_mean_repair", faults.tor_mean_repair, double),
      DCT_KNOB("faults.agg_crash_rate", faults.agg_crash_rate, double),
      DCT_KNOB("faults.agg_mean_repair", faults.agg_mean_repair, double),
      DCT_KNOB("faults.rack_power_rate", faults.rack_power_rate, double),
      DCT_KNOB("faults.rack_power_mean_repair", faults.rack_power_mean_repair, double),
      DCT_KNOB("faults.domain_burst_jitter", faults.domain_burst_jitter, double),
      DCT_KNOB("degradations.link_capacity_rate", degradations.link_capacity_rate,
               double),
      DCT_KNOB("degradations.link_capacity_mean_duration",
               degradations.link_capacity_mean_duration, double),
      DCT_KNOB("degradations.link_flap_rate", degradations.link_flap_rate, double),
      DCT_KNOB("degradations.link_flap_mean_duration",
               degradations.link_flap_mean_duration, double),
      DCT_KNOB("degradations.link_lossy_rate", degradations.link_lossy_rate, double),
      DCT_KNOB("degradations.link_lossy_mean_duration",
               degradations.link_lossy_mean_duration, double),
      DCT_KNOB("degradations.straggler_rate", degradations.straggler_rate, double),
      DCT_KNOB("degradations.straggler_mean_duration",
               degradations.straggler_mean_duration, double),
      DCT_KNOB("degradations.tor_domain_rate", degradations.tor_domain_rate, double),
      DCT_KNOB("degradations.tor_domain_mean_duration",
               degradations.tor_domain_mean_duration, double),
      DCT_KNOB("degradations.vlan_domain_rate", degradations.vlan_domain_rate, double),
      DCT_KNOB("degradations.vlan_domain_mean_duration",
               degradations.vlan_domain_mean_duration, double),
      DCT_KNOB("degradations.domain_burst_jitter", degradations.domain_burst_jitter,
               double),
      DCT_KNOB("cascades.util_threshold", cascades.util_threshold, double),
      DCT_KNOB("cascades.sustain_window", cascades.sustain_window, double),
      DCT_KNOB("cascades.check_interval", cascades.check_interval, double),
      DCT_KNOB("cascades.trip_probability", cascades.trip_probability, double),
      DCT_KNOB("cascades.max_depth", cascades.max_depth, std::int32_t),
      DCT_KNOB("cascades.severity_floor", cascades.severity_floor, double),
      DCT_KNOB("cascades.severity_ceil", cascades.severity_ceil, double),
      DCT_KNOB("cascades.mean_duration", cascades.mean_duration, double),
      DCT_KNOB("telemetry.crash_buffer_window", telemetry.crash_buffer_window, double),
      DCT_KNOB("telemetry.upload_loss_prob", telemetry.upload_loss_prob, double),
      DCT_KNOB("telemetry.upload_truncate_prob", telemetry.upload_truncate_prob,
               double),
      DCT_KNOB("telemetry.upload_interval", telemetry.upload_interval, double),
      DCT_KNOB("telemetry.straggler_truncate_prob", telemetry.straggler_truncate_prob,
               double),
      DCT_KNOB("telemetry.duplicate_prob", telemetry.duplicate_prob, double),
      DCT_KNOB("telemetry.snmp_timeout_prob", telemetry.snmp_timeout_prob, double),
      DCT_KNOB("telemetry.snmp_poll_interval", telemetry.snmp_poll_interval, double),
      DCT_KNOB("telemetry.counter_reset_on_reboot", telemetry.counter_reset_on_reboot,
               bool),
      DCT_KNOB("telemetry.snmp_counter_width", telemetry.snmp_counter_width, int),
  };
  return table;
}

#undef DCT_KNOB

// Finds `"key": ` in `json` and returns the character offset of the value,
// or npos.  Keys are quote-delimited, so "seed" never matches inside
// "cascades_seed".
std::size_t value_offset(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return std::string::npos;
  return pos + needle.size();
}

// Parses the bare value at `off`, up to the next ',', '}' or line end, as
// a T.  The whole value must parse: a prefix match would read "2x" as 2,
// and no match at all would read "oops" as 0.  An unsigned T takes only
// decimal digits, so "-1" cannot wrap.
template <typename T>
T parse_value(const std::string& json, std::size_t off, const std::string& what) {
  std::size_t first = off;
  std::size_t last = std::min(json.find_first_of(",}\n", off), json.size());
  while (first < last && std::isspace(static_cast<unsigned char>(json[first]))) ++first;
  while (last > first && std::isspace(static_cast<unsigned char>(json[last - 1]))) --last;
  const char* const begin = json.data() + first;
  const char* const end = json.data() + last;
  T value{};
  const auto [parsed_to, ec] = std::from_chars(begin, end, value);
  require(ec == std::errc() && parsed_to == end,
          "scenario_from_repro: " + what + " value '" + std::string(begin, end) +
              "' is not " +
              (std::is_integral_v<T> ? "an unsigned decimal integer" : "a number"));
  return value;
}

}  // namespace

std::uint32_t feature_mask(const ScenarioConfig& cfg) {
  std::uint32_t mask = 0;
  if (!cfg.faults.empty()) mask |= kFeatFaults;
  if (!cfg.degradations.empty()) mask |= kFeatDegradations;
  if (!cfg.cascades.empty()) mask |= kFeatCascades;
  if (!cfg.telemetry.empty()) mask |= kFeatTelemetry;
  if (!cfg.telemetry.empty() && cfg.telemetry.upload_interval > 0) {
    mask |= kFeatPeriodicUpload;
  }
  if (cfg.workload.repair.paced) mask |= kFeatPacedRepair;
  if (cfg.workload.speculative_execution) mask |= kFeatSpeculation;
  if (cfg.workload.hedged_reads) mask |= kFeatHedgedReads;
  if (cfg.topology.redundant_tor_uplinks) mask |= kFeatRedundantUplinks;
  return mask;
}

ScenarioConfig generate_scenario(std::uint64_t seed, double max_duration) {
  std::mt19937_64 gen(seed * 0x9E3779B97F4A7C15ull + 1);
  auto uni = [&](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen);
  };
  auto uni_int = [&](std::int32_t lo, std::int32_t hi) {
    return std::uniform_int_distribution<std::int32_t>(lo, hi)(gen);
  };
  auto coin = [&](double p) { return uni(0.0, 1.0) < p; };

  const double duration = uni(10.0, std::max(10.0, max_duration));
  ScenarioConfig cfg = scenarios::tiny(duration, seed);
  cfg.name = "proptest";
  cfg.topology.racks = uni_int(2, 4);
  cfg.topology.servers_per_rack = uni_int(4, 8);
  cfg.topology.redundant_tor_uplinks = coin(0.5);
  cfg.workload.jobs_per_second = uni(0.3, 1.5);

  if (coin(0.75)) {
    cfg.faults.link_flap_rate = uni(0.0, 4.0);
    cfg.faults.link_flap_mean_duration = uni(3.0, 15.0);
    cfg.faults.server_crash_rate = uni(0.0, 4.0);
    cfg.faults.server_mean_repair = uni(10.0, 60.0);
    cfg.faults.tor_crash_rate = uni(0.0, 1.0);
    cfg.faults.tor_mean_repair = uni(5.0, 30.0);
    cfg.faults.agg_crash_rate = uni(0.0, 0.4);
    cfg.faults.agg_mean_repair = uni(5.0, 20.0);
    cfg.faults.rack_power_rate = uni(0.0, 2.0);
    cfg.faults.rack_power_mean_repair = uni(5.0, 40.0);
    cfg.faults.domain_burst_jitter = uni(0.0, 3.0);
  }
  if (coin(0.7)) {
    cfg.degradations.link_capacity_rate = uni(0.0, 20.0);
    cfg.degradations.link_capacity_mean_duration = uni(3.0, 30.0);
    cfg.degradations.link_flap_rate = uni(0.0, 10.0);
    cfg.degradations.link_flap_mean_duration = uni(3.0, 20.0);
    cfg.degradations.link_lossy_rate = uni(0.0, 20.0);
    cfg.degradations.link_lossy_mean_duration = uni(3.0, 30.0);
    cfg.degradations.straggler_rate = uni(0.0, 40.0);
    cfg.degradations.straggler_mean_duration = uni(5.0, 40.0);
    cfg.degradations.tor_domain_rate = uni(0.0, 6.0);
    cfg.degradations.tor_domain_mean_duration = uni(3.0, 30.0);
    cfg.degradations.vlan_domain_rate = uni(0.0, 3.0);
    cfg.degradations.vlan_domain_mean_duration = uni(3.0, 30.0);
    cfg.degradations.domain_burst_jitter = uni(0.0, 3.0);
  }
  if (coin(0.5)) {
    cfg.cascades.util_threshold = uni(0.5, 0.95);
    cfg.cascades.sustain_window = uni(1.0, 4.0);
    cfg.cascades.check_interval = uni(0.5, 1.5);
    cfg.cascades.trip_probability = uni(0.1, 0.9);
    cfg.cascades.max_depth = uni_int(1, 4);
    cfg.cascades.severity_floor = uni(0.1, 0.4);
    cfg.cascades.severity_ceil = uni(0.5, 0.9);
    cfg.cascades.mean_duration = uni(3.0, 20.0);
    cfg.cascades.seed = seed;
  }
  if (coin(0.6)) {
    cfg.telemetry.crash_buffer_window = uni(0.0, 20.0);
    cfg.telemetry.upload_loss_prob = uni(0.0, 0.3);
    cfg.telemetry.upload_truncate_prob = uni(0.0, 0.3);
    cfg.telemetry.upload_interval = coin(0.5) ? uni(3.0, 15.0) : 0.0;
    cfg.telemetry.straggler_truncate_prob = uni(0.0, 1.0);
    cfg.telemetry.duplicate_prob = uni(0.0, 0.3);
    cfg.telemetry.snmp_timeout_prob = uni(0.0, 0.2);
    cfg.telemetry.snmp_poll_interval = uni(3.0, 15.0);
    cfg.telemetry.counter_reset_on_reboot = coin(0.5);
    cfg.telemetry.snmp_counter_width = coin(0.5) ? 32 : 0;
    cfg.telemetry.seed = seed ^ 0x7E1E7E1Eull;
  }
  cfg.workload.repair.paced = coin(0.5);
  if (cfg.workload.repair.paced) {
    cfg.workload.repair.max_in_flight = uni_int(4, 64);
    cfg.workload.repair.per_source_cap = uni_int(1, 3);
    cfg.workload.repair.per_dest_cap = uni_int(1, 3);
    cfg.workload.repair.tokens_per_second = uni(2.0, 40.0);
    cfg.workload.repair.token_burst = uni(4.0, 64.0);
    cfg.workload.repair.pacer_interval = uni(0.2, 1.0);
    cfg.workload.repair.congestion_util_threshold = uni(0.5, 0.99);
    cfg.workload.repair.max_attempts = uni_int(1, 6);
  }
  cfg.workload.speculative_execution = coin(0.5);
  if (cfg.workload.speculative_execution) {
    cfg.workload.spec_slowdown_threshold = uni(1.5, 4.0);
    cfg.workload.spec_check_interval = uni(1.0, 4.0);
  }
  cfg.workload.hedged_reads = coin(0.5);
  if (cfg.workload.hedged_reads) {
    cfg.workload.hedge_quantile = uni(0.80, 0.99);
    cfg.workload.hedge_min_timeout = uni(0.5, 3.0);
  }
  cfg.workload.read_retry_jitter = uni(0.0, 0.9);
  return cfg;
}

ScenarioConfig ScenarioGenerator::next() {
  std::uint64_t chosen = next_seed_;
  ScenarioConfig chosen_cfg = generate_scenario(chosen, max_duration_);
  if (seen_.contains(feature_mask(chosen_cfg))) {
    for (int k = 1; k < 16; ++k) {
      const std::uint64_t s = next_seed_ + static_cast<std::uint64_t>(k);
      ScenarioConfig cfg = generate_scenario(s, max_duration_);
      if (!seen_.contains(feature_mask(cfg))) {
        chosen = s;
        chosen_cfg = std::move(cfg);
        break;
      }
    }
  }
  seen_.insert(feature_mask(chosen_cfg));
  next_seed_ = chosen + 1;
  return chosen_cfg;
}

ShrinkResult shrink_scenario(const ScenarioConfig& failing,
                             const FailurePredicate& still_fails, int max_evals) {
  // Ordered shrink steps; each returns false when it has nothing left to
  // remove.  Feature-group drops come before magnitude halvings so the
  // minimized scenario names the smallest set of subsystems needed.
  using Step = bool (*)(ScenarioConfig&);
  static constexpr Step kSteps[] = {
      [](ScenarioConfig& c) {
        if (c.sim.end_time <= 5.0) return false;
        c.sim.end_time = std::max(5.0, c.sim.end_time / 2.0);
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.topology.racks <= 2) return false;
        c.topology.racks = 2;
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.topology.servers_per_rack <= 4) return false;
        c.topology.servers_per_rack = std::max(4, c.topology.servers_per_rack / 2);
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.topology.external_servers <= 0) return false;
        c.topology.external_servers = c.topology.external_servers > 1 ? 1 : 0;
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.faults.empty()) return false;
        c.faults = FaultConfig{};
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.degradations.empty()) return false;
        c.degradations = DegradationConfig{};
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.cascades.empty()) return false;
        c.cascades = CascadeConfig{};
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.telemetry.empty() && c.telemetry.snmp_counter_width == 0) return false;
        c.telemetry = TelemetryFaultConfig{};
        return true;
      },
      [](ScenarioConfig& c) {
        if (!c.workload.repair.paced) return false;
        c.workload.repair = RepairConfig{};
        return true;
      },
      [](ScenarioConfig& c) {
        if (!c.workload.speculative_execution && !c.workload.hedged_reads) {
          return false;
        }
        c.workload.speculative_execution = false;
        c.workload.hedged_reads = false;
        return true;
      },
      [](ScenarioConfig& c) {
        if (!c.topology.redundant_tor_uplinks) return false;
        c.topology.redundant_tor_uplinks = false;
        return true;
      },
      [](ScenarioConfig& c) {
        if (c.workload.jobs_per_second <= 0.11) return false;
        c.workload.jobs_per_second = std::max(0.1, c.workload.jobs_per_second / 2.0);
        return true;
      },
  };

  ShrinkResult result;
  result.config = failing;
  bool progressed = true;
  while (progressed && result.evals < max_evals) {
    progressed = false;
    for (const Step step : kSteps) {
      if (result.evals >= max_evals) break;
      ScenarioConfig candidate = result.config;
      if (!step(candidate)) continue;
      ++result.evals;
      if (still_fails(candidate)) {
        result.config = std::move(candidate);
        ++result.accepted;
        progressed = true;
      }
    }
  }
  return result;
}

std::string repro_json(const ScenarioConfig& cfg, const std::string& violated) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"dct-proptest-repro/1\",\n";
  out << "  \"violated\": \"" << violated << "\",\n";
  out << "  \"seed\": " << cfg.seed << ",\n";
  out << "  \"cascades_seed\": " << cfg.cascades.seed << ",\n";
  out << "  \"telemetry_seed\": " << cfg.telemetry.seed << ",\n";
  out << "  \"knobs\": {\n";
  const auto& table = knob_table();
  out << std::setprecision(17);
  for (std::size_t i = 0; i < table.size(); ++i) {
    out << "    \"" << table[i].key << "\": " << table[i].get(cfg)
        << (i + 1 < table.size() ? "," : "") << "\n";
  }
  out << "  }\n";
  out << "}\n";
  return out.str();
}

ScenarioConfig scenario_from_repro(const std::string& json) {
  require(json.find("\"schema\": \"dct-proptest-repro/1\"") != std::string::npos,
          "scenario_from_repro: missing or unknown repro schema");
  const auto u64_at = [&](const std::string& key, bool required_key,
                          std::uint64_t fallback) -> std::uint64_t {
    const auto off = value_offset(json, key);
    if (off == std::string::npos) {
      require(!required_key, "scenario_from_repro: missing key " + key);
      return fallback;
    }
    return parse_value<std::uint64_t>(json, off, key);
  };
  // Every key inside "knobs" must name a knob.  A misspelt or retired key
  // would otherwise be skipped, and the replay would silently run tiny()'s
  // value instead of the repro's.  Knob values are bare numbers, so each
  // quoted string in the object is a key.
  const auto knobs_at = value_offset(json, "knobs");
  if (knobs_at != std::string::npos) {
    const auto open = json.find('{', knobs_at);
    const auto close = json.find('}', open);
    require(open != std::string::npos && close != std::string::npos,
            "scenario_from_repro: malformed knobs object");
    for (auto q = json.find('"', open); q < close; q = json.find('"', q + 1)) {
      const auto end = json.find('"', q + 1);
      require(end < close, "scenario_from_repro: malformed knobs object");
      const std::string key = json.substr(q + 1, end - q - 1);
      const auto& table = knob_table();
      require(std::any_of(table.begin(), table.end(),
                          [&](const Knob& k) { return key == k.key; }),
              "scenario_from_repro: unknown knob key " + key);
      q = end;
    }
  }
  const std::uint64_t seed = u64_at("seed", true, 0);
  ScenarioConfig cfg = scenarios::tiny(30.0, seed);
  cfg.name = "proptest";
  for (const auto& knob : knob_table()) {
    const auto off = value_offset(json, knob.key);
    if (off == std::string::npos) continue;
    knob.set(cfg, parse_value<double>(json, off, std::string("knob ") + knob.key));
  }
  cfg.cascades.seed = u64_at("cascades_seed", false, cfg.cascades.seed);
  cfg.telemetry.seed = u64_at("telemetry_seed", false, cfg.telemetry.seed);
  return cfg;
}

std::string repro_violated(const std::string& json) {
  const auto off = value_offset(json, "violated");
  if (off == std::string::npos) return "";
  const auto open = json.find('"', off);
  if (open == std::string::npos) return "";
  const auto close = json.find('"', open + 1);
  if (close == std::string::npos) return "";
  return json.substr(open + 1, close - open - 1);
}

ScenarioConfig load_repro_file(const std::string& path) {
  const auto bytes = read_file_bytes(path);
  return scenario_from_repro(std::string(bytes.begin(), bytes.end()));
}

std::string regression_stub(const std::string& repro_filename,
                            const std::string& violated) {
  std::string test_name = repro_filename;
  for (char& ch : test_name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  std::ostringstream out;
  out << "// Auto-generated by tools/proptest: shrunk repro for \"" << violated
      << "\".\n"
      << "// Commit " << repro_filename
      << " to tests/regressions/ alongside this test.\n"
      << "TEST(ProptestRegressions, " << test_name << ") {\n"
      << "  const dct::ScenarioConfig cfg = dct::testing::load_repro_file(\n"
      << "      std::string(DCT_REGRESSION_DIR) + \"/" << repro_filename
      << "\");\n"
      << "  dct::ClusterExperiment exp(cfg);\n"
      << "  exp.run();\n"
      << "  dct::testing::RunUnderTest run{exp};\n"
      << "  const auto report =\n"
      << "      dct::testing::InvariantRegistry::builtin().check_all(run);\n"
      << "  EXPECT_TRUE(report.ok()) << report.summary();\n"
      << "}\n";
  return out.str();
}

}  // namespace dct::testing
