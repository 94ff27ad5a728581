#include "flowsim/flowsim.h"

#include <algorithm>
#include <cmath>

#include "common/require.h"

namespace dct {

std::string_view to_string(FlowKind kind) {
  switch (kind) {
    case FlowKind::kBlockRead: return "block_read";
    case FlowKind::kShuffle: return "shuffle";
    case FlowKind::kReplicaWrite: return "replica_write";
    case FlowKind::kIngest: return "ingest";
    case FlowKind::kEgress: return "egress";
    case FlowKind::kEvacuation: return "evacuation";
    case FlowKind::kControl: return "control";
    case FlowKind::kOther: return "other";
  }
  return "unknown";
}

void FlowSimConfig::validate() const {
  // Finite too: a run over an infinite horizon never ends.
  require(std::isfinite(end_time) && end_time > 0,
          "FlowSimConfig: end_time must be finite and > 0");
  require(recompute_interval >= 0, "FlowSimConfig: recompute_interval must be >= 0");
  require(util_bin_width > 0, "FlowSimConfig: util_bin_width must be > 0");
  // The constructor casts this ratio to a size_t utilization-bin count.
  require(end_time / util_bin_width < 0x1p63,
          "FlowSimConfig: end_time / util_bin_width overflows the bin count");
  // Written so that NaN fails too: a NaN cap would silently run uncapped.
  require(per_flow_rate_cap >= 0, "FlowSimConfig: per_flow_rate_cap must be >= 0");
  require(fail_rate_floor >= 0, "FlowSimConfig: fail_rate_floor must be >= 0");
  require(fail_timeout > 0, "FlowSimConfig: fail_timeout must be > 0");
  require(connect_share_floor >= 0, "FlowSimConfig: connect_share_floor must be >= 0");
  require(connect_fail_max_prob >= 0 && connect_fail_max_prob <= 1,
          "FlowSimConfig: connect_fail_max_prob must be in [0,1]");
}

FlowSim::FlowSim(const Topology& topo, FlowSimConfig config)
    : topo_(topo), config_(config), rng_(config.seed) {
  config_.validate();
  const auto n_links = static_cast<std::size_t>(topo_.link_count());
  const auto n_bins =
      static_cast<std::size_t>(std::ceil(config_.end_time / config_.util_bin_width));
  link_series_.reserve(n_links);
  for (std::size_t l = 0; l < n_links; ++l) {
    link_series_.emplace_back(0.0, config_.util_bin_width, std::max<std::size_t>(1, n_bins));
  }
  link_residual_.resize(n_links, 0.0);
  link_nflows_.resize(n_links, 0);
  link_flows_.resize(n_links);
  used_pos_.resize(n_links, 0);
  link_cap_factor_.resize(n_links, 1.0);
}

void FlowSim::push_event(Event e) {
  e.seq = seq_++;
  events_.push(e);
}

void FlowSim::at(TimeSec t, UserCallback fn) {
  require(t >= now_, "FlowSim::at: cannot schedule in the past");
  require(fn != nullptr, "FlowSim::at: null callback");
  Event e{};
  e.time = t;
  e.kind = EventKind::kUser;
  if (free_user_slots_.empty()) {
    e.user_index = static_cast<std::uint32_t>(user_callbacks_.size());
    user_callbacks_.push_back(std::move(fn));
  } else {
    e.user_index = free_user_slots_.back();
    free_user_slots_.pop_back();
    user_callbacks_[e.user_index] = std::move(fn);
  }
  push_event(e);
}

std::ptrdiff_t FlowSim::slot_of(std::int32_t flow_id) const {
  if (flow_id < 0 || static_cast<std::size_t>(flow_id) >= slot_by_flow_.size()) return -1;
  return slot_by_flow_[static_cast<std::size_t>(flow_id)];
}

FlowId FlowSim::start_flow(const FlowSpec& spec, CompletionCallback on_complete) {
  require(spec.bytes >= 0, "start_flow: negative byte count");
  const FlowId id{static_cast<std::int32_t>(started_)};
  ++started_;
  DCT_OBS_INC(m_flows_started_);
  slot_by_flow_.push_back(-1);

  ActiveFlow f;
  f.id = id;
  f.spec = spec;
  bool routed = true;
  if (net_ != nullptr) {
    routed = net_->route_into(spec.src, spec.dst, f.path);
  } else {
    topo_.route_into(spec.src, spec.dst, f.path);
  }
  f.remaining = static_cast<double>(spec.bytes);
  f.start = now_;
  f.last_deposit = now_;
  f.on_complete = std::move(on_complete);

  // A severed path (device failure) fails the connection outright, before
  // the probabilistic congestion model — and without an rng draw, so the
  // no-fault stream of coin flips is untouched.
  if (!routed) {
    FlowRecord rec = base_record(f);
    rec.failed = true;
    ++failed_;
    ++fault_killed_;
    DCT_OBS_INC(m_flows_failed_);
    DCT_OBS_INC(m_fault_kills_);
    emit(rec);
    if (f.on_complete && now_ < config_.end_time) f.on_complete(*this, rec);
    return id;
  }

  // Connection-establishment failure: if the prospective fair share on the
  // bottleneck link is under the floor, the attempt may fail outright
  // (queues full at the bottleneck; the SYN-timeout analogue).
  bool connect_failed = false;
  if (!f.path.empty() && spec.bytes > 0 && now_ < config_.end_time &&
      config_.connect_share_floor > 0) {
    double share = std::numeric_limits<double>::infinity();
    for (LinkId l : f.path) {
      const auto li = static_cast<std::size_t>(l.value());
      share = std::min(share, topo_.link(l).capacity * link_cap_factor_[li] /
                                  static_cast<double>(link_flows_[li].size() + 1));
    }
    if (share < config_.connect_share_floor) {
      const double overload = config_.connect_share_floor / std::max(share, 1.0);
      const double p =
          std::min(config_.connect_fail_max_prob, 0.25 * (overload - 1.0));
      connect_failed = p > 0 && rng_.bernoulli(p);
    }
  }
  if (connect_failed) {
    FlowRecord rec = base_record(f);
    rec.failed = true;
    ++failed_;
    DCT_OBS_INC(m_flows_failed_);
    DCT_OBS_INC(m_connect_failures_);
    emit(rec);
    if (f.on_complete) f.on_complete(*this, rec);
    return id;
  }

  // Degenerate flows (zero bytes, loopback, or started while draining the
  // horizon) finalize immediately without entering the network.
  if (spec.bytes == 0 || f.path.empty() || now_ >= config_.end_time) {
    FlowRecord rec = base_record(f);
    rec.bytes_sent = (f.path.empty() && now_ < config_.end_time) ? spec.bytes : 0;
    rec.truncated = now_ >= config_.end_time && spec.bytes > 0 && !f.path.empty();
    emit(rec);
    // No completion callback while draining: a callback that immediately
    // starts another flow would otherwise loop forever at the horizon.
    if (f.on_complete && now_ < config_.end_time) f.on_complete(*this, rec);
    return id;
  }

  slot_by_flow_[static_cast<std::size_t>(id.value())] =
      static_cast<std::int32_t>(active_.size());
  active_.push_back(std::move(f));
  attach(active_.size() - 1);
  dirty_ = true;
  schedule_recompute();
  return id;
}

void FlowSim::attach(std::size_t slot) {
  ActiveFlow& f = active_[slot];
  f.link_pos.resize(f.path.size());
  for (std::size_t h = 0; h < f.path.size(); ++h) {
    const auto li = static_cast<std::size_t>(f.path[h].value());
    auto& list = link_flows_[li];
    if (list.empty()) {
      used_pos_[li] = static_cast<std::uint32_t>(used_links_.size());
      used_links_.push_back(f.path[h].value());
    }
    f.link_pos[h] = static_cast<std::uint32_t>(list.size());
    list.push_back({static_cast<std::uint32_t>(slot), static_cast<std::uint32_t>(h)});
  }
}

void FlowSim::detach(std::size_t slot) {
  ActiveFlow& f = active_[slot];
  for (std::size_t h = 0; h < f.path.size(); ++h) {
    const auto li = static_cast<std::size_t>(f.path[h].value());
    auto& list = link_flows_[li];
    // Swap-remove this flow's entry and tell the entry moved into its place.
    const LinkEntry moved = list.back();
    list[f.link_pos[h]] = moved;
    active_[moved.slot].link_pos[moved.hop] = f.link_pos[h];
    list.pop_back();
    if (list.empty()) {
      const std::uint32_t pos = used_pos_[li];
      used_links_[pos] = used_links_.back();
      used_pos_[static_cast<std::size_t>(used_links_[pos])] = pos;
      used_links_.pop_back();
    }
  }
}

void FlowSim::schedule_recompute() {
  if (recompute_scheduled_) return;
  recompute_scheduled_ = true;
  Event e{};
  e.time = std::max(now_, last_recompute_ + config_.recompute_interval);
  e.kind = EventKind::kRecompute;
  push_event(e);
}

void FlowSim::deposit(ActiveFlow& f, TimeSec up_to) {
  const TimeSec dt = up_to - f.last_deposit;
  if (dt <= 0) return;
  const double moved = std::min(f.remaining, f.rate * dt);
  if (moved > 0) {
    // Every link series has one shape, and the flows a recompute deposits
    // nearly all cover [previous recompute, now]: that interval is split
    // into bins once, not once per flow and link.
    if (deposit_split_.start != f.last_deposit || deposit_split_.end != up_to) {
      link_series_.front().split_interval(f.last_deposit, up_to, deposit_split_);
    }
    for (LinkId l : f.path) {
      link_series_[static_cast<std::size_t>(l.value())].add_split(deposit_split_, moved);
    }
    f.remaining -= moved;
  }
  f.last_deposit = up_to;
}

void FlowSim::recompute_rates() {
  ++recomputes_;
  DCT_OBS_INC(m_recomputes_);
  DCT_OBS_SET(m_active_flows_, active_.size());
  const obs::ScopedTimer obs_timer(m_recompute_ns_);
  last_recompute_ = now_;
  dirty_ = false;
  // Every active flow's generation moves below, so every queued completion
  // is stale from here on.
  completions_.clear();
  const std::size_t n = active_.size();
  if (n == 0) return;

  // Account utilization at the outgoing rates before changing them.
  for (auto& f : active_) deposit(f, now_);

  // --- Progressive filling (water-filling) max-min fair allocation. -------
  // Phase 1: reset the used links' residuals and flow counts (link_nflows_
  // is mutated while freezing; the kept lists are not).  bind_links_ keeps
  // the links that can set the water level: those whose fair share is
  // within the freeze tolerance of the cap, or all of them when there is no
  // cap.  Any other link's share starts above bind_limit and only rises as
  // flows freeze below the cap, so it never comes within a freeze level
  // (< cap * (1 + 1e-9) + 1e-12) and skipping it leaves every freeze, and
  // so every rate, as it was.
  const double cap = config_.per_flow_rate_cap;
  const double bind_limit = cap * (1 + 1e-6) + 1e-12;
  bind_links_.clear();
  for (std::int32_t l : used_links_) {
    const auto li = static_cast<std::size_t>(l);
    link_residual_[li] = topo_.link(LinkId{l}).capacity * link_cap_factor_[li];
    link_nflows_[li] = static_cast<std::int32_t>(link_flows_[li].size());
    if (cap <= 0 || link_residual_[li] <= static_cast<double>(link_nflows_[li]) * bind_limit) {
      bind_links_.push_back(l);
    }
  }
  // Phase 2: iteratively freeze all links at the current minimum water
  // level.  Freezing every min-share link in one pass is exact (removing a
  // frozen flow from another min-share link keeps that link's share at the
  // water level) and collapses the homogeneous-capacity case into few
  // iterations.
  flow_frozen_.assign(n, 0);
  std::size_t unfrozen = n;
  std::size_t guard = 0;
  while (unfrozen > 0) {
    ensure(++guard <= bind_links_.size() + 2, "progressive filling failed to converge");
    double min_share = std::numeric_limits<double>::infinity();
    for (std::int32_t l : bind_links_) {
      const auto li = static_cast<std::size_t>(l);
      if (link_nflows_[li] <= 0) continue;
      const double share =
          std::max(0.0, link_residual_[li]) / static_cast<double>(link_nflows_[li]);
      min_share = std::min(min_share, share);
    }
    if (cap > 0 && min_share >= cap) {
      // The water level reached the per-flow ceiling: every remaining flow
      // is cap-limited, not link-limited (with a uniform cap this is exact).
      // Also when no bindable link has an unfrozen flow left (min_share is
      // infinite): the rest cross only links that cannot bind.
      for (std::size_t i = 0; i < n; ++i) {
        if (!flow_frozen_[i]) {
          flow_frozen_[i] = 1;
          active_[i].rate = cap;
        }
      }
      unfrozen = 0;
      break;
    }
    ensure(std::isfinite(min_share), "no constraining link for unfrozen flows");
    const double level = min_share * (1.0 + 1e-9) + 1e-12;
    for (std::int32_t l : bind_links_) {
      const auto li = static_cast<std::size_t>(l);
      if (link_nflows_[li] <= 0) continue;
      const double share =
          std::max(0.0, link_residual_[li]) / static_cast<double>(link_nflows_[li]);
      if (share > level) continue;
      for (const LinkEntry& e : link_flows_[li]) {
        const std::size_t fi = e.slot;
        if (flow_frozen_[fi]) continue;
        flow_frozen_[fi] = 1;
        active_[fi].rate = min_share;
        for (LinkId pl : active_[fi].path) {
          const auto pli = static_cast<std::size_t>(pl.value());
          link_residual_[pli] -= min_share;
          --link_nflows_[pli];
        }
        --unfrozen;
      }
    }
  }

  // Phase 3: bump generations, queue completions, arm stall events.
  for (std::size_t i = 0; i < n; ++i) {
    auto& f = active_[i];
    ++f.generation;
    if (f.rate > 0) {
      const TimeSec done = now_ + f.remaining / f.rate;
      if (done <= config_.end_time) {
        completions_.push_back({{done, seq_++}, f.id.value(), f.generation});
      }
    }
    if (f.rate < config_.fail_rate_floor) {
      if (f.stall_since < 0) {
        f.stall_since = now_;
        Event e{};
        e.time = now_ + config_.fail_timeout;
        e.kind = EventKind::kStall;
        e.flow_id = f.id.value();
        push_event(e);
      }
    } else {
      f.stall_since = -1;
    }
  }
  std::make_heap(completions_.begin(), completions_.end(), std::greater<>{});
}

FlowRecord FlowSim::base_record(const ActiveFlow& f) const {
  FlowRecord rec;
  rec.id = f.id;
  rec.src = f.spec.src;
  rec.dst = f.spec.dst;
  rec.bytes_requested = f.spec.bytes;
  rec.start = f.start;
  rec.end = now_;
  rec.job = f.spec.job;
  rec.phase = f.spec.phase;
  rec.kind = f.spec.kind;
  return rec;
}

void FlowSim::emit(const FlowRecord& rec) {
  if (config_.keep_records) records_.push_back(rec);
  if (record_sink_) record_sink_(rec);
  if (record_tap_) record_tap_(rec);
}

void FlowSim::finalize_flow(std::size_t slot, bool failed, bool truncated) {
  ensure(slot < active_.size(), "finalize_flow: bad slot");
  ActiveFlow& f = active_[slot];
  deposit(f, now_);

  FlowRecord rec = base_record(f);
  const double sent = static_cast<double>(f.spec.bytes) - f.remaining;
  rec.bytes_sent = std::clamp<Bytes>(static_cast<Bytes>(std::llround(sent)), 0, f.spec.bytes);
  if (!failed && !truncated) rec.bytes_sent = f.spec.bytes;
  rec.failed = failed;
  rec.truncated = truncated;

  if (failed) {
    ++failed_;
    DCT_OBS_INC(m_flows_failed_);
  } else if (truncated) {
    DCT_OBS_INC(m_flows_truncated_);
  } else {
    DCT_OBS_INC(m_flows_completed_);
  }
  DCT_OBS_ADD(m_bytes_delivered_, rec.bytes_sent);
  detach(slot);
  CompletionCallback cb = std::move(f.on_complete);

  // Swap-remove, then fix the moved flow's slot index and its list entries.
  slot_by_flow_[static_cast<std::size_t>(f.id.value())] = -1;
  if (slot != active_.size() - 1) {
    active_[slot] = std::move(active_.back());
    const ActiveFlow& moved = active_[slot];
    slot_by_flow_[static_cast<std::size_t>(moved.id.value())] = static_cast<std::int32_t>(slot);
    for (std::size_t h = 0; h < moved.path.size(); ++h) {
      link_flows_[static_cast<std::size_t>(moved.path[h].value())][moved.link_pos[h]].slot =
          static_cast<std::uint32_t>(slot);
    }
  }
  active_.pop_back();
  dirty_ = true;
  if (now_ < config_.end_time) schedule_recompute();

  emit(rec);
  if (cb && !truncated) cb(*this, rec);
}

void FlowSim::run() {
  require(!running_, "FlowSim::run: re-entrant call");
  if (ran_) return;
  running_ = true;

  while (!events_.empty() || !completions_.empty()) {
    const bool completion_next =
        !completions_.empty() &&
        (events_.empty() || events_.top() > completions_.front());
    const TimeSec t = completion_next ? completions_.front().time : events_.top().time;
    if (t > config_.end_time) break;
    ensure(t >= now_ - 1e-9, "event queue went backwards");
    now_ = std::max(now_, t);
    DCT_OBS_INC(m_events_);

    if (completion_next) {
      std::pop_heap(completions_.begin(), completions_.end(), std::greater<>{});
      const Completion c = completions_.back();
      completions_.pop_back();
      const std::ptrdiff_t slot = slot_of(c.flow_id);
      if (slot < 0) continue;  // already gone
      ActiveFlow& f = active_[static_cast<std::size_t>(slot)];
      if (f.generation != c.generation) continue;  // rerouted since the recompute
      deposit(f, now_);
      f.remaining = 0;  // absorb float residue: this event is the finish
      finalize_flow(static_cast<std::size_t>(slot), /*failed=*/false,
                    /*truncated=*/false);
      continue;
    }
    const Event e = events_.top();
    events_.pop();
    switch (e.kind) {
      case EventKind::kUser: {
        UserCallback cb = std::move(user_callbacks_[e.user_index]);
        free_user_slots_.push_back(e.user_index);
        if (cb) cb(*this);
        break;
      }
      case EventKind::kRecompute: {
        recompute_scheduled_ = false;
        if (dirty_) recompute_rates();
        break;
      }
      case EventKind::kStall: {
        const std::ptrdiff_t slot = slot_of(e.flow_id);
        if (slot < 0) break;
        ActiveFlow& f = active_[static_cast<std::size_t>(slot)];
        if (f.rate >= config_.fail_rate_floor || f.stall_since < 0) break;
        if (now_ - f.stall_since >= config_.fail_timeout - 1e-9) {
          finalize_flow(static_cast<std::size_t>(slot), /*failed=*/true,
                        /*truncated=*/false);
        } else {
          // The stall restarted since this event was queued; re-arm.
          Event re{};
          re.time = f.stall_since + config_.fail_timeout;
          re.kind = EventKind::kStall;
          re.flow_id = f.id.value();
          push_event(re);
        }
        break;
      }
    }
  }

  drain_horizon();
  running_ = false;
  ran_ = true;
}

FlowSim::NetworkChangeStats FlowSim::handle_network_change() {
  NetworkChangeStats stats;
  if (net_ == nullptr || active_.empty()) return stats;
  const obs::ScopedTimer obs_timer(m_network_change_ns_);

  // Snapshot the ids first: killing a flow swap-removes from active_.
  std::vector<std::int32_t> ids;
  ids.reserve(active_.size());
  for (const auto& f : active_) ids.push_back(f.id.value());

  std::vector<LinkId> fresh;
  for (std::int32_t id : ids) {
    const std::ptrdiff_t slot = slot_of(id);
    if (slot < 0) continue;
    ActiveFlow& f = active_[static_cast<std::size_t>(slot)];
    if (net_->path_alive(f.spec.src, f.spec.dst, f.path)) continue;
    deposit(f, now_);  // account bytes moved on the old path up to the fault
    if (net_->route_into(f.spec.src, f.spec.dst, fresh) && !fresh.empty()) {
      detach(static_cast<std::size_t>(slot));
      f.path = fresh;
      attach(static_cast<std::size_t>(slot));
      // Invalidate the completion queued at the old rate; the next
      // recompute reassigns a rate on the new path and re-queues it.
      ++f.generation;
      ++fault_rerouted_;
      ++stats.flows_rerouted;
      DCT_OBS_INC(m_fault_reroutes_);
    } else {
      ++fault_killed_;
      ++stats.flows_killed;
      DCT_OBS_INC(m_fault_kills_);
      finalize_flow(static_cast<std::size_t>(slot), /*failed=*/true,
                    /*truncated=*/false);
    }
  }

  if (stats.flows_killed > 0 || stats.flows_rerouted > 0) {
    dirty_ = true;
    if (now_ < config_.end_time) schedule_recompute();
  }
  return stats;
}

void FlowSim::bind_metrics(obs::Registry& registry) {
  m_flows_started_ = registry.counter("flowsim", "flows_started", "flows");
  m_flows_completed_ = registry.counter("flowsim", "flows_completed", "flows");
  m_flows_failed_ = registry.counter("flowsim", "flows_failed", "flows");
  m_flows_truncated_ = registry.counter("flowsim", "flows_truncated", "flows");
  m_connect_failures_ = registry.counter("flowsim", "connect_failures", "flows");
  m_fault_kills_ = registry.counter("flowsim", "fault_kills", "flows");
  m_fault_reroutes_ = registry.counter("flowsim", "fault_reroutes", "flows");
  m_bytes_delivered_ = registry.counter("flowsim", "bytes_delivered", "bytes");
  m_recomputes_ = registry.counter("flowsim", "recomputes", "passes");
  m_events_ = registry.counter("flowsim", "events_processed", "events");
  m_active_flows_ = registry.gauge("flowsim", "active_flows", "flows");
  m_recompute_ns_ = registry.histogram("flowsim", "recompute_wall_ns", "ns");
  m_network_change_ns_ = registry.histogram("flowsim", "network_change_wall_ns", "ns");
}

void FlowSim::set_link_capacity_factor(LinkId link, double factor) {
  require(link.valid() && link.value() < topo_.link_count(),
          "set_link_capacity_factor: bad link");
  require(factor > 0 && factor <= 1.0,
          "set_link_capacity_factor: factor must be in (0, 1]");
  auto& slot = link_cap_factor_[static_cast<std::size_t>(link.value())];
  if (slot == factor) return;
  slot = factor;
  // Active flows keep their rates until the next recompute applies the new
  // effective capacity (the same batching discipline as arrivals).
  dirty_ = true;
  if (now_ < config_.end_time) schedule_recompute();
}

double FlowSim::link_capacity_factor(LinkId link) const {
  require(link.valid() && link.value() < topo_.link_count(),
          "link_capacity_factor: bad link");
  return link_cap_factor_[static_cast<std::size_t>(link.value())];
}

void FlowSim::drain_horizon() {
  now_ = config_.end_time;
  while (!active_.empty()) {
    finalize_flow(active_.size() - 1, /*failed=*/false, /*truncated=*/true);
  }
}

const BinnedSeries& FlowSim::link_bytes(LinkId link) const {
  require(link.valid() && link.value() < topo_.link_count(), "link_bytes: bad link");
  return link_series_[static_cast<std::size_t>(link.value())];
}

BinnedSeries FlowSim::link_utilization(LinkId link) const {
  const BinnedSeries& bytes = link_bytes(link);
  const double denom = topo_.link(link).capacity * bytes.bin_width();
  BinnedSeries out(bytes.start_time(), bytes.bin_width(), bytes.bin_count());
  for (std::size_t i = 0; i < bytes.bin_count(); ++i) {
    out.add_point(bytes.bin_time(i), bytes.value(i) / denom);
  }
  return out;
}

void FlowSim::snapshot_link_rates(std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(topo_.link_count()), 0.0);
  for (const ActiveFlow& f : active_) {
    for (LinkId l : f.path) {
      out[static_cast<std::size_t>(l.value())] += f.rate;
    }
  }
}

}  // namespace dct
