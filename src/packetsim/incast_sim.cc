#include "packetsim/incast_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "common/require.h"

namespace dct {

void IncastConfig::validate() const {
  require(queue_packets >= 1, "IncastConfig: queue must hold at least one packet");
  require(base_rtt > 0, "IncastConfig: RTT must be > 0");
  require(min_rto > base_rtt, "IncastConfig: RTO must exceed the RTT");
  require(max_time > 0, "IncastConfig: horizon must be > 0");
}

namespace {

// The bottleneck's service rate and packet size: the cluster's 1 Gbps
// links and 1500-byte packets.
constexpr BytesPerSec kLinkRate = gbps(1.0);
constexpr std::int32_t kMtuBytes = 1500;
static_assert(kLinkRate > 0 && kMtuBytes >= 64);

// Each sender's initial congestion window, and the receive-window clamp on
// it, in packets.
constexpr std::int32_t kInitialCwnd = 2;
constexpr std::int32_t kMaxCwnd = 64;
static_assert(kInitialCwnd >= 1 && kMaxCwnd >= kInitialCwnd);

/// One sender's TCP state (Reno-style, packet-granularity).
struct Sender {
  std::int32_t total = 0;         // packets to deliver
  std::int32_t next_to_send = 0;  // next new sequence number
  std::int32_t acked = 0;         // all seq < acked are cumulatively acked
  double cwnd = 2;
  double ssthresh = 1e9;
  std::int32_t dupacks = 0;
  bool in_recovery = false;
  std::int32_t recover = 0;       // recovery exit point
  std::uint32_t rto_gen = 0;      // invalidates stale RTO events
  bool started = false;
  bool finished = false;
  TimeSec start_time = 0;
  TimeSec finish_time = 0;
  // Receiver side for this flow.
  std::vector<bool> received;
  std::int32_t recv_next = 0;
};

struct Event {
  TimeSec time;
  std::uint64_t seq;
  enum class Kind : std::uint8_t { kService, kAck, kRto } kind;
  std::int32_t sender = -1;
  std::int32_t value = 0;        // kAck: cumulative ack number
  std::uint32_t generation = 0;  // kRto

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

class IncastSim {
 public:
  IncastSim(const IncastConfig& cfg, std::int32_t senders, Bytes bytes_per_sender,
            std::int32_t active_window)
      : cfg_(cfg), window_(active_window) {
    cfg_.validate();
    require(senders >= 1, "run_incast: need at least one sender");
    require(bytes_per_sender > 0, "run_incast: need positive transfer size");
    const auto pkts = static_cast<std::int32_t>(
        (bytes_per_sender + kMtuBytes - 1) / kMtuBytes);
    senders_.resize(static_cast<std::size_t>(senders));
    for (auto& s : senders_) {
      s.total = pkts;
      s.cwnd = kInitialCwnd;
      s.received.assign(static_cast<std::size_t>(pkts), false);
    }
    service_time_ = static_cast<double>(kMtuBytes) / kLinkRate;
  }

  IncastResult run() {
    // Kick off the first `window_` transfers simultaneously (the
    // synchronized fetch); the rest start as predecessors finish.
    const auto initial = std::min<std::size_t>(static_cast<std::size_t>(window_),
                                               senders_.size());
    for (std::size_t i = 0; i < initial; ++i) start_sender(static_cast<std::int32_t>(i));
    next_unstarted_ = static_cast<std::int32_t>(initial);

    while (!events_.empty()) {
      const Event e = events_.top();
      events_.pop();
      if (e.time > cfg_.max_time) break;
      now_ = e.time;
      switch (e.kind) {
        case Event::Kind::kService: handle_service(); break;
        case Event::Kind::kAck: handle_ack(e.sender, e.value); break;
        case Event::Kind::kRto: handle_rto(e.sender, e.generation); break;
      }
      if (finished_count_ == static_cast<std::int32_t>(senders_.size())) break;
    }

    IncastResult res;
    res.packets_dropped = dropped_;
    res.timeouts = timeouts_;
    res.fast_retransmits = fast_retransmits_;
    res.completed = finished_count_ == static_cast<std::int32_t>(senders_.size());
    double total_bytes = 0;
    double goodput_sum = 0;
    TimeSec last = 0;
    for (const auto& s : senders_) {
      const double done_pkts = static_cast<double>(s.finished ? s.total : s.acked);
      total_bytes += done_pkts * kMtuBytes;
      const TimeSec end = s.finished ? s.finish_time : cfg_.max_time;
      last = std::max(last, end);
      if (s.started && end > s.start_time) {
        goodput_sum += done_pkts * kMtuBytes / (end - s.start_time);
      }
    }
    res.barrier_finish = last;
    res.barrier_goodput = last > 0 ? total_bytes / last : 0;
    res.mean_flow_goodput =
        senders_.empty() ? 0 : goodput_sum / static_cast<double>(senders_.size());
    return res;
  }

 private:
  void push(Event e) {
    e.seq = seq_++;
    events_.push(e);
  }

  void start_sender(std::int32_t idx) {
    auto& s = senders_[static_cast<std::size_t>(idx)];
    s.started = true;
    s.start_time = now_;
    arm_rto(idx);
    try_send(idx);
  }

  void arm_rto(std::int32_t idx) {
    auto& s = senders_[static_cast<std::size_t>(idx)];
    ++s.rto_gen;
    Event e{};
    e.time = now_ + cfg_.min_rto;
    e.kind = Event::Kind::kRto;
    e.sender = idx;
    e.generation = s.rto_gen;
    push(e);
  }

  void enqueue_packet(std::int32_t sender, std::int32_t seq_no) {
    if (static_cast<std::int32_t>(queue_.size()) >= cfg_.queue_packets) {
      ++dropped_;
      return;
    }
    queue_.emplace_back(sender, seq_no);
    if (!busy_) {
      busy_ = true;
      Event e{};
      e.time = now_ + service_time_;
      e.kind = Event::Kind::kService;
      push(e);
    }
  }

  void try_send(std::int32_t idx) {
    auto& s = senders_[static_cast<std::size_t>(idx)];
    if (!s.started || s.finished) return;
    const auto wnd = static_cast<std::int32_t>(
        std::min<double>(std::floor(s.cwnd), kMaxCwnd));
    while (s.next_to_send < s.total && s.next_to_send - s.acked < wnd) {
      enqueue_packet(idx, s.next_to_send++);
    }
  }

  void handle_service() {
    ensure(!queue_.empty(), "service event with empty queue");
    const auto [sender, seq_no] = queue_.front();
    queue_.pop_front();
    if (queue_.empty()) {
      busy_ = false;
    } else {
      Event next{};
      next.time = now_ + service_time_;
      next.kind = Event::Kind::kService;
      push(next);
    }
    // Packet reaches the receiver after rtt/2; the cumulative ACK reaches
    // the sender another rtt/2 later.  ACK value is computed at receipt.
    auto& s = senders_[static_cast<std::size_t>(sender)];
    if (seq_no < s.total && !s.received[static_cast<std::size_t>(seq_no)]) {
      s.received[static_cast<std::size_t>(seq_no)] = true;
    }
    // Receiver state advances when the packet *arrives*; since no events
    // interleave receiver-side per-flow state between now and arrival that
    // could reorder (the queue is the only shared resource and preserves
    // order), computing the cumulative ack eagerly is equivalent.
    while (s.recv_next < s.total && s.received[static_cast<std::size_t>(s.recv_next)]) {
      ++s.recv_next;
    }
    Event ack{};
    ack.time = now_ + cfg_.base_rtt;
    ack.kind = Event::Kind::kAck;
    ack.sender = sender;
    ack.value = s.recv_next;
    push(ack);
  }

  void finish_sender(std::int32_t idx) {
    auto& s = senders_[static_cast<std::size_t>(idx)];
    s.finished = true;
    s.finish_time = now_;
    ++s.rto_gen;  // cancel any pending timer
    ++finished_count_;
    // The application-level window: a finished transfer releases a slot.
    if (next_unstarted_ < static_cast<std::int32_t>(senders_.size())) {
      start_sender(next_unstarted_++);
    }
  }

  void handle_ack(std::int32_t idx, std::int32_t ackno) {
    auto& s = senders_[static_cast<std::size_t>(idx)];
    if (s.finished || !s.started) return;

    if (ackno > s.acked) {
      // New cumulative ACK.
      s.acked = ackno;
      s.dupacks = 0;
      arm_rto(idx);
      if (s.in_recovery) {
        if (ackno >= s.recover) {
          s.in_recovery = false;
          s.cwnd = s.ssthresh;
        } else {
          // NewReno partial ack: the next hole was also lost; resend it.
          enqueue_packet(idx, s.acked);
        }
      } else if (s.cwnd < s.ssthresh) {
        s.cwnd += 1.0;  // slow start
      } else {
        s.cwnd += 1.0 / std::max(s.cwnd, 1.0);  // congestion avoidance
      }
      if (s.acked >= s.total) {
        finish_sender(idx);
        return;
      }
      try_send(idx);
      return;
    }

    // Duplicate ACK.
    ++s.dupacks;
    if (!s.in_recovery && s.dupacks == 3) {
      ++fast_retransmits_;
      const double flight = std::max<double>(s.next_to_send - s.acked, 1.0);
      s.ssthresh = std::max(flight / 2.0, 2.0);
      s.cwnd = s.ssthresh;
      s.in_recovery = true;
      s.recover = s.next_to_send;
      enqueue_packet(idx, s.acked);  // fast retransmit of the hole
      arm_rto(idx);
    }
  }

  void handle_rto(std::int32_t idx, std::uint32_t generation) {
    auto& s = senders_[static_cast<std::size_t>(idx)];
    if (s.finished || !s.started || generation != s.rto_gen) return;
    ++timeouts_;
    s.ssthresh = std::max(s.cwnd / 2.0, 2.0);
    s.cwnd = 1.0;
    s.dupacks = 0;
    s.in_recovery = false;
    enqueue_packet(idx, s.acked);  // go-back to the first unacked packet
    arm_rto(idx);
  }

  IncastConfig cfg_;
  std::int32_t window_;
  std::vector<Sender> senders_;
  std::deque<std::pair<std::int32_t, std::int32_t>> queue_;
  bool busy_ = false;
  double service_time_ = 0;
  TimeSec now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::int32_t finished_count_ = 0;
  std::int32_t next_unstarted_ = 0;
  std::int64_t dropped_ = 0;
  std::int64_t timeouts_ = 0;
  std::int64_t fast_retransmits_ = 0;
};

}  // namespace

IncastResult run_incast(const IncastConfig& config, std::int32_t senders,
                        Bytes bytes_per_sender) {
  IncastSim sim(config, senders, bytes_per_sender, senders);
  return sim.run();
}

IncastResult run_incast_capped(const IncastConfig& config, std::int32_t senders,
                               Bytes bytes_per_sender, std::int32_t window) {
  require(window >= 1, "run_incast_capped: window must be >= 1");
  IncastSim sim(config, senders, bytes_per_sender, window);
  return sim.run();
}

std::vector<IncastSweepPoint> incast_sweep(const IncastConfig& config,
                                           const std::vector<std::int32_t>& fanins,
                                           Bytes bytes_per_sender,
                                           std::int32_t cap_window) {
  std::vector<IncastSweepPoint> out;
  out.reserve(fanins.size());
  for (std::int32_t n : fanins) {
    IncastSweepPoint point;
    point.senders = n;
    point.uncapped = run_incast(config, n, bytes_per_sender);
    point.capped = run_incast_capped(config, n, bytes_per_sender, cap_window);
    out.push_back(point);
  }
  return out;
}

}  // namespace dct
