// Packet-level single-bottleneck simulator for TCP incast (§4.4).
//
// The paper argues the measured cluster dodges incast because its
// preconditions never align: small bandwidth-delay product => tiny windows;
// shallow ToR buffers => synchronized drops; drops with tiny windows can't
// fast-retransmit and stall until a (200 ms!) retransmission timeout; and a
// barrier-synchronized application goes idle until the last flow finishes.
// Those are *packet-level* dynamics — invisible to the fluid model used for
// the cluster-scale simulations — so this module builds them directly:
//
//   N senders --> one drop-tail switch queue (B packets, rate C) --> receiver
//
// Each sender runs a compact TCP Reno-style loop: slow start, congestion
// avoidance, triple-duplicate-ACK fast retransmit, and a minimum-RTO
// timeout clock.  The synchronized-fetch experiment starts all N transfers
// at t=0 and measures barrier goodput (total bytes / time until the LAST
// sender finishes) — the quantity that collapses in the classic incast
// papers (Vasudevan et al., SIGCOMM'09; Chen et al., WREN'09) once the
// fan-in overwhelms the buffer.
//
// The §4.4 connection: the cluster's applications cap simultaneously open
// connections (default 2) and stagger new fetches, so the switch never sees
// the synchronized burst.  The incast bench sweeps fan-in with and without
// that application-level cap.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dct {

/// Parameters of the bottleneck and the TCP loop.
struct IncastConfig {
  std::int32_t queue_packets = 64;     ///< shallow 2009-era ToR buffer
  TimeSec base_rtt = 0.0002;           ///< 200 us in-rack RTT
  TimeSec min_rto = 0.2;               ///< the 200 ms TCP minimum RTO
  TimeSec max_time = 30.0;             ///< simulation safety horizon

  void validate() const;
};

/// Outcome of one synchronized fetch.
struct IncastResult {
  double barrier_goodput = 0;     ///< bytes/s until the LAST sender finished
  double mean_flow_goodput = 0;   ///< mean of per-sender goodputs
  TimeSec barrier_finish = 0;     ///< when the last sender finished
  std::int64_t packets_dropped = 0;
  std::int64_t timeouts = 0;      ///< RTO events across all senders
  std::int64_t fast_retransmits = 0;
  bool completed = true;          ///< false if the horizon expired first
};

/// Runs one synchronized fetch: `senders` flows of `bytes_per_sender` each,
/// all starting at t = 0, sharing the bottleneck.  Deterministic.
[[nodiscard]] IncastResult run_incast(const IncastConfig& config, std::int32_t senders,
                                      Bytes bytes_per_sender);

/// Runs the same total transfer but with at most `window` senders active at
/// once (the application-level connection cap of §4.4): when one transfer
/// finishes, the next starts.  Same total bytes, same bottleneck.
[[nodiscard]] IncastResult run_incast_capped(const IncastConfig& config,
                                             std::int32_t senders,
                                             Bytes bytes_per_sender,
                                             std::int32_t window);

/// One point of the collapse curve.
struct IncastSweepPoint {
  std::int32_t senders = 0;
  IncastResult uncapped;
  IncastResult capped;
};

/// Sweeps fan-in over `fanins`, comparing synchronized (uncapped) fetches
/// against the application-capped pattern with the given window.
[[nodiscard]] std::vector<IncastSweepPoint> incast_sweep(
    const IncastConfig& config, const std::vector<std::int32_t>& fanins,
    Bytes bytes_per_sender, std::int32_t cap_window);

}  // namespace dct
