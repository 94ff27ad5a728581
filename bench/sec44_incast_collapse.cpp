// §4.4 packet-level companion: the incast collapse the cluster avoids.
//
// The fluid cluster simulator shows the *preconditions* stay benign
// (sec44_incast_preconditions); this bench shows, at packet level, what
// would happen if they didn't.  N synchronized senders answer a fetch
// through one shallow-buffered ToR port: beyond a modest fan-in the
// barrier goodput collapses as tiny-window flows lose whole windows and
// sit out 200 ms retransmission timeouts (Vasudevan et al., Chen et al.).
// The application-level connection cap of 2 — the cluster's actual
// engineering — keeps goodput near line rate at every fan-in.
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "packetsim/incast_sim.h"

int main(int argc, char** argv) {
  dct::Bytes sru = 256 * 1024;
  if (argc > 1) {
    sru = dct::cli::number_value<dct::Bytes>(argv[0], "transfer size", argv[1]);
    if (sru <= 0) dct::cli::bad_value(argv[0], "transfer size", argv[1]);
  }

  const std::string size =
      sru < 1024 ? std::to_string(sru) + " bytes"
                 : dct::TextTable::num(static_cast<double>(sru) / 1024) + " KiB";
  std::cout << "=== Section 4.4: TCP incast collapse vs the connection cap ===\n"
            << "(1 Gbps bottleneck, 64-packet queue, 200 us RTT, 200 ms min RTO,\n"
            << " " << size << " per sender, barrier-synchronized)\n\n";

  dct::IncastConfig cfg;
  const std::vector<std::int32_t> fanins = {1, 2, 4, 8, 12, 16, 24, 32, 48, 64};
  const auto sweep = dct::incast_sweep(cfg, fanins, sru, 2);

  dct::TextTable t("barrier goodput (Mbps) vs fan-in");
  t.header({"senders", "synchronized (no cap)", "RTOs", "app cap = 2", "RTOs (capped)"});
  for (const auto& p : sweep) {
    t.row({std::to_string(p.senders),
           dct::TextTable::num(p.uncapped.barrier_goodput * 8.0 / 1e6),
           std::to_string(p.uncapped.timeouts),
           dct::TextTable::num(p.capped.barrier_goodput * 8.0 / 1e6),
           std::to_string(p.capped.timeouts)});
  }
  t.print(std::cout);
  std::cout << '\n';

  // Headline: collapse factor at high fan-in.
  const auto& high = sweep.back();
  dct::TextTable h("headline");
  h.header({"quantity", "incast literature / paper", "this simulator"});
  h.row({"collapse at high fan-in", "order-of-magnitude goodput loss",
         dct::TextTable::num(high.capped.barrier_goodput /
                             std::max(high.uncapped.barrier_goodput, 1.0)) +
             "x gap at fan-in " + std::to_string(high.senders)});
  h.row({"mechanism", "whole-window losses -> 200 ms RTO idling",
         std::to_string(high.uncapped.timeouts) + " RTOs uncapped vs " +
             std::to_string(high.capped.timeouts) + " capped"});
  h.row({"paper's defense", "cap simultaneously open connections (default 2)",
         "cap keeps goodput near line rate at every fan-in"});
  h.print(std::cout);
  return 0;
}
