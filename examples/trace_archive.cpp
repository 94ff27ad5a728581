// Example: the collect -> compress -> upload -> analyze pipeline.
//
// The paper's infrastructure parses events locally on each server,
// compresses the logs, and uploads them into the same distributed store the
// cluster computes on.  This example plays that pipeline end to end with
// the library's codec: simulate, serialize the cluster trace to a file,
// reload it, and verify that analyses on the reloaded trace agree with the
// original — plus report the compression the codec achieves.
#include <iostream>
#include <vector>

#include "analysis/flowstats.h"
#include "common/fsio.h"
#include "common/table.h"
#include "core/cli.h"
#include "core/experiment.h"
#include "trace/codec.h"

int main(int argc, char** argv) {
  const double duration = dct::cli::duration_arg(argc, argv, 120.0);
  const char* path = argc > 2 ? argv[2] : "/tmp/dctraffic_trace.bin";

  dct::ClusterExperiment exp(dct::scenarios::canonical(duration, 42));
  exp.run();
  const dct::ClusterTrace& trace = exp.trace();

  // "Compress and upload" — atomically, the way the checkpoint subsystem
  // writes its artifacts: a crash mid-upload never leaves a torn archive.
  const auto encoded = dct::encode_trace(trace);
  dct::atomic_write_file(path, encoded);

  // Size accounting against the naive fixed-width dump.
  std::size_t raw = 0;
  for (std::int32_t s = 0; s < trace.server_count(); ++s) {
    raw += dct::raw_encoding_size(trace.server_log(dct::ServerId{s}).size());
  }

  // "Download and analyze".
  const std::vector<std::uint8_t> loaded = dct::read_file_bytes(path);
  const dct::ClusterTrace reloaded = dct::decode_trace(loaded);

  const auto orig_stats = dct::flow_duration_stats(trace);
  const auto back_stats = dct::flow_duration_stats(reloaded);

  dct::TextTable t("trace archive round trip");
  t.header({"quantity", "value"});
  t.row({"flows captured", std::to_string(trace.flow_count())});
  t.row({"archive file", path});
  t.row({"encoded size (MB)", dct::TextTable::num(double(encoded.size()) / 1e6)});
  t.row({"fixed-width dump size (MB)", dct::TextTable::num(double(raw) / 1e6)});
  t.row({"compression vs raw dump",
         dct::TextTable::num(double(raw) / double(encoded.size())) + "x"});
  t.row({"bytes logged per server (MB)",
         dct::TextTable::num(double(encoded.size()) / 1e6 /
                             double(trace.server_count()))});
  t.row({"reloaded flows match", reloaded.flow_count() == trace.flow_count() ? "yes" : "NO"});
  t.row({"reloaded bytes match",
         reloaded.total_bytes() == trace.total_bytes() ? "yes" : "NO"});
  t.row({"analysis identical (P(flow<10s))",
         dct::TextTable::num(orig_stats.frac_flows_under_10s, 6) + " vs " +
             dct::TextTable::num(back_stats.frac_flows_under_10s, 6)});
  t.print(std::cout);
  return 0;
}
