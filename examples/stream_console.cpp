// An operator console over live streams: registers per-interface streams
// with the QueryEngine, replays a day of traffic, then runs a scripted
// operator session through the textual query language (pass queries on
// stdin to run your own, one per line).
//
//   ./build/examples/stream_console
//   echo "SUM eth0 LAST 60" | ./build/examples/stream_console -
//
// Everything answered here comes from compact synopses: the
// (1+eps)-approximate window histogram, a GK quantile summary and an FM
// distinct sketch. The raw stream is never stored beyond the sliding
// window.

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "src/data/generators.h"
#include "src/engine/query_engine.h"

namespace {

void RunStatement(streamhist::QueryEngine& engine, const std::string& stmt) {
  const auto result = engine.Execute(stmt);
  if (result.ok()) {
    std::printf("streamhist> %-28s => %s\n", stmt.c_str(),
                result.value().c_str());
  } else {
    std::printf("streamhist> %-28s !! %s\n", stmt.c_str(),
                result.status().ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace streamhist;

  QueryEngine engine;
  StreamConfig config;
  config.window_size = 1024;
  config.num_buckets = 16;
  config.epsilon = 0.1;

  for (const char* name : {"eth0", "eth1"}) {
    if (Status s = engine.CreateStream(name, config); !s.ok()) {
      std::fprintf(stderr, "create %s: %s\n", name, s.ToString().c_str());
      return 1;
    }
  }

  // Replay a day of traffic into both interfaces.
  UtilizationOptions bursty;
  bursty.burst_probability = 0.01;
  bursty.burst_magnitude = 30000.0;
  (void)engine.AppendBatch(
      "eth0", GenerateUtilizationSeries(20000, UtilizationOptions{}, 1));
  (void)engine.AppendBatch("eth1", GenerateUtilizationSeries(20000, bursty, 2));

  if (argc > 1 && std::strcmp(argv[1], "-") == 0) {
    // Interactive / piped mode: one statement per line on stdin.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) RunStatement(engine, line);
    }
    return 0;
  }

  // Scripted operator session.
  const char* session[] = {
      "LIST",
      "COUNT eth0",
      "DESCRIBE eth0",
      "SUM eth0 LAST 60",
      "SUMBOUND eth0 LAST 60",
      "SUM eth0 LAST 600",
      "AVG eth0 0 1024",
      "POINT eth0 1023",
      "QUANTILE eth0 0.5",
      "QUANTILE eth0 0.99",
      "DISTINCT eth0",
      "ERROR eth0",
      "SUM eth1 LAST 60",
      "QUANTILE eth1 0.99",
      "SHOW eth1",
      "SUM eth1 900 2000",   // out of range: reported, not fatal
      "QUANTILE eth2 0.5",   // unknown stream: reported, not fatal
  };
  for (const char* stmt : session) RunStatement(engine, stmt);
  return 0;
}
