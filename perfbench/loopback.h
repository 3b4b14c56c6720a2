// The loopback pass of the traced run: the one place the benchmark
// measures src/runtime (epoll, framing, timers) on real sockets.
//
// The directory, a master, an auditor and a slave run as separate node
// processes (tools/sdrnode.cc, built by perfbench/CMakeLists.txt) on
// 127.0.0.1. The benchmark process hosts the single load-generating client
// on a RealEnv and drives it through Client::IssueRead/IssueWrite in a
// closed loop with up to 4 operations outstanding (no more than the host's
// cores), 2% of them writes. Queries and
// writes come from the seed; only the RealEnv transport counters and the
// accepted reads are reported, no wall-clock figure, so nothing here is
// held to a regression bound.
#ifndef PERFBENCH_LOOPBACK_H_
#define PERFBENCH_LOOPBACK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/workload.h"

namespace perfbench {

struct LoopbackOptions {
  uint64_t seed = 1;
  size_t n_items = 200;
  sdr::QueryMix mix;
  int ops = 1000;           // reads plus writes, issued in a closed loop
  std::string node_binary;  // the sdrnode executable
  std::string work_dir;     // node configs, reports and logs
};

struct LoopbackResult {
  uint64_t reads_attempted = 0, reads_accepted = 0;
  uint64_t writes_attempted = 0, writes_committed = 0;
  // The client's RealEnv counters.
  uint64_t messages_sent = 0, bytes_sent = 0, reconnects = 0;
  std::vector<std::string> problems;  // correctness violations
};

// Launches the node processes, runs the closed loop, stops and reaps every
// process, then re-executes each accepted read against the benchmark's own
// replay of the base content plus the writes it committed.
LoopbackResult RunLoopback(const LoopbackOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LOOPBACK_H_
