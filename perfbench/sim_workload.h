// The simulator workloads: point_reads, grep_audit and sharded_writes.
//
// Each drives a Cluster of kManual clients through public entry points
// only: the benchmark generates every query, write and Poisson arrival time
// from its own seed, schedules the arrivals on the Simulator, calls
// Client::IssueRead/IssueWrite when they fall due, and advances time with
// Cluster::RunFor (untraced) or Simulator::Step (traced). Latencies are in
// simulated time and are deterministic per seed; host time is measured
// around the simulator calls.
#ifndef PERFBENCH_SIM_WORKLOAD_H_
#define PERFBENCH_SIM_WORKLOAD_H_

#include <string>
#include <vector>

#include "common.h"
#include "src/core/cluster.h"

namespace perfbench {

struct SimWorkload {
  std::string name;
  sdr::ClusterConfig config;
  double offered_ops_per_s = 0;  // Poisson rate, simulated seconds
  double write_fraction = 0;
  sdr::SimTime load_duration = 0;  // arrival window
  // grep_audit: this global slave index starts lying with
  // `lie_probability` once `liar_on_after` of the window has passed.
  int liar_slave = -1;
  sdr::SimTime liar_on_after = 0;
  double lie_probability = 0;
  // A tail percentile is reported only with this many samples beyond it.
  // The self-test lowers it to see every metric at a tiny size.
  size_t tail_min_beyond = 10;
  // Operations of the traced run's loopback pass (see loopback.h).
  int loopback_ops = 1000;
};

// Fills `out` for a simulator workload name; false for any other name.
bool MakeSimWorkload(const std::string& name, SimWorkload* out);

// Runs the workload for one benchmark invocation. Untraced, it makes timed
// repeats of the same seed (at least two, more while they fit in
// `seconds` of host time) and one untimed checked repeat, checks that every
// deterministic count repeats exactly, and reports the end-to-end metrics. Traced, it runs a checked repeat with the layer
// replays, an untraced and a traced repeat (spans written to `span_path`),
// a null-crypto repeat and the loopback pass over `node_binary` processes
// (scratch files in `work_dir`), and reports the per-layer metrics.
RunResult RunSimWorkload(const SimWorkload& w, uint64_t seed, double seconds,
                         bool trace, const std::string& span_path,
                         const std::string& node_binary,
                         const std::string& work_dir);

// One accepted read as the client accepted it (from on_accept).
struct AcceptedRecord {
  sdr::Query query;
  uint32_t shard = 0;
  uint64_t version = 0;
  sdr::NodeId slave = sdr::kInvalidNode;
  sdr::QueryResult result;
};

// Host times of the executor and MaterializeAt calls the read check makes.
struct CheckTimings {
  Samples exec_us[4];  // get, scan, grep, agg
  Samples materialize_us;
};

// Re-executes each record against `logs[record.shard]` (the owning shard
// master's log) with OpLog::MaterializeAt and the benchmark's own
// QueryExecutor, as Cluster::ValidateAcceptedRead does. Returns the records
// whose result differs, as indices into `records`; sets `*error` when a
// record cannot be checked at all.
std::vector<size_t> FindWrongReads(const std::vector<const sdr::OpLog*>& logs,
                                   const std::vector<AcceptedRecord>& records,
                                   std::string* error,
                                   CheckTimings* timings = nullptr,
                                   SpanLog* spans = nullptr);

// Self-test of the read check: runs a tiny point_reads repeat, expects its
// accepted reads to check clean, then alters one record's result and
// expects exactly that record to be reported. False (with `*detail`) if
// either expectation fails.
bool CheckerRejectsTamperedRecord(std::string* detail);

}  // namespace perfbench

#endif  // PERFBENCH_SIM_WORKLOAD_H_
