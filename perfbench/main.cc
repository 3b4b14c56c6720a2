// perfbench — the repository's benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work_dir <dir>]
//   perfbench --selftest [--work_dir <dir>]
//
// Prints one "metric <name> <value> <unit>" line per measured metric, the
// correctness verdict, and as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every metric measured. Exits 1 when the correctness check fails.
// perfbench/run.py builds this binary, is the entry point to use, and
// narrows that last line to the end-to-end (--trace 0) or per-layer
// (--trace 1) metrics BENCHMARK.json names.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "sim_workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--work_dir") {
      args->work_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// The node binary the loopback pass launches, built next to this one.
std::string NodeBinary() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  std::string self = n > 0 ? std::string(path, n) : std::string("./perfbench");
  return self.substr(0, self.rfind('/') + 1) + "perfbench_node";
}

RunResult RunWorkload(const Args& args) {
  const std::string span_path = args.work_dir + "/spans-" + args.workload +
                                "-" + std::to_string(args.seed) + ".txt";
  SimWorkload w;
  if (!MakeSimWorkload(args.workload, &w)) {
    RunResult out;
    out.Fail("unknown workload " + args.workload);
    return out;
  }
  return RunSimWorkload(w, args.seed, args.seconds, args.trace,
                        args.trace ? span_path : "", NodeBinary(),
                        args.work_dir);
}

// The result as the one-line JSON object, with every metric measured.
// run.py keeps the ones BENCHMARK.json names for the run's mode.
std::string ResultJson(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!std::isfinite(m.value)) continue;
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  return json + "}}";
}

// The human-readable report, then the last-line JSON object.
void Print(const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("note %s\n", note.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& p : r.problems) std::printf("FAIL %s\n", p.c_str());
  std::printf("correct: %s (%llu attempted, %llu failed)\n",
              r.correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("%s\n", ResultJson(r).c_str());
  std::fflush(stdout);
}

// Tiny runs of every workload in both modes, printed as
// "selftest-result <workload> <trace> <json>" for run.py to hold against
// BENCHMARK.json, plus the checks that must reject bad input.
bool SelfTest(const Args& args) {
  bool ok = true;
  auto expect = [&ok](bool cond, const std::string& what) {
    std::printf("selftest %s: %s\n", cond ? "ok" : "FAIL", what.c_str());
    ok = ok && cond;
  };
  Samples thousand, fewer;
  for (int i = 0; i < 1000; ++i) thousand.Add(i);
  for (int i = 0; i < 999; ++i) fewer.Add(i);
  expect(thousand.Supports(0.99) && !fewer.Supports(0.99),
         "p99 needs 1000 samples (10 beyond it)");
  expect(thousand.Quantile(0.5) == 499 && thousand.Quantile(0.99) == 989,
         "nearest-rank quantiles");
  std::string detail;
  expect(CheckerRejectsTamperedRecord(&detail),
         "the read check rejects one tampered accepted read " + detail);
  for (const char* name : {"point_reads", "grep_audit", "sharded_writes"}) {
    SimWorkload w;
    MakeSimWorkload(name, &w);
    w.load_duration = 30 * sdr::kSecond;
    w.liar_on_after = 1 * sdr::kSecond;
    w.lie_probability = 0.5;
    w.tail_min_beyond = 1;
    w.loopback_ops = 60;
    for (int trace = 0; trace <= 1; ++trace) {
      RunResult r = RunSimWorkload(w, 1, 0.01, trace == 1,
                                   args.work_dir + "/selftest-spans.txt",
                                   NodeBinary(), args.work_dir);
      for (const std::string& p : r.problems) std::printf("FAIL %s\n", p.c_str());
      expect(r.correct, std::string(name) + " trace " + std::to_string(trace));
      std::printf("selftest-result %s %d %s\n", name, trace,
                  ResultJson(r).c_str());
    }
  }
  std::fflush(stdout);
  return ok;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.selftest) {
    return SelfTest(args) ? 0 : 1;
  }
  if (args.workload.empty() || args.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --workload and --seconds are required\n");
    return 2;
  }
  RunResult r = RunWorkload(args);
  Print(r);
  return r.correct ? 0 : 1;
}
