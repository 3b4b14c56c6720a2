// Shared pieces of the benchmark harness: host timing, percentiles over raw
// samples, the in-memory span log of a traced run, peak-RSS probes and the
// result a workload hands back to main.cc for printing.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Host monotonic time in seconds.
double HostNow();

// Raw samples with nearest-rank quantiles. The benchmark computes every
// percentile itself from the samples it recorded; it deliberately does not
// use the program's LatencyHistogram or Percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  // Nearest-rank quantile, q in (0, 1]. 0 when empty.
  double Quantile(double q) const;
  // Samples strictly above the nearest-rank q-quantile's rank.
  size_t Beyond(double q) const;
  // True when at least `min_beyond` samples lie beyond the q-quantile, the
  // rule for reporting a tail percentile at all.
  bool Supports(double q, size_t min_beyond = 10) const {
    return Beyond(q) >= min_beyond;
  }

 private:
  std::vector<double> values_;
  mutable std::vector<double> sorted_;
};

// Median of a small vector of per-repeat figures.
double Median(std::vector<double> v);

// One span of the traced run: name, host start/end (ns since the log's
// origin) and the index of its parent span (-1 for a root).
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans kept in memory and written out once, when the run ends.
class SpanLog {
 public:
  SpanLog();
  // Opens a span under the innermost open one; returns its index.
  int Begin(const char* name);
  void End(int index);
  // Records a finished span of known duration under the innermost open one
  // (used for the per-Step spans, which are timed by the caller).
  void Add(const char* name, int64_t start_ns, int64_t end_ns);
  int64_t NowNs() const;
  size_t size() const { return spans_.size(); }
  // Writes "spans <n>" then one "name start_ns end_ns parent" line per span.
  bool WriteTo(const std::string& path) const;

 private:
  uint32_t NameId(const char* name);
  double origin_ = 0;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Peak resident set of this process, MiB.
double SelfPeakRssMb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a workload run hands back: the verdict, the operation counts and
// every metric it measured. main.cc prints all of them for people and puts
// the ones BENCHMARK.json names into the last-line JSON object.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;     // informational lines
  std::vector<std::string> problems;  // correctness violations

  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// Ratio that is 0 when the base is 0, so empty layers read as 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
