#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

double HostNow() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  size_t rank = static_cast<size_t>(std::ceil(q * sorted_.size()));
  rank = std::clamp<size_t>(rank, 1, sorted_.size());
  return sorted_[rank - 1];
}

size_t Samples::Beyond(double q) const {
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  return values_.size() - std::min(rank, values_.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

SpanLog::SpanLog() : origin_(HostNow()) {}

int64_t SpanLog::NowNs() const {
  return static_cast<int64_t>((HostNow() - origin_) * 1e9);
}

uint32_t SpanLog::NameId(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int SpanLog::Begin(const char* name) {
  Span s;
  s.name = NameId(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(s);
  int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::End(int index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = NameId(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(s);
}

bool SpanLog::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "spans %zu\n", spans_.size());
  for (const Span& s : spans_) {
    std::fprintf(f, "%s %lld %lld %d\n", names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

double SelfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

const Metric* RunResult::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace perfbench
