// HdrHistogram-style log-bucketed latency histogram. Values below
// 2^kSubBits land in exact unit buckets; above that, every power of two is
// split into 2^kSubBits sub-buckets, bounding the relative error of any
// recorded value to ~3% while keeping the bucket count small enough to
// merge and export thousands of per-node histograms at run end.
//
// Everything here is deterministic: bucket indices are pure integer
// arithmetic, iteration is over a dense vector, and quantiles use the
// nearest-rank rule — so two same-seed runs export byte-identical
// summaries (rule R2's contract extends to trace artifacts).
#ifndef SDR_SRC_TRACE_HISTOGRAM_H_
#define SDR_SRC_TRACE_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdr {

class LatencyHistogram {
 public:
  // 32 sub-buckets per power of two: worst-case bucket width is 1/32 of
  // the value, i.e. ~3.1% relative error on any reported quantile.
  static constexpr int kSubBits = 5;
  static constexpr uint64_t kSubCount = 1ull << kSubBits;

  // Records one value; negative values clamp to zero (latencies are
  // non-negative by construction, but virtual-time subtraction can yield
  // zero-width intervals).
  void Record(int64_t value);

  // Adds every bucket, count, min/max/sum of `other` into this histogram.
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  // Nearest-rank quantile, reported as the lower bound of the bucket the
  // rank falls into, clamped to the recorded [min, max]. q in [0, 1].
  int64_t Quantile(double q) const;
  int64_t Median() const { return Quantile(0.5); }
  int64_t P99() const { return Quantile(0.99); }

  // Dense bucket counts, index 0 upward; trailing buckets may be absent.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  // Bucket mapping, exposed for tests and the binary trace format.
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);

  // Reconstruction hook for the binary trace loader: adds `n` recordings
  // into bucket `index` without touching min/max/sum (those are carried
  // explicitly in the trace file).
  void AddBucketCount(size_t index, uint64_t n);
  void SetStats(int64_t min, int64_t max, double sum) {
    min_ = min;
    max_ = max;
    sum_ = sum;
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace sdr

#endif  // SDR_SRC_TRACE_HISTOGRAM_H_
