#include "src/trace/histogram.h"

#include <algorithm>
#include <bit>

namespace sdr {

size_t LatencyHistogram::BucketIndex(uint64_t value) {
  if (value < kSubCount) {
    return static_cast<size_t>(value);
  }
  // The highest set bit selects the power-of-two band; the next kSubBits
  // bits below it select the sub-bucket within the band.
  int top = std::bit_width(value) - 1;  // >= kSubBits here
  int shift = top - kSubBits;
  uint64_t sub = (value >> shift) & (kSubCount - 1);
  return static_cast<size_t>(
      (static_cast<uint64_t>(top - kSubBits + 1) << kSubBits) | sub);
}

uint64_t LatencyHistogram::BucketLowerBound(size_t index) {
  if (index < kSubCount) {
    return static_cast<uint64_t>(index);
  }
  uint64_t band = index >> kSubBits;  // >= 1
  uint64_t sub = index & (kSubCount - 1);
  return (kSubCount + sub) << (band - 1);
}

void LatencyHistogram::Record(int64_t value) {
  if (value < 0) {
    value = 0;
  }
  size_t index = BucketIndex(static_cast<uint64_t>(value));
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1, 0);
  }
  ++buckets_[index];
  if (count_ == 0 || value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
  sum_ += static_cast<double>(value);
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  count_ += other.count_;
}

int64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count).
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  if (rank < count_) {
    ++rank;  // ceil for non-integral, 1-based for integral
  }
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      // A bucket's lower bound can sit below every sample in it, so the
      // result is clamped to the recorded range as well.
      return std::clamp(static_cast<int64_t>(BucketLowerBound(i)), min_,
                        max_);
    }
  }
  return max_;
}

void LatencyHistogram::AddBucketCount(size_t index, uint64_t n) {
  if (n == 0) {
    return;
  }
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1, 0);
  }
  buckets_[index] += n;
  count_ += n;
}

}  // namespace sdr
