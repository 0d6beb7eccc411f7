#include "util/stats.h"

#include <algorithm>
#include <numeric>

namespace nfvm::util {

void RunningStats::add(double x) noexcept {
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double RunningStats::mean() const noexcept { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::max() const noexcept { return count_ == 0 ? 0.0 : max_; }

void SampleSet::add(double x) { values_.push_back(x); }

double SampleSet::sum() const noexcept {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double SampleSet::mean() const noexcept {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

}  // namespace nfvm::util
