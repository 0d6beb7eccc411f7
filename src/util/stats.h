// Streaming summary statistics used by the benchmark harness and the
// simulation metrics layer.
#pragma once

#include <cstddef>
#include <vector>

namespace nfvm::util {

/// Single-pass accumulator for count/sum/mean/max (Welford mean).
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  double sum() const noexcept { return sum_; }
  /// Mean of the observations; 0 when empty.
  double mean() const noexcept;
  /// Max of the observations; 0 when empty.
  double max() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Retaining accumulator: keeps every observation in insertion order.
class SampleSet {
 public:
  void add(double x);
  std::size_t count() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  double sum() const noexcept;
  double mean() const noexcept;
  const std::vector<double>& values() const noexcept { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace nfvm::util
