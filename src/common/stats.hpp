// Small statistics helpers used by the experiment harness: streaming
// accumulators for scalar series (stabilization latencies, message counts)
// and exact percentiles over retained samples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace graybox {

/// Streaming accumulator (Welford) plus every sample for exact
/// percentiles.
///
/// The result depends on the order of add() calls, so the experiment
/// engine adds per-trial values serially IN SEED ORDER — the property
/// behind the --jobs 1 == --jobs N determinism guarantee.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;  ///< Sample standard deviation (n-1); 0 if n < 2.
  double min() const;
  double max() const;
  double sum() const { return sum_; }

  /// Exact percentile by nearest-rank over the samples, q in [0, 100].
  /// Returns 0 for an empty accumulator.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }

 private:
  std::vector<double> samples_;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Render "mean ± stddev" with the given precision, e.g. "12.3 ± 0.4".
std::string mean_pm_stddev(const Accumulator& acc, int precision = 1);

}  // namespace graybox
