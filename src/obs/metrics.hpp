// Metrics: deterministic run instrumentation.
//
// Fixed-bucket histograms and counter samples keyed by *simulated* time
// and sim-domain values — never wall-clock — so that every exported metric
// is a pure function of the run's seed and byte-identical across --jobs
// values and repeated runs. (Wall-clock-derived values must stay out of
// here; they live under the `wall`/`ns` key naming rule of
// report::strip_volatile_lines.)
//
// A MetricsSnapshot is an ordered list of samples; its order is export
// order. SystemHarness::stats() builds one per trial as a view over the
// RunStats it has just filled, and MetricsAggregate folds per-trial
// snapshots in the experiment engine's seed order, which keeps
// BENCH_*.json metric cells deterministic by the same argument as every
// other aggregate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "common/stats.hpp"

namespace graybox::obs {

/// Fixed-bucket histogram over non-negative integer values. Bucket i counts
/// observations <= bounds[i] (strictly greater than bounds[i-1]); one
/// overflow bucket past the last bound. Bounds are fixed at construction,
/// so two runs always produce structurally identical, mergeable buckets.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds);

  /// Power-of-two bounds 0, 1, 2, 4, ..., 2^max_exp — the default shape
  /// for tick-valued and depth-valued metrics (wide dynamic range, exact
  /// zero bucket).
  static std::vector<std::uint64_t> pow2_bounds(unsigned max_exp);

  void observe(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return min_; }  ///< 0 when empty
  std::uint64_t max() const { return max_; }
  double mean() const;
  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Value snapshot of one metric, decoupled from the live instruments so
/// that RunStats can carry metrics across threads and into the engine fold.
struct MetricSample {
  enum class Kind : std::uint8_t { kCounter, kHistogram };

  /// A counter sample: `value` and nothing else.
  static MetricSample counter(std::string name, std::uint64_t value);
  /// A histogram sample: count, sum, min, max, bounds and buckets.
  static MetricSample histogram(std::string name, const Histogram& h);

  std::string name;
  Kind kind = Kind::kCounter;
  /// Counter value / histogram observation count.
  std::int64_t value = 0;
  // Histogram-only payload.
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> buckets;
};

using MetricsSnapshot = std::vector<MetricSample>;

/// Serialize one snapshot (insertion order preserved; all values
/// sim-domain, so the artifact is byte-stable across runs and jobs).
report::Json metrics_snapshot_to_json(const MetricsSnapshot& snapshot);

/// Fold of per-trial MetricsSnapshots in add() order (the engine adds in
/// seed order). Counter values become per-trial Accumulators; histograms
/// sum bucket-wise.
class MetricsAggregate {
 public:
  void add(const MetricsSnapshot& snapshot);
  bool empty() const { return entries_.empty(); }

  report::Json to_json() const;

 private:
  struct Entry {
    std::string name;
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    /// Counter value per trial; histogram count per trial.
    Accumulator per_trial;
    // Histogram fold across trials.
    std::uint64_t hist_count = 0;
    std::uint64_t hist_sum = 0;
    std::uint64_t hist_min = 0;
    std::uint64_t hist_max = 0;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> buckets;
  };
  Entry& find_or_add(const std::string& name, MetricSample::Kind kind);

  std::vector<Entry> entries_;  ///< first-seen order (trial 0 folds first)
};

}  // namespace graybox::obs
