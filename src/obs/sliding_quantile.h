// Sliding-window quantile estimation over the registry's log buckets.
//
// The serving tier needs "p99 latency over the last minute" as a live
// gauge, not an all-of-process histogram: a latency spike an hour ago must
// age out. SlidingQuantile is an EpochRing of obs::Histogram windows;
// Observe() lands a value in the window its timestamp belongs to, and
// Quantile() merges the windows still inside the horizon and runs
// Histogram's quantile walk over the merged counts.
//
// Determinism and resolution are Histogram's: pure integer bucketing,
// exact uint64 counts, answers at the bucket's inclusive upper edge (at
// most 1/kSubBuckets above the exact quantile). The same multiset of
// (value, timestamp) observations therefore yields bit-identical merged
// counts and quantiles at any thread count and any interleaving — the
// property slo_test pins.
//
// Concurrency: writers are lock-free in the steady state (one acquire
// epoch load + relaxed atomic adds); the first writer of a new window
// zeroes it under EpochRing's rotation mutex; readers merge under no lock
// (exact-sum semantics per bucket, monitoring-grade consistency across
// buckets).
//
// Part of src/obs: standard library only, usable below util/.

#ifndef LAYERGCN_OBS_SLIDING_QUANTILE_H_
#define LAYERGCN_OBS_SLIDING_QUANTILE_H_

#include <cstdint>
#include <vector>

#include "obs/epoch_ring.h"
#include "obs/metrics.h"

namespace layergcn::obs {

class SlidingQuantile {
 public:
  struct Options {
    /// Width of one ring window. The estimator's time resolution.
    uint64_t window_us = 5'000'000;
    /// Windows merged per query; horizon = window_us * num_windows.
    int num_windows = 12;
  };

  SlidingQuantile();  // default Options
  explicit SlidingQuantile(const Options& options);

  /// Records `value` (clamped to Histogram::kMaxValue) in the window
  /// containing `now_us`. Timestamps may arrive slightly out of order;
  /// anything older than the horizon is dropped.
  void Observe(uint64_t value, uint64_t now_us) {
    if (Histogram* window = windows_.Acquire(now_us)) window->Observe(value);
  }

  /// The q-quantile (0 < q <= 1) of the observations inside
  /// [now_us - horizon, now_us], answered as the inclusive upper edge of
  /// the bucket holding rank ceil(q * count). 0 when the horizon is empty.
  uint64_t Quantile(double q, uint64_t now_us) const;

  /// One merged pass answering several quantiles at once (gauge refresh).
  /// `qs` must be ascending; returns one value per q.
  std::vector<uint64_t> Quantiles(const std::vector<double>& qs,
                                  uint64_t now_us) const;

  /// Observations inside the horizon.
  uint64_t Count(uint64_t now_us) const;
  /// Exact sum of (clamped) observations inside the horizon.
  uint64_t Sum(uint64_t now_us) const;

  /// Merged per-bucket counts inside the horizon (size
  /// Histogram::kNumBuckets). Exposed so tests can pin the
  /// deterministic-merge property directly.
  std::vector<uint64_t> MergedCounts(uint64_t now_us) const;

  const Options& options() const { return options_; }
  uint64_t horizon_us() const {
    return options_.window_us * static_cast<uint64_t>(options_.num_windows);
  }

 private:
  const Options options_;
  EpochRing<Histogram> windows_;
};

}  // namespace layergcn::obs

#endif  // LAYERGCN_OBS_SLIDING_QUANTILE_H_
