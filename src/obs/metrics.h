// MetricsRegistry: named counters, gauges, and log-bucket histograms.
//
// Writers never take the registry lock: each Counter spreads its updates
// over cache-line-padded atomic shards indexed by obs::ThreadId(), so
// concurrent increments from pool workers do not bounce a shared line; a
// Histogram is one array of relaxed atomic bucket counts. Snapshot()
// merges under the registry mutex and returns plain totals; exact-sum
// semantics hold because every update is an atomic add.
//
// Get*() returns a stable pointer valid for the process lifetime — call
// sites cache it in a function-local static (the OBS_COUNT / OBS_GAUGE /
// OBS_OBSERVE macros in this header do exactly that).

#ifndef LAYERGCN_OBS_METRICS_H_
#define LAYERGCN_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace layergcn::obs {

namespace internal {

// One cache line per shard so concurrent writers do not false-share.
struct alignas(64) CounterShard {
  std::atomic<uint64_t> value{0};
};

constexpr int kNumShards = 16;

inline int ShardIndex() {
  return static_cast<int>(ThreadId() % static_cast<uint32_t>(kNumShards));
}

}  // namespace internal

/// Monotonic counter.
class Counter {
 public:
  void Add(uint64_t delta) {
    shards_[internal::ShardIndex()].value.fetch_add(delta,
                                                    std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Exact sum of every Add() that happened-before the call.
  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& s : shards_) total += s.value.load(std::memory_order_relaxed);
    return total;
  }

  void Reset() {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  internal::CounterShard shards_[internal::kNumShards];
};

/// Last-write-wins double gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Get() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucket histogram of non-negative integers (microseconds, mostly),
/// the one bucket rule of src/obs.
///
/// Bucketing is HDR-style integer math: the leading bit picks an octave,
/// the next kSubBucketBits bits the sub-bucket. Values below kSubBuckets
/// own a bucket each; above, kSubBuckets buckets per octave bound the
/// relative over-report of any answer by 1/kSubBuckets (6.25%). Values
/// clamp to kMaxValue (~71 minutes in microseconds).
///
/// A quantile is answered as the inclusive upper edge of the bucket
/// holding rank ceil(q * count): never below the exact nearest-rank
/// quantile, at most 1/kSubBuckets above it. Every update is a relaxed
/// atomic add, so the same multiset of values gives bit-identical counts
/// at any thread count and interleaving. The count is the bucket total,
/// so it always agrees with the buckets.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;  // 16
  static constexpr uint64_t kMaxValue = (uint64_t{1} << 32) - 1;
  /// kSubBuckets exact buckets, then kSubBuckets per octave up to
  /// kMaxValue's octave.
  static constexpr int kNumBuckets = (32 - kSubBucketBits + 1) * kSubBuckets;

  /// Bucket of `value` (clamped to kMaxValue).
  static int BucketIndex(uint64_t value);
  /// Largest value mapping to `bucket` (inclusive upper edge).
  static uint64_t BucketUpperEdge(int bucket);
  /// The quantile walk over per-bucket `counts`: for each q in `qs`
  /// (ascending, 0 < q <= 1) the upper edge of the bucket holding rank
  /// ceil(q * total). All zeros when `counts` is empty or all zero.
  static std::vector<uint64_t> Quantiles(const std::vector<uint64_t>& counts,
                                         const std::vector<double>& qs);

  void Observe(uint64_t value) {
    if (value > kMaxValue) value = kMaxValue;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Adds the per-bucket counts into `counts` (size kNumBuckets).
  void AddCountsTo(std::vector<uint64_t>* counts) const;
  std::vector<uint64_t> BucketCounts() const;
  uint64_t Count() const;
  /// Exact sum of the (clamped) observations.
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// Plain-value view of a Histogram.
struct HistogramData {
  /// Per-bucket counts in Histogram's layout (always kNumBuckets long).
  std::vector<uint64_t> bucket_counts =
      std::vector<uint64_t>(Histogram::kNumBuckets, 0);
  uint64_t count = 0;
  double sum = 0.0;

  /// Histogram::Quantiles of the bucket counts for one q; 0 when empty.
  double Quantile(double q) const;

  /// this minus `earlier`, bucket by bucket (for per-phase summaries over
  /// a long-lived histogram).
  HistogramData Delta(const HistogramData& earlier) const;
};

struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// counters[name] here minus counters[name] in `earlier` (0 if absent).
  uint64_t CounterDelta(const MetricsSnapshot& earlier,
                        const std::string& name) const;
};

/// Process-wide registry of named metrics.
class MetricsRegistry {
 public:
  /// The global instance (leaked singleton: safe from thread_local dtors).
  static MetricsRegistry& Global();

  /// Get-or-create. Pointers stay valid for the process lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;
  /// Snapshot rendered as one JSON object (stable key order). Histograms
  /// list their non-empty buckets as [upper_edge, count] pairs next to
  /// p50/p95/p99.
  std::string SnapshotJson() const;
  /// Writes SnapshotJson() to `path`; false on I/O failure.
  bool WriteSnapshotJson(const std::string& path) const;

  /// Snapshot rendered as Prometheus text exposition format (one
  /// `layergcn_`-prefixed family per metric; '.' in names becomes '_';
  /// histograms export cumulative `_bucket{le=...}` series at every
  /// octave edge of the bucket layout, then +Inf, + _sum/_count).
  std::string PrometheusText() const;
  /// Writes PrometheusText() to `path`; false on I/O failure.
  bool WritePrometheusText(const std::string& path) const;

  /// Zeroes every registered metric (names stay registered).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace layergcn::obs

#if LAYERGCN_OBS_ENABLED

/// Adds `n` to counter `name` (resolved once, gated on the runtime switch).
#define OBS_COUNT(name, n)                                              \
  do {                                                                  \
    if (::layergcn::obs::Flags() & ::layergcn::obs::kMetricsBit) {      \
      static ::layergcn::obs::Counter* obs_counter_ =                   \
          ::layergcn::obs::MetricsRegistry::Global().GetCounter(name);  \
      obs_counter_->Add(static_cast<uint64_t>(n));                      \
    }                                                                   \
  } while (0)

/// Sets gauge `name` to `v`.
#define OBS_GAUGE(name, v)                                            \
  do {                                                                \
    if (::layergcn::obs::Flags() & ::layergcn::obs::kMetricsBit) {    \
      static ::layergcn::obs::Gauge* obs_gauge_ =                     \
          ::layergcn::obs::MetricsRegistry::Global().GetGauge(name);  \
      obs_gauge_->Set(static_cast<double>(v));                        \
    }                                                                 \
  } while (0)

/// Observes `v` (a non-negative integer, e.g. microseconds) in histogram
/// `name`.
#define OBS_OBSERVE(name, v)                                               \
  do {                                                                     \
    if (::layergcn::obs::Flags() & ::layergcn::obs::kMetricsBit) {         \
      static ::layergcn::obs::Histogram* obs_histogram_ =                  \
          ::layergcn::obs::MetricsRegistry::Global().GetHistogram(name);   \
      obs_histogram_->Observe(static_cast<uint64_t>(v));                   \
    }                                                                      \
  } while (0)

#else  // !LAYERGCN_OBS_ENABLED

#define OBS_COUNT(name, n) ((void)0)
#define OBS_GAUGE(name, v) ((void)0)
#define OBS_OBSERVE(name, v) ((void)0)

#endif  // LAYERGCN_OBS_ENABLED

#endif  // LAYERGCN_OBS_METRICS_H_
