// Determinism and state-machine tests for the live-SLO primitives:
// the log-bucket rule (exactness, bounded error, registry Histogram and
// SlidingQuantile agreeing bucket for bucket), SlidingQuantile
// (bit-identical merges at any thread count, window rotation/aging) and
// SloMonitor (multi-window burn-rate transitions on a synthetic clock,
// env overrides).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/sliding_quantile.h"
#include "obs/slo.h"

namespace layergcn::obs {
namespace {

using SQ = SlidingQuantile;
using H = Histogram;

TEST(SlidingQuantileTest, SmallValuesBucketExactly) {
  // Below kSubBuckets every value owns its own bucket: zero error.
  for (uint64_t v = 0; v < H::kSubBuckets; ++v) {
    EXPECT_EQ(H::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(H::BucketUpperEdge(static_cast<int>(v)), v);
  }
}

TEST(SlidingQuantileTest, BucketEdgesAreConsistent) {
  // Every bucket's upper edge maps back into that bucket, edge+1 lands in
  // the next one, and edges strictly increase.
  for (int b = 0; b < H::kNumBuckets; ++b) {
    const uint64_t edge = H::BucketUpperEdge(b);
    EXPECT_EQ(H::BucketIndex(edge), b) << "edge " << edge;
    if (b + 1 < H::kNumBuckets) {
      EXPECT_EQ(H::BucketIndex(edge + 1), b + 1);
      EXPECT_LT(edge, H::BucketUpperEdge(b + 1));
    }
  }
  EXPECT_EQ(H::BucketIndex(H::kMaxValue), H::kNumBuckets - 1);
  // Values past kMaxValue saturate into the final bucket.
  EXPECT_EQ(H::BucketIndex(H::kMaxValue + 12345), H::kNumBuckets - 1);
  EXPECT_EQ(H::BucketUpperEdge(H::kNumBuckets - 1), H::kMaxValue);
}

TEST(SlidingQuantileTest, BoundedRelativeError) {
  // The inclusive upper edge over-reports any value by at most
  // 1/kSubBuckets (one sub-bucket of its octave).
  for (uint64_t v : {17ull, 1000ull, 123456ull, 99999999ull, 1ull << 31}) {
    const uint64_t answer = H::BucketUpperEdge(H::BucketIndex(v));
    EXPECT_GE(answer, v);
    EXPECT_LE(static_cast<double>(answer),
              static_cast<double>(v) * (1.0 + 1.0 / H::kSubBuckets));
  }

  // One seeded latency-shaped sample (1us .. ~0.5s, heavy tail) through a
  // registry histogram and a SlidingQuantile: the same buckets, the same
  // p50/p95/p99, and every answer between the exact nearest-rank quantile
  // and 17/16 of it.
  Histogram* registry =
      MetricsRegistry::Global().GetHistogram("slo_test.agreement_us");
  registry->Reset();
  SQ sliding;
  const uint64_t now = 10'000'000;
  std::vector<uint64_t> sample;
  uint64_t x = 20231;
  for (int i = 0; i < 10'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t v = (1 + (x >> 33) % 1000) << ((x >> 13) % 10);
    sample.push_back(v);
    registry->Observe(v);
    sliding.Observe(v, now);
  }
  const HistogramData data =
      MetricsRegistry::Global().Snapshot().histograms.at(
          "slo_test.agreement_us");
  EXPECT_EQ(data.bucket_counts, sliding.MergedCounts(now));
  EXPECT_EQ(data.count, sample.size());
  EXPECT_EQ(data.count, sliding.Count(now));
  EXPECT_EQ(static_cast<uint64_t>(data.sum), sliding.Sum(now));

  std::sort(sample.begin(), sample.end());
  const std::vector<double> qs = {0.50, 0.95, 0.99};
  const std::vector<uint64_t> answers = sliding.Quantiles(qs, now);
  for (size_t i = 0; i < qs.size(); ++i) {
    const size_t rank = static_cast<size_t>(
        std::ceil(qs[i] * static_cast<double>(sample.size())));
    const uint64_t exact = sample[rank - 1];
    EXPECT_EQ(data.Quantile(qs[i]), static_cast<double>(answers[i]))
        << "q " << qs[i];
    EXPECT_GE(answers[i], exact) << "q " << qs[i];
    EXPECT_LE(answers[i] * 16, exact * 17) << "q " << qs[i];
  }
}

// Feeds the same (value, timestamp) multiset through `num_threads` writers
// and returns the merged counts — identical for every thread count.
std::vector<uint64_t> MergedAfterConcurrentObserve(
    int num_threads, const std::vector<std::pair<uint64_t, uint64_t>>& obs,
    const SQ::Options& options, uint64_t query_us) {
  SQ quantile(options);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < obs.size();
           i += static_cast<size_t>(num_threads)) {
        quantile.Observe(obs[i].first, obs[i].second);
      }
    });
  }
  for (auto& th : threads) th.join();
  return quantile.MergedCounts(query_us);
}

TEST(SlidingQuantileTest, MergedCountsBitDeterministicAcrossThreadCounts) {
  SQ::Options options;
  options.window_us = 1'000'000;
  options.num_windows = 4;
  const uint64_t base = 50'000'000;
  // Deterministic pseudo-random (value, timestamp) workload spanning three
  // window widths, all inside the horizon at query time.
  std::vector<std::pair<uint64_t, uint64_t>> obs;
  uint64_t x = 123456789;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    obs.emplace_back((x >> 33) % 5'000'000,
                     base + x % (options.window_us * 3));
  }
  const uint64_t query = base + options.window_us * 3;
  const auto c1 = MergedAfterConcurrentObserve(1, obs, options, query);
  const auto c2 = MergedAfterConcurrentObserve(2, obs, options, query);
  const auto c8 = MergedAfterConcurrentObserve(8, obs, options, query);
  uint64_t total = 0;
  for (uint64_t c : c1) total += c;
  EXPECT_EQ(total, obs.size());
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c1, c8);
}

TEST(SlidingQuantileTest, QuantileAnswersBucketUpperEdge) {
  SQ quantile;  // default 12 x 5s windows
  const uint64_t now = 10'000'000;
  for (uint64_t v = 1; v <= 100; ++v) quantile.Observe(v * 1000, now);
  EXPECT_EQ(quantile.Count(now), 100u);
  // Rank ceil(0.5 * 100) = 50 -> value 50'000, answered at its bucket's
  // inclusive upper edge.
  const uint64_t p50 = quantile.Quantile(0.5, now);
  EXPECT_EQ(p50, H::BucketUpperEdge(H::BucketIndex(50'000)));
  const auto qs = quantile.Quantiles({0.5, 0.95, 1.0}, now);
  EXPECT_EQ(qs[0], p50);
  EXPECT_LE(qs[0], qs[1]);
  EXPECT_LE(qs[1], qs[2]);
  EXPECT_EQ(qs[2], H::BucketUpperEdge(H::BucketIndex(100'000)));
  // Empty horizon answers zero.
  EXPECT_EQ(quantile.Quantile(0.99, now + 2 * quantile.horizon_us()), 0u);
}

TEST(SlidingQuantileTest, WindowRotationAgesObservationsOut) {
  SQ::Options options;
  options.window_us = 1000;
  options.num_windows = 2;  // horizon 2ms
  SQ quantile(options);
  quantile.Observe(5, 10'000);
  EXPECT_EQ(quantile.Count(10'000), 1u);
  EXPECT_EQ(quantile.Sum(10'000), 5u);
  quantile.Observe(7, 11'000);
  EXPECT_EQ(quantile.Count(11'500), 2u);
  // One window later the first observation leaves the horizon.
  EXPECT_EQ(quantile.Count(12'500), 1u);
  EXPECT_EQ(quantile.Sum(12'500), 7u);
  // Epoch 12 reuses epoch 10's ring slot; rotation must zero it first.
  quantile.Observe(9, 12'500);
  EXPECT_EQ(quantile.Count(12'500), 2u);
  EXPECT_EQ(quantile.Sum(12'500), 16u);
  // A write whose timestamp predates the slot's current epoch is dropped,
  // never misfiled into the newer window.
  quantile.Observe(1000, 10'500);
  EXPECT_EQ(quantile.Count(12'500), 2u);
  EXPECT_EQ(quantile.Sum(12'500), 16u);
}

TEST(SlidingQuantileTest, DegenerateOptionsAreSanitized) {
  SQ::Options options;
  options.window_us = 0;
  options.num_windows = -3;
  SQ quantile(options);
  EXPECT_EQ(quantile.options().window_us, 1000u);
  EXPECT_EQ(quantile.options().num_windows, 1);
  quantile.Observe(4, 500);
  EXPECT_EQ(quantile.Count(500), 1u);
}

// Wide-budget objectives so burn rates come out as round numbers:
// 10% error budget on both objectives, 1s short / 10s long windows.
SloMonitor::Options TestSlo() {
  SloMonitor::Options options;
  options.availability_objective = 0.9;
  options.latency_target_us = 1000;
  options.latency_objective = 0.9;
  options.short_window_us = 1'000'000;
  options.long_window_us = 10'000'000;
  options.warn_burn = 1.0;
  options.breach_burn = 6.0;
  return options;
}

TEST(SloMonitorTest, HealthyTrafficStaysOk) {
  SloMonitor slo(TestSlo());
  const uint64_t now = 100'000'000;
  for (int i = 0; i < 100; ++i) slo.Record(now, false, true, 500);
  EXPECT_EQ(slo.Update(now), SloMonitor::State::kOk);
  const SloMonitor::Burn burn = slo.BurnRates(now);
  EXPECT_EQ(burn.total_long, 100u);
  EXPECT_EQ(burn.max_long, 0.0);
  EXPECT_EQ(slo.transitions(), 0);
}

TEST(SloMonitorTest, BurnLadderOkWarnBreachRecovery) {
  SloMonitor slo(TestSlo());
  uint64_t now = 200'000'000;
  // 20 server errors in 100: bad fraction 0.2 / budget 0.1 = burn 2.0 —
  // past warn_burn, below breach_burn.
  for (int i = 0; i < 80; ++i) slo.Record(now, false, true, 500);
  for (int i = 0; i < 20; ++i) slo.Record(now, true, false, 0);
  EXPECT_EQ(slo.Update(now), SloMonitor::State::kWarn);
  EXPECT_EQ(slo.transitions(), 1);
  // Pile on errors: fraction 220/300 -> burn 7.3 in BOTH windows = breach.
  for (int i = 0; i < 200; ++i) slo.Record(now, true, false, 0);
  EXPECT_EQ(slo.Update(now), SloMonitor::State::kBreach);
  EXPECT_EQ(slo.transitions(), 2);
  const SloMonitor::Burn burn = slo.BurnRates(now);
  EXPECT_GE(burn.max_short, 6.0);
  EXPECT_GE(burn.max_long, 6.0);
  // Quiet period longer than the long window: everything ages out.
  now += 20'000'000;
  EXPECT_EQ(slo.Update(now), SloMonitor::State::kOk);
  EXPECT_EQ(slo.transitions(), 3);
  EXPECT_EQ(slo.state(), SloMonitor::State::kOk);
  EXPECT_EQ(slo.BurnRates(now).total_long, 0u);
}

TEST(SloMonitorTest, ShortWindowSpikeAloneIsWarnNotBreach) {
  SloMonitor slo(TestSlo());
  const uint64_t base = 300'000'000;
  // Nine seconds of healthy traffic fill the long window.
  for (int s = 0; s < 9; ++s) {
    for (int i = 0; i < 100; ++i) {
      slo.Record(base + static_cast<uint64_t>(s) * 1'000'000, false, true,
                 100);
    }
  }
  // A sharp error spike confined to the current slot: the short window
  // burns past breach_burn but the long window absorbs it — the classic
  // "blip, do not page yet" condition.
  const uint64_t spike = base + 9'000'000;
  for (int i = 0; i < 400; ++i) slo.Record(spike, true, false, 0);
  const SloMonitor::Burn burn = slo.BurnRates(spike);
  EXPECT_GE(burn.max_short, 6.0);
  EXPECT_LT(burn.max_long, 6.0);
  EXPECT_EQ(slo.Update(spike), SloMonitor::State::kWarn);
}

TEST(SloMonitorTest, SlowAnsweredRequestsBurnTheLatencyObjective) {
  SloMonitor slo(TestSlo());
  const uint64_t now = 400'000'000;
  for (int i = 0; i < 20; ++i) slo.Record(now, false, true, 500);
  for (int i = 0; i < 80; ++i) slo.Record(now, false, true, 5000);
  const SloMonitor::Burn burn = slo.BurnRates(now);
  EXPECT_EQ(burn.availability_long, 0.0);
  EXPECT_NEAR(burn.latency_long, 8.0, 1e-9);  // 0.8 slow / 0.1 budget
  EXPECT_EQ(slo.Update(now), SloMonitor::State::kBreach);
}

TEST(SloMonitorTest, UnansweredRequestsDoNotFeedLatency) {
  SloMonitor slo(TestSlo());
  const uint64_t now = 500'000'000;
  // Shed requests are availability errors but carry no latency sample.
  for (int i = 0; i < 10; ++i) slo.Record(now, true, false, 999'999);
  const SloMonitor::Burn burn = slo.BurnRates(now);
  EXPECT_EQ(burn.latency_long, 0.0);
  EXPECT_GT(burn.availability_long, 0.0);
}

TEST(SloMonitorTest, FromEnvOverridesAndIgnoresMalformed) {
  ::setenv("LAYERGCN_SLO_AVAILABILITY", "0.95", 1);
  ::setenv("LAYERGCN_SLO_LATENCY_TARGET_US", "2500", 1);
  ::setenv("LAYERGCN_SLO_LATENCY_OBJECTIVE", "bogus", 1);  // ignored
  ::setenv("LAYERGCN_SLO_WARN_BURN", "2.0", 1);
  const SloMonitor::Options parsed = SloMonitor::FromEnv(TestSlo());
  ::unsetenv("LAYERGCN_SLO_AVAILABILITY");
  ::unsetenv("LAYERGCN_SLO_LATENCY_TARGET_US");
  ::unsetenv("LAYERGCN_SLO_LATENCY_OBJECTIVE");
  ::unsetenv("LAYERGCN_SLO_WARN_BURN");
  EXPECT_DOUBLE_EQ(parsed.availability_objective, 0.95);
  EXPECT_EQ(parsed.latency_target_us, 2500u);
  EXPECT_DOUBLE_EQ(parsed.latency_objective, 0.9);  // malformed kept as-is
  EXPECT_DOUBLE_EQ(parsed.warn_burn, 2.0);
}

TEST(SloMonitorTest, SanitizeClampsDegenerateOptions) {
  SloMonitor::Options options = TestSlo();
  options.availability_objective = 1.5;
  options.long_window_us = 10;  // shorter than the short window
  SloMonitor slo(options);
  EXPECT_DOUBLE_EQ(slo.options().availability_objective, 1.0);
  EXPECT_EQ(slo.options().long_window_us, slo.options().short_window_us);
}

}  // namespace
}  // namespace layergcn::obs
