// Statistics the benchmark computes on its own measurements.
//
// Everything here is a pure function of its arguments so the self-test
// (selftest.cpp) can pin each rule down:
//
//   Quantile       nearest-rank quantile; 0 for an empty sample
//   Median         Quantile(0.5)
//   Window*        per-window quantiles and rates over fixed windows of a
//                  step; Windowed* their medians, so a stall of the host
//                  that spoils one window does not move the result
//   SelfTime       a span's duration minus the time its children cover
//   Attribute      layer rows plus an explicit unattributed remainder
//
// No dependency on the program: this header is standard C++ only.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank q-quantile (0 <= q <= 1): the sample of rank
/// ceil(q * n), counted from 1 and clamped into [1, n]. A quantile is always
/// one of the samples, never an interpolation, so a p99 over n samples
/// names a latency some request actually saw. Empty input gives 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(v.size()));
  return v[static_cast<size_t>(rank - 1)];
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Samples that lie strictly beyond the q-quantile: a percentile is
/// reported only when at least ten samples lie beyond it.
inline int64_t SamplesBeyond(int64_t n, double q) {
  return n - static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
}

/// One completed request of an open-loop step: when it was due, and its
/// latency measured from that due time.
struct Completion {
  double due_s = 0.0;
  double latency_us = 0.0;
};

/// Splits completions into consecutive windows of about `window_s`
/// seconds by due time (as many whole windows as the step's span rounds
/// to, at least one; the remainder joins the last) and returns each
/// non-empty window's q-quantile latency, in window order.
inline std::vector<double> WindowQuantiles(const std::vector<Completion>& c,
                                           double window_s, double q) {
  if (c.empty()) return {};
  double end = 0.0;
  for (const Completion& x : c) end = std::max(end, x.due_s);
  const int64_t windows =
      std::max<int64_t>(1, std::llround(end / window_s));
  std::vector<std::vector<double>> by_window(static_cast<size_t>(windows));
  for (const Completion& x : c) {
    const int64_t w = std::min<int64_t>(
        windows - 1, static_cast<int64_t>(x.due_s / window_s));
    by_window[static_cast<size_t>(w)].push_back(x.latency_us);
  }
  std::vector<double> per_window;
  for (std::vector<double>& v : by_window) {
    if (!v.empty()) per_window.push_back(Quantile(std::move(v), q));
  }
  return per_window;
}

/// Median over windows of WindowQuantiles: a stall of the host that
/// spoils one window does not move the result. 0 when empty.
inline double WindowedQuantile(const std::vector<Completion>& c,
                               double window_s, double q) {
  return Median(WindowQuantiles(c, window_s, q));
}

/// Per-window rate of the given event times over the whole windows of
/// `window_s` seconds within [0, span_s), in window order; empty when
/// span_s < window_s.
inline std::vector<double> WindowRates(const std::vector<double>& t_s,
                                       double window_s, double span_s) {
  const int64_t windows = static_cast<int64_t>(span_s / window_s);
  if (windows <= 0) return {};
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (double t : t_s) {
    const int64_t w = static_cast<int64_t>(t / window_s);
    if (w >= 0 && w < windows) counts[static_cast<size_t>(w)] += 1.0;
  }
  for (double& n : counts) n /= window_s;
  return counts;
}

/// Median over windows of WindowRates: the windowed counterpart of
/// count / span_s. 0 when span_s < window_s.
inline double WindowedRate(const std::vector<double>& t_s, double window_s,
                           double span_s) {
  return Median(WindowRates(t_s, window_s, span_s));
}

/// Self time of a span: its total minus the totals of its direct children,
/// never below zero (children measured on the same thread cannot exceed
/// their parent; rounding can by a microsecond).
inline double SelfTime(double total, const std::vector<double>& children) {
  double covered = 0.0;
  for (double c : children) covered += c;
  return std::max(0.0, total - covered);
}

/// Wall-clock attribution: named, disjoint layer rows and the remainder
/// no row claims. rows + unattributed == wall always holds; a negative
/// remainder (rows overlapping, so claiming more than the wall) is kept
/// as is and reported by Consistent().
struct Attribution {
  double wall = 0.0;
  std::vector<std::pair<std::string, double>> rows;
  double unattributed = 0.0;

  double RowSum() const {
    double s = 0.0;
    for (const auto& r : rows) s += r.second;
    return s;
  }
  double UnattributedFrac() const {
    return wall > 0.0 ? unattributed / wall : 0.0;
  }
  /// Rows do not overlap: the remainder is not negative beyond `tol`
  /// (a fraction of the wall clock).
  bool Consistent(double tol = 1e-3) const {
    return unattributed >= -tol * wall;
  }
};

inline Attribution Attribute(double wall,
                             std::vector<std::pair<std::string, double>> rows) {
  Attribution a;
  a.wall = wall;
  a.rows = std::move(rows);
  a.unattributed = wall - a.RowSum();
  return a;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
