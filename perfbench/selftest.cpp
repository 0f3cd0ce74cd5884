// Self-test of the benchmark's own statistics (stats.h). Run with
//
//   python3 perfbench/run.py --selftest
//
// Exit code 0 when every case passes; each failure prints one line.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"

namespace {

using namespace perfbench;

int g_failures = 0;
int g_cases = 0;

void Expect(bool ok, const std::string& what) {
  ++g_cases;
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestQuantile() {
  Expect(Quantile({}, 0.5) == 0.0, "empty sample has quantile 0");
  Expect(Quantile({}, 0.99) == 0.0, "empty sample has p99 0");
  Expect(Quantile({7.0}, 0.0) == 7.0, "single sample: q=0");
  Expect(Quantile({7.0}, 0.5) == 7.0, "single sample: median");
  Expect(Quantile({7.0}, 1.0) == 7.0, "single sample: max");
  Expect(Median({3.0, 1.0, 2.0}) == 2.0, "odd median is the middle");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.0,
         "even median is the lower middle (nearest rank)");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  Expect(Quantile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  Expect(Quantile(hundred, 1.0) == 100.0, "p100 is the max");
  Expect(Quantile(hundred, 0.0) == 1.0, "p0 is the min");
  Expect(Quantile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");
  Expect(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
}

void TestWindowed() {
  Expect(WindowedQuantile({}, 1.0, 0.5) == 0.0, "no completions: 0");
  // Four 1 s windows at 100 us, one stalled window at 90 ms: the stall
  // moves the plain p95 but not the median of window p95s.
  std::vector<Completion> c;
  for (int i = 0; i < 5000; ++i) {
    const double t = i * 0.001;
    c.push_back({t, t >= 2.0 && t < 3.0 ? 9e4 : 100.0});
  }
  std::vector<double> all;
  for (const Completion& x : c) all.push_back(x.latency_us);
  Expect(Quantile(all, 0.95) == 9e4, "a stalled fifth spoils the plain p95");
  Expect(WindowedQuantile(c, 1.0, 0.95) == 100.0,
         "one stalled window does not move the windowed p95");
  Expect(WindowedQuantile({{0.2, 5.0}, {0.4, 7.0}}, 1.0, 0.5) == 5.0,
         "a step shorter than a window is one window");
  std::vector<Completion> ramp;
  for (int i = 0; i < 3000; ++i) {
    ramp.push_back({i * 0.001, i < 1000 ? 1.0 : i < 2000 ? 2.0 : 3.0});
  }
  Expect(WindowedQuantile(ramp, 1.0, 0.5) == 2.0, "median of window medians");
  std::vector<double> due;
  for (int i = 0; i < 4000; ++i) {
    if (i < 1000 || i >= 1500) due.push_back(i * 0.001);  // gap in 2nd window
  }
  Expect(Near(WindowedRate(due, 1.0, 4.0), 1000.0),
         "a window with a gap does not move the median rate");
  Expect(WindowedRate(due, 1.0, 0.5) == 0.0, "span shorter than a window");
  const std::vector<double> rates = WindowRates(due, 1.0, 4.0);
  Expect(rates.size() == 4 && Near(rates[1], 500.0) && Near(rates[3], 1000.0),
         "per-window rates in window order, partial window counted as is");
  Expect(WindowRates(due, 1.0, 0.5).empty(), "no whole window: no rates");
  const std::vector<double> p50s = WindowQuantiles(ramp, 1.0, 0.5);
  Expect(p50s.size() == 3 && p50s[0] == 1.0 && p50s[2] == 3.0,
         "per-window medians in window order");
  Expect(WindowQuantiles({}, 1.0, 0.5).empty(), "no completions: no windows");
}

void TestSelfTime() {
  Expect(Near(SelfTime(10.0, {}), 10.0), "no children: self is total");
  Expect(Near(SelfTime(10.0, {2.0, 3.0}), 5.0), "children are subtracted");
  Expect(Near(SelfTime(10.0, {6.0, 4.0}), 0.0), "fully covered span");
  Expect(Near(SelfTime(10.0, {6.0, 4.5}), 0.0), "never below zero");
}

void TestAttribution() {
  const Attribution a = Attribute(10.0, {{"a", 2.0}, {"b", 3.5}, {"c", 4.0}});
  Expect(Near(a.RowSum() + a.unattributed, a.wall),
         "rows + unattributed == wall");
  Expect(Near(a.unattributed, 0.5), "remainder is what no row claims");
  Expect(Near(a.UnattributedFrac(), 0.05), "unattributed share of wall");
  Expect(a.Consistent(), "disjoint rows are consistent");
  const Attribution over = Attribute(10.0, {{"a", 6.0}, {"b", 5.0}});
  Expect(Near(over.RowSum() + over.unattributed, over.wall),
         "the identity holds even when rows overlap");
  Expect(!over.Consistent(), "overlapping rows are reported");
  const Attribution empty = Attribute(0.0, {});
  Expect(empty.UnattributedFrac() == 0.0 && empty.Consistent(),
         "zero wall is consistent with share 0");
}

}  // namespace

int main() {
  TestQuantile();
  TestWindowed();
  TestSelfTime();
  TestAttribution();
  std::printf("%d/%d self-test cases passed\n", g_cases - g_failures,
              g_cases);
  return g_failures == 0 ? 0 : 1;
}
