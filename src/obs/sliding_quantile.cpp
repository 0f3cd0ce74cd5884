#include "obs/sliding_quantile.h"

namespace layergcn::obs {
namespace {

// Degenerate options degrade to a 1-window, 1ms estimator instead of UB.
SlidingQuantile::Options Sanitize(SlidingQuantile::Options o) {
  if (o.num_windows < 1) o.num_windows = 1;
  if (o.window_us == 0) o.window_us = 1000;
  return o;
}

}  // namespace

SlidingQuantile::SlidingQuantile() : SlidingQuantile(Options()) {}

SlidingQuantile::SlidingQuantile(const Options& options)
    : options_(Sanitize(options)),
      windows_(options_.window_us, options_.num_windows) {}

std::vector<uint64_t> SlidingQuantile::MergedCounts(uint64_t now_us) const {
  std::vector<uint64_t> out(static_cast<size_t>(Histogram::kNumBuckets), 0);
  windows_.ForEach(now_us, options_.num_windows - 1,
                   [&out](const Histogram& w) { w.AddCountsTo(&out); });
  return out;
}

uint64_t SlidingQuantile::Count(uint64_t now_us) const {
  uint64_t n = 0;
  windows_.ForEach(now_us, options_.num_windows - 1,
                   [&n](const Histogram& w) { n += w.Count(); });
  return n;
}

uint64_t SlidingQuantile::Sum(uint64_t now_us) const {
  uint64_t s = 0;
  windows_.ForEach(now_us, options_.num_windows - 1,
                   [&s](const Histogram& w) { s += w.Sum(); });
  return s;
}

std::vector<uint64_t> SlidingQuantile::Quantiles(
    const std::vector<double>& qs, uint64_t now_us) const {
  return Histogram::Quantiles(MergedCounts(now_us), qs);
}

uint64_t SlidingQuantile::Quantile(double q, uint64_t now_us) const {
  return Quantiles({q}, now_us)[0];
}

}  // namespace layergcn::obs
