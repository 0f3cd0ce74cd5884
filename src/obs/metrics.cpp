#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace layergcn::obs {

int Histogram::BucketIndex(uint64_t value) {
  if (value > kMaxValue) value = kMaxValue;
  if (value < kSubBuckets) return static_cast<int>(value);
  const int e = std::bit_width(value) - 1;  // >= kSubBucketBits
  const int group = e - kSubBucketBits + 1;
  const int sub = static_cast<int>((value >> (e - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return group * kSubBuckets + sub;
}

uint64_t Histogram::BucketUpperEdge(int bucket) {
  if (bucket < 0) return 0;
  if (bucket >= kNumBuckets) return kMaxValue;
  if (bucket < kSubBuckets) return static_cast<uint64_t>(bucket);
  const int group = bucket / kSubBuckets;
  const int sub = bucket % kSubBuckets;
  return ((static_cast<uint64_t>(kSubBuckets + sub) + 1) << (group - 1)) - 1;
}

std::vector<uint64_t> Histogram::Quantiles(const std::vector<uint64_t>& counts,
                                           const std::vector<double>& qs) {
  std::vector<uint64_t> out(qs.size(), 0);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return out;
  size_t qi = 0;
  uint64_t cum = 0;
  for (size_t b = 0; b < counts.size() && qi < qs.size(); ++b) {
    cum += counts[b];
    while (qi < qs.size()) {
      // rank ceil(q * total), clamped into [1, total].
      uint64_t rank = static_cast<uint64_t>(
          std::ceil(qs[qi] * static_cast<double>(total)));
      rank = std::min(std::max<uint64_t>(rank, 1), total);
      if (cum < rank) break;
      out[qi++] = BucketUpperEdge(static_cast<int>(b));
    }
  }
  return out;
}

void Histogram::AddCountsTo(std::vector<uint64_t>* counts) const {
  for (int b = 0; b < kNumBuckets; ++b) {
    (*counts)[static_cast<size_t>(b)] +=
        buckets_[b].load(std::memory_order_relaxed);
  }
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> out(static_cast<size_t>(kNumBuckets), 0);
  AddCountsTo(&out);
  return out;
}

uint64_t Histogram::Count() const {
  uint64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double HistogramData::Quantile(double q) const {
  return static_cast<double>(Histogram::Quantiles(bucket_counts, {q})[0]);
}

HistogramData HistogramData::Delta(const HistogramData& earlier) const {
  HistogramData out = *this;
  for (size_t i = 0; i < out.bucket_counts.size(); ++i) {
    out.bucket_counts[i] -=
        std::min(out.bucket_counts[i], earlier.bucket_counts[i]);
  }
  out.count -= std::min(count, earlier.count);
  out.sum -= earlier.sum;
  return out;
}

uint64_t MetricsSnapshot::CounterDelta(const MetricsSnapshot& earlier,
                                       const std::string& name) const {
  const auto now_it = counters.find(name);
  if (now_it == counters.end()) return 0;
  const auto then_it = earlier.counters.find(name);
  const uint64_t then = then_it == earlier.counters.end() ? 0 : then_it->second;
  return now_it->second >= then ? now_it->second - then : 0;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: metric pointers cached in function-local statics and updates
  // from thread_local destructors must stay valid through shutdown.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->Total();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge->Get();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramData data;
    data.bucket_counts = histogram->BucketCounts();
    for (uint64_t c : data.bucket_counts) data.count += c;
    data.sum = static_cast<double>(histogram->Sum());
    out.histograms[name] = std::move(data);
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  const MetricsSnapshot snap = Snapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : snap.counters) {
    w.Key(name).Uint(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : snap.gauges) {
    w.Key(name).Number(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, h] : snap.histograms) {
    w.Key(name).BeginObject();
    w.Key("buckets").BeginArray();
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (h.bucket_counts[b] == 0) continue;
      w.BeginArray().Uint(Histogram::BucketUpperEdge(static_cast<int>(b)));
      w.Uint(h.bucket_counts[b]).EndArray();
    }
    w.EndArray();
    w.Key("count").Uint(h.count);
    w.Key("sum").Number(h.sum);
    w.Key("p50").Number(h.Quantile(0.50));
    w.Key("p95").Number(h.Quantile(0.95));
    w.Key("p99").Number(h.Quantile(0.99));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

bool MetricsRegistry::WriteSnapshotJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << SnapshotJson() << "\n";
  return out.good();
}

namespace {

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's dotted
// names map '.' (and any other illegal byte) to '_'.
std::string PrometheusName(const std::string& name) {
  std::string out = "layergcn_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendNumber(double v, std::string* out) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    AppendNumber(value, &out);
    out += "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string prom = PrometheusName(name);
    out += "# TYPE " + prom + " histogram\n";
    // Cumulative counts at every octave edge of the bucket layout.
    uint64_t cum = 0;
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      cum += h.bucket_counts[b];
      if (b % Histogram::kSubBuckets != Histogram::kSubBuckets - 1) continue;
      out += prom + "_bucket{le=\"" +
             std::to_string(Histogram::BucketUpperEdge(static_cast<int>(b))) +
             "\"} " + std::to_string(cum) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
    out += prom + "_sum ";
    AppendNumber(h.sum, &out);
    out += "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

bool MetricsRegistry::WritePrometheusText(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << PrometheusText();
  return out.good();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace layergcn::obs
