// Shared plumbing of the benchmark's workloads: run arguments, the result
// every workload returns, clocks, and registry deltas for the traced run.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

/// Seed of every workload's fixed part: its synthetic dataset, and for
/// train and loop the model's initialisation and training randomness too,
/// as a benchmark dataset and recipe are fixed. --seed drives the rest
/// (request streams, the served-ranking sample), so cost compares across
/// runs instead of following the data, and the printed Recall@20 of train
/// and loop repeats exactly.
constexpr uint64_t kDataSeed = 2023;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  /// Directory for files a workload writes (snapshots, the pipeline root);
  /// created inside the checkout the benchmark runs from.
  std::string work_dir;
  /// Worker threads of the machine (std::thread::hardware_concurrency).
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (0 for a single reading or a count).
  int64_t samples = 0;
};

/// What one workload run reports. `attempted` counts the operations the
/// run checked and `failed` those whose check failed; `metrics` are the
/// end-to-end metrics (untraced run) or the per-layer rows (traced run).
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Width of the compute pool the workload ran on.
  int pool_threads = 0;
  /// Human-readable lines printed before the result (layer table, notes).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  /// Counts one checked operation; a failed check also leaves a note.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back("check failed: " + what);
    }
  }
};

/// A metric of the manifest (BENCHMARK.json): its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload's untraced run. Each
/// workload fills them from its own traffic, in CPU time of the whole
/// process (ProcessCpuSeconds) at the SpeedProbe's reference speed:
/// setup_s is the median CPU time of one set-up, op_ms the median CPU time
/// of its unit of work and rate_per_s the units of its second path done
/// per CPU second (see each workload's header). Raw CPU and wall times
/// are printed beside them, not reported.
inline const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> m = {
      {"setup_s", "s"}, {"op_ms", "ms"}, {"rate_per_s", "1/s"}};
  return m;
}

/// Per-layer metrics, reported by every workload's traced run. A layer the
/// workload does not run reads 0 there (layer_map.json says which layers
/// each workload runs).
inline const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> m = {
      {"data.generate_s", "s"},
      {"graph.build_s", "s"},
      {"graph.resample_s", "s"},
      {"sparse.spmm_s", "s"},
      {"sparse.spmm_nnz", "count"},
      {"autograd.forward_s", "s"},
      {"autograd.backward_s", "s"},
      {"autograd.rowwise_cosine_s", "s"},
      {"autograd.gather_scatter_s", "s"},
      {"tensor.add_n_s", "s"},
      {"train.sampler_s", "s"},
      {"train.neg_reject_frac", "ratio"},
      {"train.adam_s", "s"},
      {"train.batches", "count"},
      {"core.prepare_eval_s", "s"},
      {"eval.rank_s", "s"},
      {"eval.scores_per_s", "1/s"},
      {"util.pool_busy_frac", "ratio"},
      {"util.pool_tasks", "count"},
      {"serve.admission_us_p50", "us"},
      {"serve.admission_us_p99", "us"},
      {"serve.score_us_p50", "us"},
      {"serve.score_us_p99", "us"},
      {"serve.candidates_per_req", "count"},
      {"serve.overload_goodput_rps", "1/s"},
      {"serve.shed_frac", "ratio"},
      {"serve.expired_frac", "ratio"},
      {"serve.limit_mean", "count"},
      {"serve.cache_hit_frac", "ratio"},
      {"serve.reload_s", "s"},
      {"serve.swap_to_served_ms", "ms"},
      {"pipeline.ingest_us_per_event", "us"},
      {"pipeline.wal_bytes_per_event", "bytes"},
      {"pipeline.train_s", "s"},
      {"pipeline.publish_s", "s"},
      {"pipeline.publish_retries", "count"},
      {"pipeline.gate_refusals", "count"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.hist_p50_gap_us", "us"},
      {"bench.unattributed_frac", "ratio"},
  };
  return m;
}

Result RunTrain(const Args& args);
Result RunServe(const Args& args);
Result RunLoop(const Args& args);

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by every thread of this process. On a shared
/// host the wall clock also counts the time the hypervisor lends a vCPU to
/// someone else (steal), which moved wall times by up to 2x between runs;
/// CPU time does not count it, so the end-to-end metrics are CPU costs.
inline double ProcessCpuSeconds() {
  timespec t;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// CPU time consumed so far by the calling thread.
inline double ThreadCpuSeconds() {
  timespec t;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Host-speed probe. CPU time leaves out steal but still follows the speed
/// of the core: on a shared 4-vCPU host the same scalar loop took 118-128
/// ms of CPU in one half hour and 82-90 ms in the next (clock boost, busy
/// hyperthread siblings), and the workloads' CPU costs moved with it by
/// 25-30%. A workload samples this fixed piece of work (half scalar
/// arithmetic, half a streaming read of a buffer larger than the caches)
/// between its operations, and reports its CPU costs times Scale(): costs
/// at the speed where one probe takes kReferenceS of CPU.
class SpeedProbe {
 public:
  static constexpr double kReferenceS = 0.010;

  SpeedProbe() : buffer_(kWords, 1) {}

  /// Runs the probe once on the calling thread and records its CPU time.
  void Sample() {
    const double c0 = ThreadCpuSeconds();
    uint64_t x = 88172645463325252ull + samples_.size();
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    for (int pass = 0; pass < 2; ++pass) {
      for (const uint64_t w : buffer_) x += w;
    }
    samples_.push_back(ThreadCpuSeconds() - c0);
    sink_ = sink_ + x;
  }

  /// kReferenceS over the median probe: multiplies a CPU time measured
  /// beside the probes into a CPU time at the reference speed.
  double Scale() const {
    const double m = Median(samples_);
    return m > 0.0 ? kReferenceS / m : 0.0;
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr size_t kWords = size_t{1} << 21;  // 16 MiB

  std::vector<uint64_t> buffer_;
  std::vector<double> samples_;
  volatile uint64_t sink_ = 0;  // keeps the probe's work observable
};

/// Deltas of the process-wide metrics registry between two points.
class RegistryDelta {
 public:
  RegistryDelta() : before_(Registry().Snapshot()) {}

  /// Takes the closing snapshot; accessors read (after - before).
  void Close() { after_ = Registry().Snapshot(); }

  double Counter(const std::string& name) const {
    return static_cast<double>(after_.CounterDelta(before_, name));
  }
  /// Seconds accumulated by span `name` (span.<name>.sum_us).
  double SpanSeconds(const std::string& name) const {
    return Counter("span." + name + ".sum_us") * 1e-6;
  }
  double SpanCount(const std::string& name) const {
    return Counter("span." + name + ".count");
  }
  layergcn::obs::HistogramData Histogram(const std::string& name) const {
    const auto a = after_.histograms.find(name);
    if (a == after_.histograms.end()) return {};
    const auto b = before_.histograms.find(name);
    return b == before_.histograms.end() ? a->second
                                         : a->second.Delta(b->second);
  }

 private:
  static layergcn::obs::MetricsRegistry& Registry() {
    return layergcn::obs::MetricsRegistry::Global();
  }

  layergcn::obs::MetricsSnapshot before_;
  layergcn::obs::MetricsSnapshot after_;
};

/// Current value of gauge `name` (0 when it was never set, e.g. with
/// observability off).
inline double GaugeNow(const std::string& name) {
  const auto snap = layergcn::obs::MetricsRegistry::Global().Snapshot();
  const auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? 0.0 : it->second;
}

/// Appends the traced run's layer table: each row with its share of the
/// wall clock, the unattributed remainder, and the wall itself. A row set
/// that claims more than the wall (overlapping rows) fails a check.
inline void AddLayerTable(const std::string& title, const Attribution& a,
                          Result* out) {
  out->Check(a.Consistent(), title + ": layer rows overlap (sum > wall)");
  out->notes.push_back("layer table: " + title);
  auto line = [&](const std::string& name, double s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-28s %10.4f s  %6.2f%%", name.c_str(),
                  s, a.wall > 0 ? 100.0 * s / a.wall : 0.0);
    out->notes.push_back(buf);
  };
  for (const auto& row : a.rows) line(row.first, row.second);
  line("unattributed", a.unattributed);
  line("wall", a.wall);
}

/// Share of `threads` workers' time the pool spent running tasks over a
/// window of `wall_s` seconds, from the pool.task_us counter delta.
inline double PoolBusyFrac(const RegistryDelta& d, int threads,
                           double wall_s) {
  const double capacity_us = static_cast<double>(threads) * wall_s * 1e6;
  return capacity_us > 0.0 ? d.Counter("pool.task_us") / capacity_us : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
