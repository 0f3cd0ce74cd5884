// Benchmark: LayerGCN training epoch wall-clock vs. compute-thread count.
//
// Trains the same model/config/seed at 1, 2, and max threads through the
// deterministic parallel layer (util/parallel.h) and records per-epoch
// wall-clock plus the per-phase breakdown from the observability span
// counters (adjacency resampling, BPR sampling, forward, backward, Adam),
// and the minor page faults of a steady epoch (the getrusage ru_minflt
// delta around TrainEpoch, averaged over every epoch after the first).
// Because the parallel layer is bit-deterministic, the epoch losses must be
// identical across thread counts — the bench verifies that too, and fails
// if any loss differs.
//
// Emits BENCH_train_epoch.json. The scaling acceptance (>= 2x epoch speedup
// at 4+ threads) is only judged when the machine actually has 4+ cores;
// on smaller boxes the numbers are recorded and the check is skipped.

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_env.h"
#include "core/layergcn.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "experiments/env.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

using namespace layergcn;

namespace {

struct RunResult {
  int threads = 0;
  double epoch_seconds = 0.0;  // mean wall-clock per epoch
  double graph_seconds = 0.0;  // per-phase means
  double sampler_seconds = 0.0;
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double adam_seconds = 0.0;
  double minor_faults = 0.0;  // per steady epoch
  std::vector<double> epoch_losses;
};

int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// LayerGCN that counts the process's minor page faults inside each
// TrainEpoch (the batches: sampling, forward, backward, Adam).
class FaultCountingLayerGcn : public core::LayerGcn {
 public:
  double TrainEpoch(util::Rng* rng,
                    std::vector<double>* batch_losses) override {
    const int64_t before = MinorFaults();
    const double loss = core::LayerGcn::TrainEpoch(rng, batch_losses);
    epoch_faults_.push_back(MinorFaults() - before);
    return loss;
  }

  // Mean over the epochs after the first, which also faults in the
  // buffers every later epoch reuses; the first epoch alone otherwise.
  double SteadyFaultsPerEpoch() const {
    if (epoch_faults_.empty()) return 0.0;
    const size_t first = epoch_faults_.size() > 1 ? 1 : 0;
    double sum = 0.0;
    for (size_t e = first; e < epoch_faults_.size(); ++e) {
      sum += static_cast<double>(epoch_faults_[e]);
    }
    return sum / static_cast<double>(epoch_faults_.size() - first);
  }

 private:
  std::vector<int64_t> epoch_faults_;
};

double SpanSeconds(const obs::MetricsSnapshot& after,
                   const obs::MetricsSnapshot& before,
                   const std::string& name) {
  return static_cast<double>(
             after.CounterDelta(before, "span." + name + ".sum_us")) *
         1e-6;
}

RunResult TrainAtWidth(const data::Dataset& ds, const train::TrainConfig& cfg,
                       int threads) {
  util::ThreadPool pool(threads);
  util::parallel::ScopedComputePool scope(&pool);

  FaultCountingLayerGcn model;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
  const train::TrainResult r = train::FitRecommender(&model, ds, cfg);
  const obs::MetricsSnapshot after = obs::MetricsRegistry::Global().Snapshot();

  RunResult out;
  out.threads = threads;
  const double epochs = static_cast<double>(std::max(r.epochs_run, 1));
  out.epoch_seconds = SpanSeconds(after, before, "train.epoch") / epochs;
  out.graph_seconds =
      SpanSeconds(after, before, "train.resample_adjacency") / epochs;
  out.sampler_seconds = SpanSeconds(after, before, "train.sampler") / epochs;
  out.forward_seconds = SpanSeconds(after, before, "train.forward") / epochs;
  out.backward_seconds = SpanSeconds(after, before, "train.backward") / epochs;
  out.adam_seconds = SpanSeconds(after, before, "adam.step") / epochs;
  out.minor_faults = model.SteadyFaultsPerEpoch();
  out.epoch_losses = r.epoch_losses;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const experiments::Env env = experiments::ParseEnv(argc, argv);
  experiments::PrintBanner("Training epoch wall-clock vs. thread count", env);
  obs::SetEnabled(true);

  data::SyntheticConfig cfg;
  cfg.name = "train-epoch-bench";
  const double s = env.Scale(0.25, 1.0);
  cfg.num_users = static_cast<int32_t>(8000 * s);
  cfg.num_items = static_cast<int32_t>(4000 * s);
  cfg.num_interactions = static_cast<int64_t>(200000 * s);
  cfg.num_clusters = 32;
  const data::Dataset ds = data::ChronologicalSplitDataset(
      cfg.name, cfg.num_users, cfg.num_items,
      data::GenerateInteractions(cfg, env.seed));
  std::printf("%s\n", ds.Summary().c_str());

  train::TrainConfig tc;
  tc.embedding_dim = 64;
  tc.num_layers = 3;
  tc.batch_size = 2048;
  tc.max_epochs = env.Epochs(3, 5);
  tc.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;
  tc.edge_drop_ratio = 0.1;
  tc.eval_every = tc.max_epochs + 1;  // pure training epochs, no eval
  tc.seed = env.seed;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int max_threads = std::max(2, hw);
  std::vector<int> widths{1, 2};
  if (max_threads > 2) widths.push_back(max_threads);

  std::vector<RunResult> runs;
  for (int w : widths) {
    std::printf("training %d epochs at %d thread(s)...\n", tc.max_epochs, w);
    runs.push_back(TrainAtWidth(ds, tc, w));
    const RunResult& r = runs.back();
    std::printf(
        "  epoch %7.3fs  (graph %.3fs, sampler %.3fs, forward %.3fs, "
        "backward %.3fs, adam %.3fs)  %.0f minor faults/epoch  "
        "final loss %.9g\n",
        r.epoch_seconds, r.graph_seconds, r.sampler_seconds,
        r.forward_seconds, r.backward_seconds, r.adam_seconds,
        r.minor_faults,
        r.epoch_losses.empty() ? 0.0 : r.epoch_losses.back());
  }

  // The deterministic parallel layer promises bit-identical training at any
  // width; a loss mismatch is a correctness bug, not a tuning matter.
  bool deterministic = true;
  for (const RunResult& r : runs) {
    if (r.epoch_losses != runs.front().epoch_losses) deterministic = false;
  }
  const double speedup =
      runs.back().epoch_seconds > 0.0
          ? runs.front().epoch_seconds / runs.back().epoch_seconds
          : 0.0;
  std::printf("losses bit-identical across widths: %s\n",
              deterministic ? "yes" : "NO");
  std::printf("epoch speedup %d -> %d threads: %.2fx (machine has %d cores)\n",
              widths.front(), widths.back(), speedup, hw);

  FILE* out = std::fopen("BENCH_train_epoch.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_train_epoch.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::WriteBenchEnvJson(out);
  std::fprintf(out,
               "  \"bench\": \"train_epoch\",\n"
               "  \"num_users\": %d,\n"
               "  \"num_items\": %d,\n"
               "  \"interactions\": %ld,\n"
               "  \"embedding_dim\": %d,\n"
               "  \"num_layers\": %d,\n"
               "  \"epochs\": %d,\n"
               "  \"hardware_concurrency\": %d,\n"
               "  \"runs\": [\n",
               ds.num_users, ds.num_items,
               static_cast<long>(ds.num_train()), tc.embedding_dim,
               tc.num_layers, tc.max_epochs, hw);
  for (size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    std::fprintf(out,
                 "    {\"threads\": %d, \"epoch_seconds\": %.6f, "
                 "\"graph_seconds\": %.6f, \"sampler_seconds\": %.6f, "
                 "\"forward_seconds\": %.6f, \"backward_seconds\": %.6f, "
                 "\"adam_seconds\": %.6f, \"minor_faults_per_epoch\": %.1f, "
                 "\"final_loss\": %.17g}%s\n",
                 r.threads, r.epoch_seconds, r.graph_seconds,
                 r.sampler_seconds, r.forward_seconds, r.backward_seconds,
                 r.adam_seconds, r.minor_faults,
                 r.epoch_losses.empty() ? 0.0 : r.epoch_losses.back(),
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"speedup_max_vs_1\": %.3f,\n"
               "  \"losses_bit_identical\": %s\n"
               "}\n",
               speedup, deterministic ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_train_epoch.json\n");

  if (!deterministic) {
    std::printf("acceptance: FAIL (losses differ across thread counts)\n");
    return 2;
  }
  if (hw >= 4) {
    const bool ok = speedup >= 2.0;
    std::printf("acceptance (>=2x at %d threads): %s\n", widths.back(),
                ok ? "PASS" : "FAIL");
    return ok ? 0 : 2;
  }
  std::printf("acceptance: scaling check skipped (%d core(s) available)\n",
              hw);
  return 0;
}
