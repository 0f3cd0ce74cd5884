// Microbenchmarks (google-benchmark) of the substrate kernels driving the
// experiments: SpMM graph convolution, the fused layer-refinement op
// (propagation + cosine + row scaling + readout), edge-dropout sampling,
// GEMM, BPR batch assembly, and top-K ranking — the pieces whose costs
// §IV-C analyzes (O(2LMT/B) propagation + O(LNT/B) refinement).

#include <benchmark/benchmark.h>

#include "core/api.h"
#include "core/layer_refined_propagation.h"
#include "models/lightgcn.h"
#include "tensor/ops.h"
#include "train/bpr_sampler.h"

using namespace layergcn;

namespace {

data::Dataset& BenchDataset() {
  static data::Dataset ds = data::MakeBenchmarkDataset("games", 0.5, 42);
  return ds;
}

void BM_SpMMGraphConvolution(benchmark::State& state) {
  const auto& ds = BenchDataset();
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  const int64_t dim = state.range(0);
  tensor::Matrix x(ds.train_graph.num_nodes(), dim);
  util::Rng rng(1);
  x.UniformInit(&rng, -1.f, 1.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * dim);
}
BENCHMARK(BM_SpMMGraphConvolution)->Arg(16)->Arg(64)->Arg(128);

void BM_LayerRefinement(benchmark::State& state) {
  // One layer of the fused refinement op, forward and backward: the SpMM
  // and the cosine/scale/readout row pass each way, i.e. the propagation
  // plus the extra O(NT) cost LayerGCN adds per layer.
  const auto& ds = BenchDataset();
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  const int64_t dim = state.range(0);
  tensor::Matrix x0(ds.train_graph.num_nodes(), dim);
  tensor::Matrix grad(x0.rows(), x0.cols());
  util::Rng rng(2);
  x0.UniformInit(&rng, -1.f, 1.f);
  for (auto _ : state) {
    ag::Tape tape;
    ag::Var x = tape.Parameter(&x0, &grad);
    ag::Var out = core::LayerRefinedPropagation(&adj, x, 1, 1e-8f);
    tape.Backward(ag::Sum(out));
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          ds.train_graph.num_nodes() * dim);
}
BENCHMARK(BM_LayerRefinement)->Arg(16)->Arg(64)->Arg(128);

void BM_DegreeDropSampling(benchmark::State& state) {
  const auto& ds = BenchDataset();
  graph::EdgeDropout drop(&ds.train_graph, graph::EdgeDropKind::kDegreeDrop,
                          static_cast<double>(state.range(0)) / 10.0);
  util::Rng rng(3);
  int epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(drop.SampleKeptEdges(&rng, epoch++));
  }
  state.SetItemsProcessed(state.iterations() * ds.train_graph.num_edges());
}
BENCHMARK(BM_DegreeDropSampling)->Arg(1)->Arg(5);

void BM_DropEdgeSampling(benchmark::State& state) {
  const auto& ds = BenchDataset();
  graph::EdgeDropout drop(&ds.train_graph, graph::EdgeDropKind::kDropEdge,
                          static_cast<double>(state.range(0)) / 10.0);
  util::Rng rng(4);
  int epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(drop.SampleKeptEdges(&rng, epoch++));
  }
  state.SetItemsProcessed(state.iterations() * ds.train_graph.num_edges());
}
BENCHMARK(BM_DropEdgeSampling)->Arg(1)->Arg(5);

void BM_AdjacencyRebuild(benchmark::State& state) {
  // Per-epoch cost of re-normalizing the pruned adjacency.
  const auto& ds = BenchDataset();
  graph::EdgeDropout drop(&ds.train_graph, graph::EdgeDropKind::kDegreeDrop,
                          0.1);
  util::Rng rng(5);
  int epoch = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(drop.SampleAdjacency(&rng, epoch++));
  }
}
BENCHMARK(BM_AdjacencyRebuild);

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  util::Rng rng(6);
  tensor::Matrix a(n, n), b(n, n);
  a.UniformInit(&rng, -1.f, 1.f);
  b.UniformInit(&rng, -1.f, 1.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_BprBatchSampling(benchmark::State& state) {
  const auto& ds = BenchDataset();
  train::BprSampler sampler(&ds.train_graph);
  util::Rng rng(7);
  sampler.BeginEpoch(&rng);
  train::BprBatch batch;
  for (auto _ : state) {
    if (!sampler.NextBatch(state.range(0), &rng, &batch)) {
      sampler.BeginEpoch(&rng);
    }
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BprBatchSampling)->Arg(512)->Arg(2048);

void BM_TopKRanking(benchmark::State& state) {
  const auto& ds = BenchDataset();
  util::Rng rng(8);
  tensor::Matrix scores(1, ds.num_items);
  scores.UniformInit(&rng, 0.f, 1.f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        eval::TopKIndices(scores.row(0), ds.num_items,
                          static_cast<int>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * ds.num_items);
}
BENCHMARK(BM_TopKRanking)->Arg(10)->Arg(50);

void BM_LayerGcnTrainEpoch(benchmark::State& state) {
  // One full training epoch of the paper's model on the bench dataset.
  const auto& ds = BenchDataset();
  train::TrainConfig cfg;
  cfg.embedding_dim = 32;
  cfg.num_layers = 4;
  cfg.batch_size = 2048;
  core::LayerGcn model;
  util::Rng rng(9);
  model.Init(ds, cfg, &rng);
  int epoch = 0;
  for (auto _ : state) {
    model.BeginEpoch(++epoch, &rng);
    benchmark::DoNotOptimize(model.TrainEpoch(&rng, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * ds.num_train());
}
BENCHMARK(BM_LayerGcnTrainEpoch)->Unit(benchmark::kMillisecond);

void BM_LightGcnTrainEpoch(benchmark::State& state) {
  // Baseline cost comparison (§IV-C: same complexity magnitude).
  const auto& ds = BenchDataset();
  train::TrainConfig cfg;
  cfg.embedding_dim = 32;
  cfg.num_layers = 4;
  cfg.batch_size = 2048;
  models::LightGcn model;
  util::Rng rng(10);
  model.Init(ds, cfg, &rng);
  int epoch = 0;
  for (auto _ : state) {
    model.BeginEpoch(++epoch, &rng);
    benchmark::DoNotOptimize(model.TrainEpoch(&rng, nullptr));
  }
  state.SetItemsProcessed(state.iterations() * ds.num_train());
}
BENCHMARK(BM_LightGcnTrainEpoch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
