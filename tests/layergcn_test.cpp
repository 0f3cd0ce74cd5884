// Behavioral tests of the paper's model itself: the propagation math of
// Eqs. 6-9 against hand computation, the ego-layer dropping, the
// train-vs-inference adjacency switch, the ablation flags, and the Fig. 5
// introspection.

#include "core/layergcn.h"

#include <cmath>
#include <cstring>

#include "core/layer_refined_propagation.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "graph/edge_dropout.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "train/trainer.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace layergcn::core {
namespace {

using layergcn::testing::TinyDataset;

train::TrainConfig BaseConfig() {
  train::TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_layers = 2;
  cfg.batch_size = 4;
  cfg.max_epochs = 5;
  cfg.seed = 11;
  cfg.edge_drop_ratio = 0.0;
  cfg.edge_drop_kind = graph::EdgeDropKind::kNone;
  return cfg;
}

// Reference implementation of Eqs. 6-9 with plain tensor ops.
tensor::Matrix ReferencePropagate(const sparse::CsrMatrix& adj,
                                  const tensor::Matrix& x0, int layers,
                                  float eps) {
  tensor::Matrix x = x0;
  tensor::Matrix acc(x0.rows(), x0.cols());
  for (int l = 0; l < layers; ++l) {
    tensor::Matrix h = adj.Multiply(x);
    tensor::Matrix a = tensor::RowwiseCosine(h, x0, eps);
    x = tensor::ScaleRows(h, tensor::AddScalar(a, eps));
    tensor::AddInPlace(&acc, x);
  }
  return acc;  // sum readout, ego layer dropped
}

TEST(LayerGcnTest, PropagationMatchesReferenceImplementation) {
  const data::Dataset ds = TinyDataset();
  LayerGcnOptions opts;
  LayerGcn model(opts);
  train::TrainConfig cfg = BaseConfig();
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();

  // Rebuild the expected result from the same initial embeddings. The model
  // was just initialized and never trained, so Params()[0] still holds X⁰.
  const tensor::Matrix& x0 = model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  const tensor::Matrix want =
      ReferencePropagate(adj, x0, cfg.num_layers, opts.epsilon);
  EXPECT_TRUE(model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, EgoLayerDroppedFromReadout) {
  // With zero layers of actual graph signal the distinction is invisible,
  // so compare include_ego_layer on/off: they must differ by exactly X⁰.
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();

  LayerGcnOptions without;
  LayerGcn m1(without);
  util::Rng rng1(cfg.seed);
  m1.Init(ds, cfg, &rng1);
  m1.BeginEpoch(1, &rng1);
  m1.PrepareEval();

  LayerGcnOptions with;
  with.include_ego_layer = true;
  LayerGcn m2(with);
  util::Rng rng2(cfg.seed);  // same seed => same X⁰
  m2.Init(ds, cfg, &rng2);
  m2.BeginEpoch(1, &rng2);
  m2.PrepareEval();

  const tensor::Matrix diff =
      tensor::Sub(m2.final_embeddings(), m1.final_embeddings());
  EXPECT_TRUE(diff.AllClose(m1.Params()[0]->value, 1e-5f));
}

TEST(LayerGcnTest, MeanReadoutHalvesTwoLayerSum) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();

  LayerGcn sum_model({.readout = Readout::kSum});
  util::Rng r1(cfg.seed);
  sum_model.Init(ds, cfg, &r1);
  sum_model.BeginEpoch(1, &r1);
  sum_model.PrepareEval();

  LayerGcn mean_model({.readout = Readout::kMean});
  util::Rng r2(cfg.seed);
  mean_model.Init(ds, cfg, &r2);
  mean_model.BeginEpoch(1, &r2);
  mean_model.PrepareEval();

  EXPECT_TRUE(tensor::Scale(sum_model.final_embeddings(), 0.5f)
                  .AllClose(mean_model.final_embeddings(), 1e-5f));
}

TEST(LayerGcnTest, RefinementNoneReducesToLightGcnPropagation) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  LayerGcn model({.refinement = Refinement::kNone});
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();

  const tensor::Matrix& x0 = model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  tensor::Matrix x1 = adj.Multiply(x0);
  tensor::Matrix x2 = adj.Multiply(x1);
  tensor::Matrix want = tensor::Add(x1, x2);
  EXPECT_TRUE(model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, FixedAlphaRefinementMatchesGcnii) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.num_layers = 1;
  LayerGcn model({.refinement = Refinement::kFixedAlpha, .fixed_alpha = 0.3f});
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();

  const tensor::Matrix& x0 = model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  tensor::Matrix want = tensor::Add(tensor::Scale(adj.Multiply(x0), 0.7f),
                                    tensor::Scale(x0, 0.3f));
  EXPECT_TRUE(model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, TrainingUsesPrunedGraphInferenceUsesFull) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.edge_drop_ratio = 0.3;
  cfg.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;

  // Inference on the full graph (paper behavior).
  LayerGcn full_model({.inference_on_full_graph = true});
  util::Rng r1(cfg.seed);
  full_model.Init(ds, cfg, &r1);
  full_model.BeginEpoch(1, &r1);
  full_model.PrepareEval();

  // Ablation: inference on the pruned graph differs.
  LayerGcn pruned_model({.inference_on_full_graph = false});
  util::Rng r2(cfg.seed);
  pruned_model.Init(ds, cfg, &r2);
  pruned_model.BeginEpoch(1, &r2);
  pruned_model.PrepareEval();

  EXPECT_FALSE(full_model.final_embeddings().AllClose(
      pruned_model.final_embeddings(), 1e-6f));

  // And the full-graph inference must equal the no-dropout propagation of
  // the same embeddings.
  const tensor::Matrix& x0 = full_model.Params()[0]->value;
  const sparse::CsrMatrix adj = ds.train_graph.NormalizedAdjacency();
  const tensor::Matrix want = ReferencePropagate(adj, x0, cfg.num_layers,
                                                 full_model.options().epsilon);
  EXPECT_TRUE(full_model.final_embeddings().AllClose(want, 1e-5f));
}

TEST(LayerGcnTest, SimilarityHistoryRecordedPerLayer) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.num_layers = 3;
  LayerGcn model({.record_layer_similarities = true});
  util::Rng rng(cfg.seed);
  model.Init(ds, cfg, &rng);
  model.BeginEpoch(1, &rng);
  model.PrepareEval();
  model.PrepareEval();
  const auto& hist = model.layer_similarity_history();
  ASSERT_EQ(hist.size(), 2u);
  ASSERT_EQ(hist[0].size(), 3u);
  for (double a : hist[0]) {
    EXPECT_GE(a, -1.0 - 1e-6);
    EXPECT_LE(a, 1.0 + 1e-6);
  }
}

TEST(LayerGcnTest, TrainsEndToEndWithDegreeDrop) {
  const data::Dataset ds = TinyDataset();
  train::TrainConfig cfg = BaseConfig();
  cfg.edge_drop_ratio = 0.2;
  cfg.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;
  cfg.max_epochs = 25;
  LayerGcn model;
  const train::TrainResult r = train::FitRecommender(&model, ds, cfg);
  EXPECT_TRUE(std::isfinite(r.epoch_losses.back()));
  EXPECT_LT(r.epoch_losses.back(), r.epoch_losses.front());
  EXPECT_GT(r.test_metrics.recall.at(20), 0.0);
}

TEST(LayerGcnTest, EpsilonKeepsOrthogonalLayersAlive) {
  // If a hidden layer is orthogonal to the ego layer, the refinement
  // multiplies it by (0 + eps): the layer shrinks but must not become
  // exactly zero (the paper's motivation for ε in Eq. 6).
  tensor::Matrix h = tensor::Matrix::FromRows({{1, 0}});
  tensor::Matrix x0 = tensor::Matrix::FromRows({{0, 1}});
  const float eps = 1e-4f;
  tensor::Matrix a = tensor::RowwiseCosine(h, x0, eps);
  tensor::Matrix refined = tensor::ScaleRows(h, tensor::AddScalar(a, eps));
  EXPECT_NE(refined(0, 0), 0.f);
  EXPECT_NEAR(refined(0, 0), eps, 1e-6f);
}

// The composite Eq. 6-9 chain that LayerRefinedPropagation replaced, kept
// as its reference: per layer SpMMSymmetric → RowwiseCosine → AddScalar →
// ScaleRows, then one AddN over the layers.
ag::Var CompositePropagate(const sparse::CsrMatrix* adj, ag::Var x0,
                           int layers, float eps,
                           std::vector<double>* mean_similarities) {
  ag::Tape* tape = x0.tape;
  std::vector<ag::Var> outs;
  ag::Var x = x0;
  for (int l = 0; l < layers; ++l) {
    ag::Var h = ag::SpMMSymmetric(adj, x);
    ag::Var a = ag::RowwiseCosine(h, x0, eps);
    mean_similarities->push_back(tensor::MeanAll(tape->value(a)));
    x = ag::ScaleRows(h, ag::AddScalar(a, eps));
    outs.push_back(x);
  }
  return ag::AddN(outs);
}

struct PropagationRun {
  tensor::Matrix out;
  tensor::Matrix grad;  // d Σ(out ⊙ w) / d X⁰
  std::vector<double> mean_similarities;
};

PropagationRun RunPropagation(bool fused, const sparse::CsrMatrix& adj,
                              const tensor::Matrix& x0,
                              const tensor::Matrix& w, int layers,
                              float eps) {
  PropagationRun run;
  run.grad = tensor::Matrix(x0.rows(), x0.cols());
  ag::Tape tape;
  ag::Var x = tape.Parameter(&x0, &run.grad);
  ag::Var out =
      fused ? LayerRefinedPropagation(&adj, x, layers, eps,
                                      &run.mean_similarities)
            : CompositePropagate(&adj, x, layers, eps,
                                 &run.mean_similarities);
  run.out = tape.value(out);
  tape.Backward(ag::Sum(ag::Hadamard(out, tape.Constant(w))));
  return run;
}

bool BitIdentical(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

TEST(LayerGcnTest, FusedPropagationMatchesCompositeOnPrunedGraph) {
  data::SyntheticConfig syn;
  syn.num_users = 600;
  syn.num_items = 400;
  syn.num_interactions = 8000;
  const data::Dataset ds = data::ChronologicalSplitDataset(
      "parity", syn.num_users, syn.num_items,
      data::GenerateInteractions(syn, /*seed=*/7), 0.8, 0.1);
  graph::EdgeDropout drop(&ds.train_graph, graph::EdgeDropKind::kDegreeDrop,
                          0.3);
  util::Rng rng(5);
  const sparse::CsrMatrix adj = drop.SampleAdjacency(&rng, /*epoch=*/1);
  // DegreeDrop must isolate some node, so the eps branch of the cosine
  // (|H||X⁰| = 0) is part of the comparison.
  int64_t isolated = 0;
  for (int64_t r = 0; r < adj.rows(); ++r) isolated += adj.RowNnz(r) == 0;
  ASSERT_GT(isolated, 0);

  const int layers = 4;
  const float eps = 1e-8f;
  const tensor::Matrix x0 =
      layergcn::testing::RandomMatrix(adj.rows(), 64, &rng, -0.1f, 0.1f);
  const tensor::Matrix w =
      layergcn::testing::RandomMatrix(adj.rows(), 64, &rng);

  const PropagationRun composite =
      RunPropagation(/*fused=*/false, adj, x0, w, layers, eps);
  const PropagationRun fused =
      RunPropagation(/*fused=*/true, adj, x0, w, layers, eps);
  EXPECT_TRUE(fused.out.Equals(composite.out));
  EXPECT_TRUE(fused.grad.AllClose(composite.grad, 1e-5f));
  EXPECT_EQ(fused.mean_similarities, composite.mean_similarities);

  std::vector<PropagationRun> by_width;
  for (int width : {1, 2, 8}) {
    util::ThreadPool pool(width);
    util::parallel::ScopedComputePool scope(&pool);
    by_width.push_back(RunPropagation(/*fused=*/true, adj, x0, w, layers,
                                      eps));
  }
  for (size_t i = 1; i < by_width.size(); ++i) {
    EXPECT_TRUE(BitIdentical(by_width[i].out, by_width[0].out)) << i;
    EXPECT_TRUE(BitIdentical(by_width[i].grad, by_width[0].grad)) << i;
  }
}

}  // namespace
}  // namespace layergcn::core
