// Workload `train`: a closed batch job, the paper's cost centre.
//
// Yelp-like synthetic preset at scale 2 (about 5.6k users x 3.2k items x
// 36k training interactions), LayerGCN with 4 layers, d = 64, batch 2048,
// DegreeDrop 0.1, no early stopping. Rounds of one epoch, one full-ranking
// test evaluation and one discarded set-up repeat until --seconds have
// passed (at least kMinEpochs). The job is fixed (kDataSeed); --seed picks
// the users of the served-ranking check. Threads: one compute pool of
// nproc workers; the calling thread only waits on it.
//
// End-to-end (untraced), in CPU time of the process at the SpeedProbe's
// reference speed (one probe per round): setup_s (generate + split +
// Init, median over the job's own set-up and the discarded ones), op_ms
// (median BeginEpoch + TrainEpoch over the epochs after the first),
// rate_per_s (test users ranked per CPU second: test users / median of
// PrepareEval + full test ranking). Wall times are printed beside them.
//
// Checks: every epoch loss is finite; evaluating the final model again
// gives the same Recall@20; sampled top-20 lists served through
// RecommendService from a snapshot of the trained model equal
// FusedScoreTopK's ranking of the same users.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/layergcn.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/fused_rank.h"
#include "obs/obs.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "train/checkpoint.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace layergcn;

constexpr double kScale = 2.0;
constexpr int kMinEpochs = 4;
constexpr int kParityUsers = 32;

train::TrainConfig Config() {
  train::TrainConfig tc;
  tc.embedding_dim = 64;
  tc.num_layers = 4;
  tc.batch_size = 2048;
  tc.edge_drop_kind = graph::EdgeDropKind::kDegreeDrop;
  tc.edge_drop_ratio = 0.1;
  tc.seed = kDataSeed;
  return tc;
}

// Served top-20 lists must equal the evaluation kernel's ranking for the
// same embeddings: export, reload, serve, compare bit for bit.
void CheckServedParity(const Args& args, const data::Dataset& ds,
                       const train::EmbeddingView& view, Result* out) {
  const std::string dir = args.work_dir + "/train-snapshots";
  std::filesystem::create_directories(dir);
  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = *view.user;
  ex.item_emb = *view.item;
  ex.user_history = ds.train_graph.user_items();
  ex.write_int8 = false;
  ex.write_bf16 = false;
  const util::Status saved = train::SaveServingExport(
      serve::SnapshotStore::SnapshotPath(dir, 1), ex);
  out->Check(saved.ok(), "serving export: " + saved.ToString());
  serve::SnapshotStore store(dir);
  const util::Status loaded = store.Reload();
  out->Check(loaded.ok(), "snapshot reload: " + loaded.ToString());
  if (!saved.ok() || !loaded.ok()) return;

  serve::RecommendServiceOptions opt;
  opt.score_cache_capacity = 0;
  serve::RecommendService service(&store, opt);
  util::Rng pick(args.seed);
  const std::vector<int64_t> sample = util::UniformSampleWithoutReplacement(
      static_cast<int64_t>(ds.test_users.size()),
      std::min<int64_t>(kParityUsers,
                        static_cast<int64_t>(ds.test_users.size())),
      &pick);
  for (const int64_t idx : sample) {
    const int32_t u = ds.test_users[static_cast<size_t>(idx)];
    serve::RecommendRequest req;
    req.user_id = u;
    req.k = 20;
    const auto served = service.Recommend(req);
    std::vector<std::vector<float>> ref_scores;
    const auto ref = eval::FusedScoreTopK(*view.user, {u}, *view.item, 20,
                                          &ds.train_graph.user_items(), {},
                                          nullptr, &ref_scores);
    bool same = served.ok() && served.value().items.size() == ref[0].size();
    for (size_t j = 0; same && j < ref[0].size(); ++j) {
      same = served.value().items[j].item == ref[0][j] &&
             served.value().items[j].score == ref_scores[0][j];
    }
    out->Check(same, "served top-20 of user " + std::to_string(u) +
                         " differs from the evaluation kernel");
  }
}

}  // namespace

Result RunTrain(const Args& args) {
  Result out;
  util::ThreadPool pool(args.nproc);
  util::parallel::ScopedComputePool scope(&pool);
  out.pool_threads = args.nproc;
  const double t_start = NowSeconds();

  // --- Set-up: generate, split, Init -------------------------------------
  const data::SyntheticConfig cfg = data::YelpLikeConfig(kScale);
  const train::TrainConfig tc = Config();
  std::vector<double> setup_s, setup_cpu_s, generate_s, build_s;
  auto set_up = [&](std::unique_ptr<data::Dataset>* ds,
                    std::unique_ptr<core::LayerGcn>* model, util::Rng* rng) {
    const double c0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    std::vector<data::Interaction> inter =
        data::GenerateInteractions(cfg, kDataSeed);
    const double t1 = NowSeconds();
    *ds = std::make_unique<data::Dataset>(data::ChronologicalSplitDataset(
        cfg.name, cfg.num_users, cfg.num_items, std::move(inter)));
    *model = std::make_unique<core::LayerGcn>();
    (*model)->Init(**ds, tc, rng);
    const double t2 = NowSeconds();
    generate_s.push_back(t1 - t0);
    build_s.push_back(t2 - t1);
    setup_s.push_back(t2 - t0);
    setup_cpu_s.push_back(ProcessCpuSeconds() - c0);
  };
  std::unique_ptr<data::Dataset> ds;
  std::unique_ptr<core::LayerGcn> model;
  // Initial parameters, BPR sampling and DegreeDrop draws all follow
  // kDataSeed: every run does the same work, epoch for epoch, and the
  // Recall@20 after each epoch repeats exactly.
  util::Rng rng(kDataSeed);
  set_up(&ds, &model, &rng);

  // --- Rounds until the time budget is spent -----------------------------
  // Each round trains one epoch, evaluates the model (PrepareEval + full
  // test ranking) and runs a discarded set-up, so every metric's samples
  // span the whole run and a host that slows for a few seconds moves few
  // of them. A traced run alternates the epochs after the first between
  // traced and untraced, so host drift hits both alike: the traced ones
  // give the layer rows, the untraced ones the reference for the tracing
  // overhead. Evaluations and set-ups record nothing, so the epoch rows
  // stay the epochs'; their layers are timed from outside.
  const eval::Evaluator evaluator(ds.get(), {20});
  std::vector<double> epoch_s, untraced_s, resample_s;
  std::vector<double> eval_s, prepare_s, rank_s, recalls;
  std::vector<double> epoch_cpu_s, eval_cpu_s;
  double steady_wall = 0.0, untraced_wall = 0.0;
  auto evaluate = [&] {
    const double c0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    model->PrepareEval();
    const double t1 = NowSeconds();
    const train::EmbeddingView view = model->GetEmbeddingView();
    const eval::RankingMetrics m =
        evaluator.Evaluate(*view.user, *view.item, eval::EvalSplit::kTest);
    const double t2 = NowSeconds();
    prepare_s.push_back(t1 - t0);
    rank_s.push_back(t2 - t1);
    eval_s.push_back(t2 - t0);
    eval_cpu_s.push_back(ProcessCpuSeconds() - c0);
    return m.recall.at(20);
  };
  RegistryDelta training;  // every traced epoch, and nothing else
  RegistryDelta steady;    // traced epochs after the first
  SpeedProbe probe;
  const double t_rounds = NowSeconds();
  for (int e = 0; e < kMinEpochs || NowSeconds() - t_rounds < args.seconds;
       ++e) {
    probe.Sample();
    if (e == 1) steady = RegistryDelta();
    const bool untraced_epoch = args.trace && e % 2 == 1;
    if (untraced_epoch) obs::SetEnabled(false);
    const double c0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    model->BeginEpoch(e, &rng);
    const double t1 = NowSeconds();
    const double loss = model->TrainEpoch(&rng, nullptr);
    const double t2 = NowSeconds();
    const double c2 = ProcessCpuSeconds();
    if (untraced_epoch) obs::SetEnabled(true);
    out.Check(std::isfinite(loss),
              "epoch " + std::to_string(e) + " loss is not finite");
    if (e > 0 && untraced_epoch) {
      untraced_s.push_back(t2 - t0);
      untraced_wall += t2 - t0;
    } else if (e > 0) {
      epoch_s.push_back(t2 - t0);
      epoch_cpu_s.push_back(c2 - c0);
      resample_s.push_back(t1 - t0);
      steady_wall += t2 - t0;
    }
    if (args.trace) obs::SetEnabled(false);
    recalls.push_back(evaluate());
    std::unique_ptr<data::Dataset> other_ds;
    std::unique_ptr<core::LayerGcn> other_model;
    util::Rng other_rng(kDataSeed);
    set_up(&other_ds, &other_model, &other_rng);
    if (args.trace) obs::SetEnabled(true);
  }
  steady.Close();
  training.Close();
  const double steady_epochs =
      static_cast<double>(std::max<size_t>(1, epoch_s.size()));
  // The same model evaluated again ranks exactly as before.
  if (args.trace) obs::SetEnabled(false);
  const double recall20 = evaluate();
  if (args.trace) obs::SetEnabled(true);
  out.Check(recall20 == recalls.back() && recall20 > 0.0,
            "repeated evaluation changed Recall@20");
  // Every sample, so a run the host disturbed part-way shows.
  auto list_note = [&out](std::string note, const std::vector<double>& v) {
    for (const double t : v) note.append(" ").append(std::to_string(t));
    out.notes.push_back(note);
  };
  list_note("set-ups (wall s):", setup_s);
  list_note("set-ups (CPU s):", setup_cpu_s);
  list_note("epochs after the first (wall s):", epoch_s);
  list_note("epochs after the first (CPU s):", epoch_cpu_s);
  list_note("evaluations (wall s):", eval_s);
  list_note("evaluations (CPU s):", eval_cpu_s);
  list_note("speed probes (CPU s):", probe.samples());
  list_note("test Recall@20 after each epoch:", recalls);

  // --- Correctness: served ranking == evaluation kernel ranking ----------
  const double t_check = NowSeconds();
  CheckServedParity(args, *ds, model->GetEmbeddingView(), &out);
  const double check_s = NowSeconds() - t_check;

  if (!args.trace) {
    const double scale = probe.Scale();
    out.Add("setup_s", Median(setup_cpu_s) * scale, "s",
            static_cast<int64_t>(setup_cpu_s.size()));
    out.Add("op_ms", Median(epoch_cpu_s) * 1e3 * scale, "ms",
            static_cast<int64_t>(epoch_cpu_s.size()));
    out.Add("rate_per_s",
            static_cast<double>(ds->test_users.size()) /
                (Median(eval_cpu_s) * scale),
            "1/s", static_cast<int64_t>(eval_cpu_s.size()));
    return out;
  }

  // --- Traced run: the layer table --------------------------------------
  const double wall = NowSeconds() - t_start;

  // Layer rows as disjoint self times. The autograd op spans nest inside
  // train.forward / train.backward; the forward and backward rows keep
  // only what the named ops do not cover.
  auto rows_of = [](const RegistryDelta& d) {
    const double spmm = d.SpanSeconds("fw.spmm") + d.SpanSeconds("bw.spmm");
    const double cosine = d.SpanSeconds("fw.rowwise_cosine") +
                          d.SpanSeconds("bw.rowwise_cosine");
    const double gather = d.SpanSeconds("fw.gather_rows") +
                          d.SpanSeconds("bw.gather_rows");
    const double add_n = d.SpanSeconds("fw.add_n") + d.SpanSeconds("bw.add_n");
    const double forward = SelfTime(
        d.SpanSeconds("train.forward"),
        {d.SpanSeconds("fw.spmm"), d.SpanSeconds("fw.rowwise_cosine"),
         d.SpanSeconds("fw.gather_rows"), d.SpanSeconds("fw.add_n")});
    const double backward = SelfTime(
        d.SpanSeconds("train.backward"),
        {d.SpanSeconds("bw.spmm"), d.SpanSeconds("bw.rowwise_cosine"),
         d.SpanSeconds("bw.gather_rows"), d.SpanSeconds("bw.add_n")});
    return std::vector<std::pair<std::string, double>>{
        {"sparse.spmm_s", spmm},
        {"autograd.forward_s", forward},
        {"autograd.backward_s", backward},
        {"autograd.rowwise_cosine_s", cosine},
        {"autograd.gather_scatter_s", gather},
        {"tensor.add_n_s", add_n},
        {"train.sampler_s", d.SpanSeconds("train.sampler")},
        {"train.adam_s", d.SpanSeconds("adam.step")},
    };
  };

  double sum_generate = 0, sum_build = 0, sum_prepare = 0, sum_rank = 0;
  for (double t : generate_s) sum_generate += t;
  for (double t : build_s) sum_build += t;
  for (double t : prepare_s) sum_prepare += t;
  for (double t : rank_s) sum_rank += t;
  // Epoch rows cover every traced epoch; the untraced epochs record
  // nothing and stand as one row of their own.
  std::vector<std::pair<std::string, double>> table = {
      {"data.generate_s", sum_generate},
      {"graph.build_s", sum_build},
      {"graph.resample_s", training.SpanSeconds("train.resample_adjacency")},
  };
  for (const auto& row : rows_of(training)) table.push_back(row);
  table.push_back({"core.prepare_eval_s", sum_prepare});
  table.push_back({"eval.rank_s", sum_rank});
  table.push_back({"bench.check_s", check_s});
  table.push_back({"bench.untraced_epochs_s", untraced_wall});
  const Attribution attr = Attribute(wall, table);
  AddLayerTable("train, traced run, totals over the run", attr, &out);

  // Per-layer metrics: epoch layers per steady epoch, set-up and eval
  // layers per call.
  out.Add("data.generate_s", Median(generate_s), "s");
  out.Add("graph.build_s", Median(build_s), "s");
  out.Add("graph.resample_s", Median(resample_s), "s");
  for (const auto& row : rows_of(steady)) {
    out.Add(row.first, row.second / steady_epochs, "s");
  }
  out.Add("sparse.spmm_nnz",
          steady.Counter("spmm.nnz_processed") / steady_epochs, "count");
  const double sampled = steady.Counter("bpr.neg_sampled");
  out.Add("train.neg_reject_frac",
          sampled > 0 ? steady.Counter("bpr.neg_rejected") / sampled : 0.0,
          "ratio");
  out.Add("train.batches", steady.SpanCount("train.batch") / steady_epochs,
          "count");
  out.Add("core.prepare_eval_s", Median(prepare_s), "s");
  const double rank = Median(rank_s);
  out.Add("eval.rank_s", rank, "s");
  out.Add("eval.scores_per_s",
          rank > 0 ? static_cast<double>(ds->test_users.size()) *
                         static_cast<double>(ds->num_items) / rank
                   : 0.0,
          "1/s");
  out.Add("util.pool_busy_frac", PoolBusyFrac(steady, args.nproc, steady_wall),
          "ratio");
  out.Add("util.pool_tasks",
          steady.Counter("pool.tasks_executed") / steady_epochs, "count");
  const double untraced = Median(untraced_s);
  out.Add("obs.trace_overhead_frac",
          untraced > 0 ? Median(epoch_s) / untraced - 1.0 : 0.0, "ratio");
  out.Add("bench.unattributed_frac", attr.UnattributedFrac(), "ratio");
  return out;
}

}  // namespace perfbench
