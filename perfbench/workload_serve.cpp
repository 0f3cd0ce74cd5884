// Workload `serve`: request traffic into RecommendService.
//
// Snapshot at about 1/9 of Yelp (Yelp-like preset at scale 4: ~11.2k
// users x ~6.4k items, d = 64), the largest shape tried whose CPU cost per
// request repeated from run to run on a shared host: at scale 7 each
// request's 2.9 MB transposed item table made scoring bound by memory
// traffic that other tenants share, and CPU ms per request moved by up to
// 40% between runs. Embeddings come from
// MakeClusterFeatures over the generator's latent clusters, so rankings
// have structure; histories are the generated training interactions. The
// snapshot is fixed (kDataSeed); --seed drives the request stream. Users
// are drawn uniformly, so the score cache stays mostly cold. Every request
// asks for k = 20 under exact f32 scoring with the adaptive limiter on
// (library defaults) and brownout off.
//
// Threads: this thread is the only generator (it paces, submits and
// harvests); the service's workers run on a compute pool of nproc - 1.
//
// Steps, each on a fresh service:
//   warm-up     kNominalRps open loop, not reported: the allocator and
//               caches settle
//   rounds      until --seconds have passed (at least kMinRounds), each a
//               nominal step (kNominalRps open loop, well below capacity),
//               a saturation step (closed loop, kInFlight requests always
//               outstanding) and a discarded set-up
//   overload    traced runs only: kOverloadRps open loop, far above
//               capacity, every request with a kBudgetUs budget and a
//               50/30/20 interactive/batch/background priority mix
//
// End-to-end, in CPU time of the process at the SpeedProbe's reference
// speed (one probe per round): setup_s (median over the
// set-ups), op_ms (CPU ms per request at saturation: median over the
// quarter-second windows of every saturation step), rate_per_s (requests
// per CPU second at the nominal rate, where the pool idles between
// requests and wake-ups cost: median over the quarter-second windows of
// every nominal step). Wall-clock figures are printed, not reported:
// latency from due time per one-second window (p50; p95 and p99 per step)
// and saturation throughput, because on a shared host they followed the
// host's load from run to run by up to 2x. Overload goodput, shed and
// expired shares and the limiter's mean limit are rows of the traced run.
//
// Checks: answered + shed + expired == offered at every step with no
// other outcome; sampled responses equal a FusedScoreTopK scan of the
// same snapshot bit for bit.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/split.h"
#include "data/synthetic.h"
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

constexpr double kScale = 4.0;
constexpr int kDim = 64;
constexpr int kK = 20;

// Offered load: fixed configuration, never calibrated in a run. Nominal
// is about a quarter of the saturation throughput on a 4-core host, so
// its latency is mostly service time, not queueing.
constexpr double kNominalRps = 400;
constexpr int kInFlight = 6;  // saturation: twice the pool of nproc - 1
constexpr double kOverloadRps = 8000;
constexpr uint64_t kBudgetUs = 20000;
constexpr int kMinRounds = 3;
constexpr double kWarmupS = 1.0;
constexpr double kNominalStepS = 2.0;
constexpr double kSaturationStepS = 1.0;
constexpr double kOverloadStepS = 2.0;
constexpr double kCpuWindowS = 0.25;

constexpr int kSampleEvery = 61;  // responses checked against the scan

serve::Priority MixPriority(int64_t i) {
  const int64_t r = i % 10;
  if (r < 5) return serve::Priority::kInteractive;
  if (r < 8) return serve::Priority::kBatch;
  return serve::Priority::kBackground;
}

struct Snapshot {
  int32_t num_users = 0;
  std::shared_ptr<serve::SnapshotStore> store;
  double generate_s = 0, build_s = 0, export_s = 0, reload_s = 0;
  double cpu_s = 0;  // CPU time of the process over the whole set-up
};

Snapshot BuildSnapshot(const Args& args, int attempt) {
  Snapshot s;
  const double c0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  const data::SyntheticConfig cfg = data::YelpLikeConfig(kScale);
  data::SyntheticOutput gen =
      data::GenerateInteractionsWithClusters(cfg, kDataSeed);
  // One prototype set for both sides (same seed): a user scores its own
  // cluster's items highest.
  tensor::Matrix user_emb = data::MakeClusterFeatures(
      gen.user_clusters, cfg.num_clusters, kDim, 0.1, kDataSeed);
  tensor::Matrix item_emb = data::MakeClusterFeatures(
      gen.item_clusters, cfg.num_clusters, kDim, 0.1, kDataSeed);
  const double t1 = NowSeconds();
  const data::Dataset ds = data::ChronologicalSplitDataset(
      cfg.name, cfg.num_users, cfg.num_items, std::move(gen.interactions));
  const double t2 = NowSeconds();
  const std::string dir =
      args.work_dir + "/serve-snapshots-" + std::to_string(attempt);
  std::filesystem::create_directories(dir);
  train::ServingExport ex;
  ex.version = 1;
  ex.user_emb = std::move(user_emb);
  ex.item_emb = std::move(item_emb);
  ex.user_history = ds.train_graph.user_items();
  ex.write_int8 = false;
  ex.write_bf16 = false;
  const util::Status saved =
      train::SaveServingExport(serve::SnapshotStore::SnapshotPath(dir, 1), ex);
  const double t3 = NowSeconds();
  s.store = std::make_shared<serve::SnapshotStore>(dir);
  const util::Status loaded = saved.ok() ? s.store->Reload() : saved;
  const double t4 = NowSeconds();
  if (!loaded.ok()) s.store.reset();
  s.num_users = cfg.num_users;
  s.generate_s = t1 - t0;
  s.build_s = t2 - t1;
  s.export_s = t3 - t2;
  s.reload_s = t4 - t3;
  s.cpu_s = ProcessCpuSeconds() - c0;
  return s;
}

// Everything one step produced, classified after the step drained.
struct Step {
  double offered_rps = 0;
  int64_t offered = 0, answered = 0, shed = 0, expired = 0, other = 0;
  int64_t cached = 0, in_budget = 0;
  double duration_s = 0;  // first due time to last finish
  std::vector<Completion> completions;  // complete answers, from due time
  std::vector<double> finish_s;  // their finish times from the step's start
  // CPU time of the process and requests submitted, per window of about
  // kCpuWindowS seconds of the step.
  std::vector<std::pair<double, double>> cpu_windows;
  std::vector<double> admission_us, score_us, candidates;
  double limit_sum = 0;
  double submit_s = 0, wait_s = 0, drain_s = 0;
  std::vector<double> late_us;  // generator lateness: submit - due
  std::vector<std::pair<int32_t, std::vector<serve::ScoredItem>>> samples;

  /// Pools another step's samples and counts into this one (the traced
  /// run's traced nominal steps).
  void Append(const Step& o) {
    offered_rps = o.offered_rps;
    offered += o.offered;
    answered += o.answered;
    shed += o.shed;
    expired += o.expired;
    other += o.other;
    cached += o.cached;
    in_budget += o.in_budget;
    duration_s += o.duration_s;
    completions.insert(completions.end(), o.completions.begin(),
                       o.completions.end());
    finish_s.insert(finish_s.end(), o.finish_s.begin(), o.finish_s.end());
    cpu_windows.insert(cpu_windows.end(), o.cpu_windows.begin(),
                       o.cpu_windows.end());
    admission_us.insert(admission_us.end(), o.admission_us.begin(),
                        o.admission_us.end());
    score_us.insert(score_us.end(), o.score_us.begin(), o.score_us.end());
    candidates.insert(candidates.end(), o.candidates.begin(),
                      o.candidates.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
  }

  double LatencyQuantile(double q) const {
    std::vector<double> v;
    v.reserve(completions.size());
    for (const Completion& c : completions) v.push_back(c.latency_us);
    return Quantile(std::move(v), q);
  }
};

serve::RecommendServiceOptions StepOptions(bool overload) {
  serve::RecommendServiceOptions opt;
  opt.max_k = kK;
  // The limiter keeps the library's defaults.
  opt.overload.adaptive = true;
  opt.overload.brownout.enabled = false;
  // Overload: a queue bound that drains well inside the budget. Below
  // capacity: a queue no step fills, so nothing is shed.
  opt.queue_capacity = overload ? 16 : 4096;
  return opt;
}

// Books one finished request into `st`: its outcome, and for a complete
// answer its latency from `due_us` (start_us is the step's start).
void Classify(const util::StatusOr<serve::RecommendResponse>& r,
              const serve::RequestContext& c, uint64_t due_us,
              uint64_t start_us, bool overload, int64_t i, Step* st) {
  const double latency =
      c.finish_us > due_us ? static_cast<double>(c.finish_us - due_us) : 0.0;
  if (r.ok()) {
    ++st->answered;
    // A partial or degraded answer is not a complete one: a miss.
    if (r.value().partial || r.value().degraded) return;
    if (r.value().cached) ++st->cached;
    st->completions.push_back(
        {static_cast<double>(due_us - start_us) * 1e-6, latency});
    st->finish_s.push_back(static_cast<double>(c.finish_us - start_us) *
                           1e-6);
    st->admission_us.push_back(
        static_cast<double>(c.stage(serve::Stage::kAdmission)));
    st->score_us.push_back(static_cast<double>(c.stage(serve::Stage::kScore)));
    st->candidates.push_back(static_cast<double>(c.candidates));
    if (!overload || latency <= static_cast<double>(kBudgetUs)) {
      ++st->in_budget;
    }
    if (i % kSampleEvery == 0) {
      st->samples.push_back({c.user, r.value().items});
    }
  } else if (r.status().code() == util::StatusCode::kResourceExhausted) {
    ++st->shed;
  } else if (r.status().code() == util::StatusCode::kDeadlineExceeded) {
    ++st->expired;
  } else {
    ++st->other;
  }
}

// Samples the process's CPU time every kCpuWindowS seconds of a step,
// booking (CPU seconds, requests submitted) per window into the step.
class CpuWindows {
 public:
  void Tick(int64_t submitted, Step* st) {
    const double now = NowSeconds();
    if (now - wall_ < kCpuWindowS) return;
    const double cpu = ProcessCpuSeconds();
    if (submitted > submitted_) {
      st->cpu_windows.push_back(
          {cpu - cpu_, static_cast<double>(submitted - submitted_)});
    }
    wall_ = now;
    cpu_ = cpu;
    submitted_ = submitted;
  }

 private:
  double wall_ = NowSeconds();
  double cpu_ = ProcessCpuSeconds();
  int64_t submitted_ = 0;
};

// Open loop: requests due every 1/rps seconds for `duration_s`, whatever
// the service's progress.
Step RunStep(serve::SnapshotStore* store, int32_t num_users, double rps,
             double duration_s, bool overload, uint64_t seed) {
  serve::RecommendService service(store, StepOptions(overload));
  Step st;
  st.offered_rps = rps;
  st.offered = std::max<int64_t>(1, static_cast<int64_t>(rps * duration_s));
  std::vector<serve::RequestContext> ctx(static_cast<size_t>(st.offered));
  std::vector<std::future<util::StatusOr<serve::RecommendResponse>>> futures;
  futures.reserve(ctx.size());
  std::vector<uint64_t> due_us(ctx.size());
  util::Rng rng(seed);

  const double interval_us = 1e6 / rps;
  const auto start = std::chrono::steady_clock::now();
  const uint64_t start_us = obs::NowMicros();
  CpuWindows windows;
  for (int64_t i = 0; i < st.offered; ++i) {
    windows.Tick(i, &st);
    const double offset_us = interval_us * static_cast<double>(i);
    due_us[static_cast<size_t>(i)] =
        start_us + static_cast<uint64_t>(offset_us);
    const double w0 = NowSeconds();
    std::this_thread::sleep_until(
        start +
        std::chrono::nanoseconds(static_cast<int64_t>(offset_us * 1e3)));
    const double w1 = NowSeconds();
    serve::RecommendRequest req;
    req.user_id = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(num_users)));
    req.k = kK;
    if (overload) {
      req.budget_us = kBudgetUs;
      req.priority = MixPriority(i);
    }
    futures.push_back(service.Submit(req, &ctx[static_cast<size_t>(i)]));
    const double w2 = NowSeconds();
    const uint64_t submitted = ctx[static_cast<size_t>(i)].submit_us;
    const uint64_t due = due_us[static_cast<size_t>(i)];
    st.late_us.push_back(
        submitted > due ? static_cast<double>(submitted - due) : 0.0);
    st.limit_sum += static_cast<double>(service.concurrency_limit());
    st.wait_s += w1 - w0;
    st.submit_s += w2 - w1;
  }
  const double d0 = NowSeconds();
  uint64_t last_finish = start_us;
  for (size_t i = 0; i < futures.size(); ++i) {
    const util::StatusOr<serve::RecommendResponse> r = futures[i].get();
    last_finish = std::max(last_finish, ctx[i].finish_us);
    Classify(r, ctx[i], due_us[i], start_us, overload,
             static_cast<int64_t>(i), &st);
  }
  st.drain_s = NowSeconds() - d0;
  st.duration_s = static_cast<double>(last_finish - start_us) * 1e-6;
  return st;
}

// Closed loop: keeps kInFlight requests outstanding for `duration_s`, a
// new one submitted as the oldest is harvested; latency counts from
// submission.
Step RunSaturation(serve::SnapshotStore* store, int32_t num_users,
                   double duration_s, uint64_t seed) {
  serve::RecommendService service(store, StepOptions(false));
  Step st;
  std::deque<serve::RequestContext> ctx;  // stable while outstanding
  std::deque<std::future<util::StatusOr<serve::RecommendResponse>>> futures;
  util::Rng rng(seed);
  const uint64_t start_us = obs::NowMicros();
  const double t0 = NowSeconds();
  uint64_t last_finish = start_us;
  int64_t harvested = 0;
  CpuWindows windows;
  auto harvest = [&] {
    const util::StatusOr<serve::RecommendResponse> r = futures.front().get();
    last_finish = std::max(last_finish, ctx.front().finish_us);
    Classify(r, ctx.front(), ctx.front().submit_us, start_us, false,
             harvested++, &st);
    futures.pop_front();
    ctx.pop_front();
  };
  while (NowSeconds() - t0 < duration_s) {
    if (futures.size() >= static_cast<size_t>(kInFlight)) harvest();
    serve::RecommendRequest req;
    req.user_id = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(num_users)));
    req.k = kK;
    windows.Tick(st.offered, &st);
    ctx.emplace_back();
    futures.push_back(service.Submit(req, &ctx.back()));
    ++st.offered;
  }
  while (!futures.empty()) harvest();
  st.duration_s = static_cast<double>(last_finish - start_us) * 1e-6;
  st.offered_rps = st.duration_s > 0 ? st.offered / st.duration_s : 0.0;
  return st;
}

// One line per step: outcomes, latency from due time, and how late the
// generator itself ran (submit time - due time).
std::string Describe(const char* name, const Step& s) {
  char buf[320];
  const int64_t n = static_cast<int64_t>(s.completions.size());
  std::snprintf(
      buf, sizeof(buf),
      "%-8s %6.0f rps: offered %lld answered %lld shed %lld expired %lld | "
      "p50 %.0f us p95 %.0f us p99 %.0f us (%lld beyond p99) | "
      "in budget %lld | generator late p50 %.0f us p99 %.0f us",
      name, s.offered_rps, static_cast<long long>(s.offered),
      static_cast<long long>(s.answered), static_cast<long long>(s.shed),
      static_cast<long long>(s.expired), s.LatencyQuantile(0.5),
      s.LatencyQuantile(0.95), s.LatencyQuantile(0.99),
      static_cast<long long>(SamplesBeyond(n, 0.99)),
      static_cast<long long>(s.in_budget), Quantile(s.late_us, 0.5),
      Quantile(s.late_us, 0.99));
  return buf;
}

// Conservation at every step, and sampled answers against the scan.
void CheckStep(const Step& s, const serve::ModelSnapshot& snap,
               const char* name, Result* out) {
  out->Check(s.answered + s.shed + s.expired == s.offered && s.other == 0,
             std::string(name) + ": answered + shed + expired != offered");
  for (const auto& [user, items] : s.samples) {
    std::vector<std::vector<float>> ref_scores;
    const auto ref = eval::FusedScoreTopK(snap.user_emb(), {user},
                                          snap.item_emb(), kK,
                                          &snap.user_history(), {}, nullptr,
                                          &ref_scores);
    bool same = items.size() == ref[0].size();
    for (size_t j = 0; same && j < items.size(); ++j) {
      same = items[j].item == ref[0][j] && items[j].score == ref_scores[0][j];
    }
    out->Check(same, std::string(name) + ": response for user " +
                         std::to_string(user) + " differs from the scan");
  }
}

}  // namespace

Result RunServe(const Args& args) {
  Result out;
  const int workers = std::max(1, args.nproc - 1);
  util::ThreadPool pool(workers);
  util::parallel::ScopedComputePool scope(&pool);
  out.pool_threads = workers;
  const double t_start = NowSeconds();

  std::vector<double> setup_s, setup_cpu_s, generate_s, build_s, export_s,
      reload_s;
  // One set-up; `keep` holds the snapshot the traffic runs on, the others
  // are discarded with their files.
  auto set_up = [&](int attempt, bool keep, Snapshot* kept) {
    Snapshot snap = BuildSnapshot(args, attempt);
    out.Check(snap.store != nullptr, "snapshot export + reload");
    if (snap.store == nullptr) return false;
    setup_s.push_back(snap.generate_s + snap.build_s + snap.export_s +
                      snap.reload_s);
    setup_cpu_s.push_back(snap.cpu_s);
    generate_s.push_back(snap.generate_s);
    build_s.push_back(snap.build_s);
    export_s.push_back(snap.export_s);
    reload_s.push_back(snap.reload_s);
    if (keep) {
      *kept = std::move(snap);
    } else {
      const std::string dir = snap.store->dir();
      snap.store.reset();
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    return true;
  };
  Snapshot snap;
  if (!set_up(0, true, &snap)) return out;
  serve::SnapshotStore* store = snap.store.get();
  const auto current = store->current();

  double traffic_submit = 0, traffic_wait = 0, traffic_drain = 0;
  double saturation_s = 0, check_s = 0;
  // Books a finished step's time on this thread and runs its checks.
  auto finish = [&](const Step& s, const char* name) {
    traffic_submit += s.submit_s;
    traffic_wait += s.wait_s;
    traffic_drain += s.drain_s;
    const double c0 = NowSeconds();
    CheckStep(s, *current, name, &out);
    check_s += NowSeconds() - c0;
  };

  // --- Warm-up: lets the allocator and caches settle; not reported --------
  if (args.trace) obs::SetEnabled(false);
  finish(RunStep(store, snap.num_users, kNominalRps, kWarmupS, false,
                 args.seed * 7 + 3),
         "warm-up");

  // --- Rounds: nominal, saturation, discarded set-up ----------------------
  // A traced run traces every other nominal step and nothing else, so host
  // drift hits traced and untraced steps alike: the traced ones give the
  // layer rows, the untraced ones the reference for the tracing overhead.
  SpeedProbe probe;
  Step nominal, untraced_nominal, saturated;
  std::vector<double> nominal_p50s, saturation_rates;
  RegistryDelta nominal_delta;
  const double t_traffic = NowSeconds();
  for (int r = 0; r < kMinRounds || NowSeconds() - t_traffic < args.seconds;
       ++r) {
    probe.Sample();
    const bool traced = args.trace && r % 2 == 1;
    if (traced) obs::SetEnabled(true);
    const Step n = RunStep(store, snap.num_users, kNominalRps, kNominalStepS,
                           false, args.seed * 7919 + 2 * r);
    if (traced) obs::SetEnabled(false);
    finish(n, "nominal");
    (traced || !args.trace ? nominal : untraced_nominal).Append(n);
    for (const double w : WindowQuantiles(n.completions, 1.0, 0.5)) {
      nominal_p50s.push_back(w);
    }

    const double s0 = NowSeconds();
    const Step sat = RunSaturation(store, snap.num_users, kSaturationStepS,
                                   args.seed * 7919 + 2 * r + 1);
    saturation_s += NowSeconds() - s0;
    finish(sat, "saturation");
    saturated.Append(sat);
    for (const double w : WindowRates(sat.finish_s, 0.25, sat.duration_s)) {
      saturation_rates.push_back(w);
    }

    if (!set_up(r + 1, false, nullptr)) return out;
  }
  nominal_delta.Close();

  // --- Overload (traced runs) ---------------------------------------------
  Step over;
  if (args.trace) {
    over = RunStep(store, snap.num_users, kOverloadRps, kOverloadStepS, true,
                   args.seed * 7 + 2);
    finish(over, "overload");
  }
  if (args.trace) obs::SetEnabled(true);
  const double traffic_s = NowSeconds() - t_traffic;

  // Every window and set-up, so a run the host disturbed part-way shows.
  auto list_note = [&out](std::string note, const std::vector<double>& v) {
    for (const double t : v) note.append(" ").append(std::to_string(t));
    out.notes.push_back(note);
  };
  std::vector<double> saturation_cpu_ms, nominal_per_cpu_s;
  for (const auto& [cpu, reqs] : saturated.cpu_windows) {
    saturation_cpu_ms.push_back(cpu * 1e3 / reqs);
  }
  for (const auto& [cpu, reqs] : nominal.cpu_windows) {
    nominal_per_cpu_s.push_back(reqs / cpu);
  }
  list_note("set-ups (wall s):", setup_s);
  list_note("set-ups (CPU s):", setup_cpu_s);
  list_note("nominal window p50s (us from due time):", nominal_p50s);
  list_note("nominal windows (requests per CPU s):", nominal_per_cpu_s);
  list_note("saturation window rates (1/s):", saturation_rates);
  list_note("saturation windows (CPU ms per request):", saturation_cpu_ms);
  list_note("speed probes (CPU s):", probe.samples());
  out.notes.push_back(Describe("nominal", nominal));
  out.notes.push_back(Describe("saturate", saturated));
  if (!args.trace) {
    const double scale = probe.Scale();
    out.Add("setup_s", Median(setup_cpu_s) * scale, "s",
            static_cast<int64_t>(setup_cpu_s.size()));
    out.Add("op_ms", Median(saturation_cpu_ms) * scale, "ms",
            static_cast<int64_t>(saturated.completions.size()));
    out.Add("rate_per_s", Median(nominal_per_cpu_s) / scale, "1/s",
            static_cast<int64_t>(nominal.completions.size()));
    return out;
  }
  out.notes.push_back(Describe("overload", over));

  // --- Traced run: layer rows ---------------------------------------------
  const double wall = NowSeconds() - t_start;
  auto sum = [](const std::vector<double>& v) {
    double t = 0;
    for (const double x : v) t += x;
    return t;
  };
  // Traffic time on this thread: pacing sleeps, time inside Submit (the
  // admission layer), waiting on futures once a step stops offering, and
  // the closed-loop saturation steps. The discarded set-ups are in the
  // set-up rows.
  const Attribution attr = Attribute(
      wall, {{"data.generate_s", sum(generate_s)},
             {"graph.build_s", sum(build_s)},
             {"serve.export_s", sum(export_s)},
             {"serve.reload_s", sum(reload_s)},
             {"serve.submit_s", traffic_submit},
             {"bench.pacing_wait_s", traffic_wait},
             {"bench.drain_s", traffic_drain},
             {"bench.saturation_s", saturation_s},
             {"bench.check_s", check_s}});
  AddLayerTable("serve, traced run, totals over the run (traffic " +
                    std::to_string(traffic_s) + " s)",
                attr, &out);

  const double n_nominal = static_cast<double>(nominal.completions.size());
  double cand_sum = 0;
  for (double c : nominal.candidates) cand_sum += c;
  // Plain quantiles here: traced and untraced steps alternate, so their
  // windows cannot be pooled.
  const double traced_p50 = nominal.LatencyQuantile(0.5);
  const double untraced_p50 = untraced_nominal.LatencyQuantile(0.5);
  std::vector<double> good_due;
  for (const Completion& c : over.completions) {
    if (c.latency_us <= static_cast<double>(kBudgetUs)) {
      good_due.push_back(c.due_s);
    }
  }
  const double over_offered = static_cast<double>(over.offered);
  out.Add("data.generate_s", Median(generate_s), "s");
  out.Add("graph.build_s", Median(build_s), "s");
  out.Add("serve.reload_s", Median(reload_s), "s");
  out.Add("serve.admission_us_p50", Quantile(nominal.admission_us, 0.5), "us");
  out.Add("serve.admission_us_p99", Quantile(nominal.admission_us, 0.99),
          "us");
  out.Add("serve.score_us_p50", Quantile(nominal.score_us, 0.5), "us");
  out.Add("serve.score_us_p99", Quantile(nominal.score_us, 0.99), "us");
  out.Add("serve.candidates_per_req", n_nominal > 0 ? cand_sum / n_nominal : 0,
          "count");
  out.Add("serve.cache_hit_frac",
          n_nominal > 0 ? static_cast<double>(nominal.cached) / n_nominal : 0,
          "ratio");
  // Goodput: complete in-budget answers per second, median over
  // half-second windows.
  out.Add("serve.overload_goodput_rps",
          Median(WindowRates(good_due, 0.5, over_offered / kOverloadRps)),
          "1/s");
  out.Add("serve.shed_frac", static_cast<double>(over.shed) / over_offered,
          "ratio");
  out.Add("serve.expired_frac",
          static_cast<double>(over.expired) / over_offered, "ratio");
  out.Add("serve.limit_mean", over.limit_sum / over_offered, "count");
  out.Add("util.pool_busy_frac",
          PoolBusyFrac(nominal_delta, workers, nominal.duration_s), "ratio");
  out.Add("util.pool_tasks", nominal_delta.Counter("pool.tasks_executed"),
          "count");
  out.Add("obs.trace_overhead_frac",
          untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0, "ratio");
  out.Add("obs.hist_p50_gap_us",
          nominal_delta.Histogram("serve.latency_us").Quantile(0.5) -
              traced_p50,
          "us");
  out.Add("bench.unattributed_frac", attr.UnattributedFrac(), "ratio");
  return out;
}

}  // namespace perfbench
