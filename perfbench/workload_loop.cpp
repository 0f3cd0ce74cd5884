// Workload `loop`: writes beside reads through the continuous pipeline.
//
// A PipelineSupervisor is bootstrapped on the first half of a Yelp-like
// stream (scale 2: ~5.6k users x 3.2k items x 52k events, in timestamp
// order): Start, ingest, one cycle that trains from scratch and publishes
// version 1. Then one writer thread (this one) ingests the second half in
// batches of kBatch events and runs a cycle (fine-tune -> gate -> publish
// -> hot-swap) after every kCadence events. Cycles are count-driven, never
// timed, and the stream and model are fixed (kDataSeed), so every
// published model and its Recall@20 repeat exactly. Meanwhile one reader thread
// offers kReadRps open-loop reads of Zipf-skewed users (--seed drives
// them) with the score cache on; the skew puts about two thirds of reads
// on cached users. The work root lives inside the checkout (.bench_work),
// since the benchmark writes nowhere else; its filesystem type is stamped
// on every run.
//
// Threads: writer + reader + a compute pool of nproc - 2 that training
// runs on (reads score on the reader thread itself).
//
// End-to-end, in CPU time at the SpeedProbe's reference speed (one probe
// per ingest batch, on the writer): setup_s (generate + Start + bootstrap ingest +
// first cycle, CPU time of the process, median of five set-ups), op_ms
// (one cycle: CPU time of the process inside RunCycle() less the reader
// thread's, median over cycles), rate_per_s (reads per CPU second of the
// reader inside Recommend(): cache hits, misses after each swap, median
// over one-second windows). Wall-clock figures are printed, not reported:
// freshness per cycle (the Ingest() that crosses the cadence to the first
// read stamped with the new version), read latency (windowed p50, p95;
// p99) and ingest throughput, because on a shared host they followed the
// host's load and disk from run to run; so is the final snapshot's test
// Recall@20.
//
// Checks: every Ingest() and read succeeds; every cycle publishes the next
// version and a probe right after it serves that version; the ingestor's
// digest equals a fresh replay of the WAL.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/obs.h"
#include "pipeline/delta.h"
#include "pipeline/supervisor.h"
#include "pipeline/wal.h"
#include "serve/recommend_service.h"
#include "serve/snapshot.h"
#include "stats.h"
#include "util/discrete_distribution.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace layergcn;

constexpr double kScale = 2.0;
constexpr int kSetups = 5;
constexpr int64_t kBatch = 1250;    // events per Ingest() call
constexpr int64_t kCadence = 1250;  // events between cycles
constexpr double kReadRps = 500;
constexpr double kZipfAlpha = 1.3;
constexpr int kK = 20;

// The stream and the model are fixed (kDataSeed), so every published model
// and its Recall@20 repeat exactly across seeds; --seed drives the reads.
pipeline::SupervisorOptions Options(const std::string& root) {
  pipeline::SupervisorOptions o;
  o.root_dir = root;
  o.snapshot_dir = root + "/snapshots";
  o.min_train_events = 1;  // the writer decides when a cycle is due
  o.train_config.embedding_dim = 32;
  o.train_config.num_layers = 2;
  o.train_config.batch_size = 2048;
  o.train_config.seed = kDataSeed;
  o.warm.bootstrap_epochs = 3;
  o.warm.fine_tune_epochs = 1;
  o.warm.quality_k = kK;
  // Every cycle publishes: the gate is measured (gate_refusals) but set
  // so that it cannot make the cycle count depend on model quality.
  o.warm.max_quality_drop = 1.0;
  o.publish.backoff_base_us = 1'000;
  o.publish.backoff_max_us = 50'000;
  return o;
}

std::vector<pipeline::WalRecord> ToRecords(
    const std::vector<data::Interaction>& in, size_t begin, size_t end) {
  std::vector<pipeline::WalRecord> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    out.push_back({in[i].user, in[i].item, in[i].timestamp});
  }
  return out;
}

// A bootstrapped pipeline ready for the run.
struct Pipeline {
  std::string root;
  std::unique_ptr<serve::SnapshotStore> store;
  std::unique_ptr<pipeline::PipelineSupervisor> sup;
  double generate_s = 0, bootstrap_s = 0, cycle_s = 0;
  double ingest_s = 0;      // inside Ingest() while bootstrapping
  double cpu_s = 0;  // CPU time of the process over the whole set-up
  int64_t ingested = 0;     // events those calls committed
  double train_s = 0, publish_s = 0;  // bootstrap cycle's stage gauges
};

// Generates the stream, starts a fresh supervisor and bootstraps it.
// Returns false (with the reason in `why`) when any step fails.
bool Bootstrap(const Args& args, int attempt, Pipeline* p,
               std::vector<data::Interaction>* stream, std::string* why) {
  const double c0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  const data::SyntheticConfig cfg = data::YelpLikeConfig(kScale);
  *stream = data::GenerateInteractions(cfg, kDataSeed);
  std::sort(stream->begin(), stream->end(),
            [](const data::Interaction& a, const data::Interaction& b) {
              if (a.timestamp != b.timestamp) return a.timestamp < b.timestamp;
              if (a.user != b.user) return a.user < b.user;
              return a.item < b.item;
            });
  const double t1 = NowSeconds();
  p->root = args.work_dir + "/loop-" + std::to_string(attempt);
  std::filesystem::remove_all(p->root);
  p->store = std::make_unique<serve::SnapshotStore>(p->root + "/snapshots");
  p->sup = std::make_unique<pipeline::PipelineSupervisor>(
      Options(p->root), p->store.get());
  util::Status st = p->sup->Start();
  p->ingest_s = 0;
  p->ingested = 0;
  const size_t half = stream->size() / 2;
  for (size_t b = 0; st.ok() && b < half; b += kBatch) {
    const std::vector<pipeline::WalRecord> batch =
        ToRecords(*stream, b, std::min(half, b + kBatch));
    const double i0 = NowSeconds();
    st = p->sup->Ingest(batch);
    p->ingest_s += NowSeconds() - i0;
    p->ingested += static_cast<int64_t>(batch.size());
  }
  const double t2 = NowSeconds();
  if (st.ok()) st = p->sup->RunCycle();
  const double t3 = NowSeconds();
  if (st.ok() && p->sup->manifest().version != 1) {
    st = util::InternalError("bootstrap cycle did not publish version 1");
  }
  if (!st.ok()) {
    *why = st.ToString();
    return false;
  }
  p->cpu_s = ProcessCpuSeconds() - c0;
  p->generate_s = t1 - t0;
  p->bootstrap_s = t2 - t1;
  p->cycle_s = t3 - t2;
  p->train_s = GaugeNow("pipeline.stage.train_us") * 1e-6;
  p->publish_s = GaugeNow("pipeline.stage.publish_us") * 1e-6;
  return true;
}

struct Read {
  uint64_t due_us = 0;
  uint64_t finish_us = 0;
  int64_t version = 0;
  bool ok = false;
  bool cached = false;
  uint64_t score_us = 0;
  double cpu_s = 0;  // the reader thread's CPU time inside Recommend()
};

struct Cycle {
  uint64_t cross_us = 0;     // start of the Ingest() crossing the cadence
  uint64_t swapped_us = 0;   // the serving store published the version
  uint64_t probe_us = 0;     // probe read finished, serving the version
  int64_t version = 0;
  double train_s = 0, publish_s = 0, reload_s = 0;
  double cpu_s = 0;  // CPU time of RunCycle(), the reader's taken out
};

// Open-loop reader: Zipf-skewed users at kReadRps until `stop`.
// `cpu_s` follows the reader thread's CPU time, so the writer can take the
// reads out of the process's CPU time.
std::vector<Read> ReadLoop(serve::RecommendService* service, int32_t users,
                           uint64_t seed, const std::atomic<bool>* stop,
                           std::atomic<double>* cpu_s) {
  const util::DiscreteDistribution zipf(util::ZipfWeights(users, kZipfAlpha));
  util::Rng rng(seed);
  std::vector<Read> reads;
  const double interval_us = 1e6 / kReadRps;
  const auto start = std::chrono::steady_clock::now();
  const uint64_t start_us = obs::NowMicros();
  for (int64_t i = 0; !stop->load(std::memory_order_acquire); ++i) {
    const double offset_us = interval_us * static_cast<double>(i);
    std::this_thread::sleep_until(
        start +
        std::chrono::nanoseconds(static_cast<int64_t>(offset_us * 1e3)));
    serve::RecommendRequest req;
    req.user_id = static_cast<int32_t>(zipf.Sample(&rng));
    req.k = kK;
    serve::RequestContext ctx;
    const double c0 = ThreadCpuSeconds();
    const auto r = service->Recommend(req, &ctx);
    Read rd;
    rd.cpu_s = ThreadCpuSeconds() - c0;
    rd.due_us = start_us + static_cast<uint64_t>(offset_us);
    rd.finish_us = obs::NowMicros();
    rd.ok = r.ok();
    if (r.ok()) {
      rd.version = r.value().snapshot_version;
      rd.cached = r.value().cached;
    }
    rd.score_us = ctx.stage(serve::Stage::kScore);
    reads.push_back(rd);
    cpu_s->store(ThreadCpuSeconds(), std::memory_order_relaxed);
  }
  return reads;
}

}  // namespace

Result RunLoop(const Args& args) {
  Result out;
  const int workers = std::max(1, args.nproc - 2);
  util::ThreadPool pool(workers);
  util::parallel::ScopedComputePool scope(&pool);
  out.pool_threads = workers;
  const double t_start = NowSeconds();

  // --- Set-up: bootstrap a fresh pipeline several times ------------------
  std::vector<double> setup_s, setup_cpu_s, generate_s;
  double sum_generate = 0, sum_bootstrap = 0, sum_train = 0, sum_publish = 0;
  std::vector<double> bootstrap_ingest_s;
  int64_t bootstrap_ingested = 0;
  Pipeline p;
  std::vector<data::Interaction> stream;
  for (int s = 0; s < kSetups; ++s) {
    if (p.sup != nullptr) {
      p.sup.reset();
      p.store.reset();
      std::filesystem::remove_all(p.root);
    }
    std::string why;
    const bool ok = Bootstrap(args, s, &p, &stream, &why);
    out.Check(ok, "bootstrap: " + why);
    if (!ok) return out;
    setup_s.push_back(p.generate_s + p.bootstrap_s + p.cycle_s);
    setup_cpu_s.push_back(p.cpu_s);
    generate_s.push_back(p.generate_s);
    sum_generate += p.generate_s;
    sum_bootstrap += p.bootstrap_s;
    bootstrap_ingest_s.push_back(p.ingest_s);
    bootstrap_ingested += p.ingested;
    sum_train += p.train_s;
    sum_publish += p.publish_s;
  }
  pipeline::PipelineSupervisor& sup = *p.sup;

  // --- Run: writer here, reader on its own thread ------------------------
  serve::RecommendService service(p.store.get());
  const int32_t read_users = static_cast<int32_t>(
      p.store->current()->num_users());
  std::atomic<bool> stop{false};
  std::atomic<double> reader_cpu_s{0.0};
  std::vector<Read> reads;
  std::thread reader([&] {
    reads = ReadLoop(&service, read_users, args.seed ^ 0x5eed, &stop,
                     &reader_cpu_s);
  });

  RegistryDelta run_delta;
  std::vector<Cycle> cycles;
  // The ingest figures count every Ingest() of the run: the bootstraps'
  // and the stream's.
  double ingest_s = 0, probe_s = 0, reload_s_total = 0;
  int64_t ingested = 0, since_cycle = 0;
  double bootstrap_ingest_total = 0;
  for (const double s : bootstrap_ingest_s) bootstrap_ingest_total += s;
  ingest_s = bootstrap_ingest_total;
  ingested = bootstrap_ingested;
  SpeedProbe probe;
  const double t_run = NowSeconds();
  for (size_t b = stream.size() / 2; b < stream.size(); b += kBatch) {
    probe.Sample();
    const std::vector<pipeline::WalRecord> batch =
        ToRecords(stream, b, std::min(stream.size(), b + kBatch));
    const uint64_t t0_us = obs::NowMicros();
    const double t0 = NowSeconds();
    const util::Status st = sup.Ingest(batch);
    ingest_s += NowSeconds() - t0;
    out.Check(st.ok(), "ingest: " + st.ToString());
    if (!st.ok()) break;
    ingested += static_cast<int64_t>(batch.size());
    since_cycle += static_cast<int64_t>(batch.size());
    // The batch that crosses the cadence starts the freshness clock; the
    // tail of the stream gets a final cycle of its own.
    const bool last = b + kBatch >= stream.size();
    if (since_cycle < kCadence && !last) continue;
    Cycle c;
    c.cross_us = t0_us;
    const int64_t before = sup.manifest().version;
    const double cc0 = ProcessCpuSeconds();
    const double rc0 = reader_cpu_s.load(std::memory_order_relaxed);
    const util::Status cyc = sup.RunCycle();
    c.cpu_s = ProcessCpuSeconds() - cc0 -
              (reader_cpu_s.load(std::memory_order_relaxed) - rc0);
    c.swapped_us = p.store->published_at_us();
    c.version = sup.manifest().version;
    out.Check(cyc.ok() && c.version == before + 1,
              "cycle did not publish version " + std::to_string(before + 1) +
                  ": " + cyc.ToString());
    const double p0 = NowSeconds();
    serve::RecommendRequest probe;
    probe.user_id = 0;
    probe.k = kK;
    const auto pr = service.Recommend(probe);
    c.probe_us = obs::NowMicros();
    probe_s += NowSeconds() - p0;
    out.Check(pr.ok() && pr.value().snapshot_version == c.version,
              "probe after publish does not serve version " +
                  std::to_string(c.version));
    if (args.trace) {
      c.train_s = GaugeNow("pipeline.stage.train_us") * 1e-6;
      c.publish_s = GaugeNow("pipeline.stage.publish_us") * 1e-6;
      // serve.reload_s: load of the just-published file into a shadow
      // store (the serving store already swapped inside Publish()).
      serve::SnapshotStore shadow(p.store->dir());
      const double r0 = NowSeconds();
      const util::Status rl = shadow.Reload();
      c.reload_s = NowSeconds() - r0;
      reload_s_total += c.reload_s;
      out.Check(rl.ok(), "shadow reload: " + rl.ToString());
    }
    cycles.push_back(c);
    since_cycle = 0;
  }
  const double run_s = NowSeconds() - t_run;
  run_delta.Close();
  stop.store(true, std::memory_order_release);
  reader.join();

  // --- Checks: reads, WAL replay digest ----------------------------------
  const double t_check = NowSeconds();
  int64_t read_failures = 0, cached = 0;
  std::vector<double> read_us, score_us;
  std::vector<Completion> read_done;
  for (const Read& r : reads) {
    if (!r.ok) {
      ++read_failures;
      continue;
    }
    if (r.cached) ++cached;
    const double latency = r.finish_us > r.due_us
                               ? static_cast<double>(r.finish_us - r.due_us)
                               : 0.0;
    read_us.push_back(latency);
    read_done.push_back(
        {static_cast<double>(r.due_us - reads.front().due_us) * 1e-6,
         latency});
    if (!r.cached) score_us.push_back(static_cast<double>(r.score_us));
  }
  out.attempted += static_cast<int64_t>(reads.size());
  out.failed += read_failures;
  if (read_failures > 0) {
    out.notes.push_back("check failed: " + std::to_string(read_failures) +
                        " reads failed");
  }
  pipeline::WalRecoveryStats wal_stats;
  const auto replay =
      pipeline::InteractionWal::ReadAll(p.root + "/wal", &wal_stats);
  out.Check(replay.ok(), "WAL replay: " + replay.status().ToString());
  if (replay.ok()) {
    pipeline::DeltaIngestor fresh(pipeline::SupervisorOptions().delta);
    fresh.Apply(replay.value());
    out.Check(fresh.Digest() == sup.ingestor().Digest(),
              "ingestor digest differs from a fresh WAL replay");
  }
  const double check_s = NowSeconds() - t_check;
  // Reads per CPU second of the reader, per one-second window by due time.
  std::vector<double> window_reads, window_cpu_s;
  for (const Read& r : reads) {
    const size_t w = static_cast<size_t>(
        static_cast<double>(r.due_us - reads.front().due_us) * 1e-6);
    if (w >= window_reads.size()) {
      window_reads.resize(w + 1, 0.0);
      window_cpu_s.resize(w + 1, 0.0);
    }
    window_reads[w] += 1.0;
    window_cpu_s[w] += r.cpu_s;
  }
  std::vector<double> reads_per_cpu_s;
  for (size_t w = 0; w < window_reads.size(); ++w) {
    if (window_cpu_s[w] > 0) {
      reads_per_cpu_s.push_back(window_reads[w] / window_cpu_s[w]);
    }
  }

  // --- Recall@20 of the final published snapshot -------------------------
  const double g0 = NowSeconds();
  const data::Dataset final_ds = sup.ingestor().BuildDataset();
  const double graph_build_s = NowSeconds() - g0;
  const auto final_snap = p.store->current();
  const double e0 = NowSeconds();
  const eval::Evaluator evaluator(&final_ds, {kK});
  const eval::RankingMetrics m = evaluator.Evaluate(
      final_snap->user_emb(), final_snap->item_emb(), eval::EvalSplit::kTest);
  const double final_eval_s = NowSeconds() - e0;
  const double recall20 = m.recall.at(kK);
  out.Check(final_snap->num_users() == final_ds.num_users &&
                final_snap->num_items() == final_ds.num_items &&
                recall20 > 0.0,
            "final snapshot does not cover the final id space");

  // --- Freshness: crossing Ingest() -> first read of the new version -----
  std::vector<double> freshness_ms, swap_ms, cycle_cpu_ms;
  for (const Cycle& c : cycles) {
    cycle_cpu_ms.push_back(c.cpu_s * 1e3);
    uint64_t first_read = 0;
    for (const Read& r : reads) {
      if (r.ok && r.version >= c.version &&
          (first_read == 0 || r.finish_us < first_read)) {
        first_read = r.finish_us;
      }
    }
    const uint64_t served =
        first_read == 0 ? c.probe_us : std::min(first_read, c.probe_us);
    freshness_ms.push_back(static_cast<double>(served - c.cross_us) * 1e-3);
    if (first_read >= c.swapped_us) {
      swap_ms.push_back(static_cast<double>(first_read - c.swapped_us) * 1e-3);
    }
  }
  // Read latency: medians over one-second windows of the per-window
  // quantile, so a stall of the host that spoils one window does not move
  // the result.
  const double p50 = WindowedQuantile(read_done, 1.0, 0.5);
  const double p95 = WindowedQuantile(read_done, 1.0, 0.95);
  const double p99 = Quantile(read_us, 0.99);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "loop: %zu cycles, %lld events ingested in %.3f s of Ingest(), "
                "%zu reads (windowed p50 %.0f us, p95 %.0f us; p99 %.0f us, "
                "%lld beyond p99), "
                "cache hits %lld, run %.2f s, final test Recall@20 %.6f",
                cycles.size(), static_cast<long long>(ingested), ingest_s,
                read_us.size(), p50, p95, p99,
                static_cast<long long>(SamplesBeyond(
                    static_cast<int64_t>(read_us.size()), 0.99)),
                static_cast<long long>(cached), run_s, recall20);
  out.notes.push_back(buf);
  // Every sample, so a run the host disturbed part-way shows.
  auto list_note = [&out](std::string note, const std::vector<double>& v) {
    for (const double t : v) note.append(" ").append(std::to_string(t));
    out.notes.push_back(note);
  };
  list_note("set-ups (wall s):", setup_s);
  list_note("set-ups (CPU s):", setup_cpu_s);
  list_note("freshness per cycle (wall ms):", freshness_ms);
  list_note("cycles (CPU ms):", cycle_cpu_ms);
  list_note("reads per CPU s (one-second windows):", reads_per_cpu_s);
  list_note("speed probes (CPU s):", probe.samples());

  if (!args.trace) {
    const double scale = probe.Scale();
    out.Add("setup_s", Median(setup_cpu_s) * scale, "s", kSetups);
    out.Add("op_ms", Median(cycle_cpu_ms) * scale, "ms",
            static_cast<int64_t>(cycle_cpu_ms.size()));
    out.Add("rate_per_s", Median(reads_per_cpu_s) / scale, "1/s",
            static_cast<int64_t>(read_us.size()));
    return out;
  }

  // --- Traced run: layer rows on the writer's timeline --------------------
  const double wall = NowSeconds() - t_start;
  std::vector<double> train_s, publish_s, reload_s;
  double run_train = 0, run_publish = 0;
  for (const Cycle& c : cycles) {
    train_s.push_back(c.train_s);
    publish_s.push_back(c.publish_s);
    reload_s.push_back(c.reload_s);
    run_train += c.train_s;
    run_publish += c.publish_s;
  }
  const Attribution attr = Attribute(
      wall, {{"data.generate_s", sum_generate},
             // Start() and WAL recovery; the bootstraps' Ingest() calls
             // are in pipeline.ingest_s.
             {"pipeline.start_s", sum_bootstrap - bootstrap_ingest_total},
             {"pipeline.train_s", sum_train + run_train},
             {"pipeline.publish_s", sum_publish + run_publish},
             {"pipeline.ingest_s", ingest_s},
             {"serve.probe_s", probe_s},
             {"serve.reload_s", reload_s_total},
             {"graph.build_s", graph_build_s},
             {"eval.rank_s", final_eval_s},
             {"bench.check_s", check_s}});
  AddLayerTable("loop, traced run, writer thread, totals over the run", attr,
                &out);

  const double n_cycles =
      static_cast<double>(std::max<size_t>(1, cycles.size()));
  const double n_reads =
      static_cast<double>(std::max<size_t>(1, read_us.size()));
  out.Add("data.generate_s", Median(generate_s), "s");
  out.Add("graph.build_s", graph_build_s, "s");
  out.Add("pipeline.ingest_us_per_event",
          ingested > 0 ? ingest_s * 1e6 / ingested : 0.0, "us");
  out.Add("pipeline.wal_bytes_per_event",
          wal_stats.records > 0
              ? static_cast<double>(wal_stats.bytes) / wal_stats.records
              : 0.0,
          "bytes");
  out.Add("pipeline.train_s", Median(train_s), "s");
  out.Add("pipeline.publish_s", Median(publish_s), "s");
  out.Add("pipeline.publish_retries",
          run_delta.Counter("pipeline.publish.retries"), "count");
  out.Add("pipeline.gate_refusals",
          static_cast<double>(sup.counters().gate_refusals), "count");
  out.Add("train.adam_s", run_delta.SpanSeconds("adam.step") / n_cycles, "s");
  out.Add("serve.reload_s", Median(reload_s), "s");
  out.Add("serve.swap_to_served_ms", Median(swap_ms), "ms");
  out.Add("serve.score_us_p50", Quantile(score_us, 0.5), "us");
  out.Add("serve.score_us_p99", Quantile(score_us, 0.99), "us");
  out.Add("serve.cache_hit_frac", static_cast<double>(cached) / n_reads,
          "ratio");
  out.Add("util.pool_busy_frac", PoolBusyFrac(run_delta, workers, run_s),
          "ratio");
  out.Add("util.pool_tasks", run_delta.Counter("pool.tasks_executed"),
          "count");
  out.Add("bench.unattributed_frac", attr.UnattributedFrac(), "ratio");
  return out;
}

}  // namespace perfbench
