// Tests for the observability subsystem: metrics registry exactness under
// concurrency, histogram bucketing, trace-span nesting, JSON round-trips,
// and the trainer's JSONL telemetry stream.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "models/bpr_mf.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "test_util.h"
#include "train/trainer.h"

namespace layergcn::obs {
namespace {

using layergcn::testing::TinyDataset;

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    SetTraceEnabled(false);
    TraceRecorder::Global().Clear();
  }
  void TearDown() override {
    SetTraceEnabled(false);
    TraceRecorder::Global().Clear();
  }
};

TEST_F(ObsTest, CounterConcurrentAddsSumExactly) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.concurrent");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) c->Add(3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Total(), 3 * kThreads * kAddsPerThread);
}

TEST_F(ObsTest, GaugeLastWriteWins) {
  Gauge* g = MetricsRegistry::Global().GetGauge("test.gauge");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->Get(), -2.25);
}

TEST_F(ObsTest, HistogramBucketBoundaries) {
  Histogram h;
  // Below kSubBuckets each value owns a bucket; from 32 on a bucket spans
  // two values, and every bucket's upper edge is inclusive.
  h.Observe(0);
  h.Observe(15);
  h.Observe(32);  // bucket 32 = [32, 33]
  h.Observe(33);  // inclusive upper edge
  h.Observe(34);  // first value of the next bucket
  h.Observe(Histogram::kMaxValue);
  h.Observe(uint64_t{1} << 40);  // saturates into the final bucket
  const std::vector<uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), static_cast<size_t>(Histogram::kNumBuckets));
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[15], 1u);
  EXPECT_EQ(Histogram::BucketUpperEdge(32), 33u);
  EXPECT_EQ(counts[32], 2u);
  EXPECT_EQ(counts[33], 1u);
  EXPECT_EQ(counts[Histogram::kNumBuckets - 1], 2u);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, 7u);
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_EQ(h.Sum(), 0 + 15 + 32 + 33 + 34 + 2 * Histogram::kMaxValue);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
}

#if LAYERGCN_OBS_ENABLED
TEST_F(ObsTest, SpanAccumulatesSumAndCount) {
  Counter* sum = MetricsRegistry::Global().GetCounter("span.test.unit.sum_us");
  Counter* count = MetricsRegistry::Global().GetCounter("span.test.unit.count");
  sum->Reset();
  count->Reset();
  for (int i = 0; i < 5; ++i) {
    OBS_SPAN("test.unit");
  }
  EXPECT_EQ(count->Total(), 5u);
}

TEST_F(ObsTest, NestedSpansRecordParentChildOrdering) {
  SetTraceEnabled(true);
  {
    OBS_SPAN("test.parent");
    {
      OBS_SPAN("test.child");
    }
  }
  SetTraceEnabled(false);
  const std::vector<TraceEvent> events = TraceRecorder::Global().Snapshot();
  const TraceEvent* parent = nullptr;
  const TraceEvent* child = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "test.parent") parent = &e;
    if (std::string(e.name) == "test.child") child = &e;
  }
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(parent->tid, child->tid);
  EXPECT_EQ(child->depth, parent->depth + 1);
  // Child interval contained in the parent interval.
  EXPECT_GE(child->start_us, parent->start_us);
  EXPECT_LE(child->start_us + child->dur_us,
            parent->start_us + parent->dur_us);
}

TEST_F(ObsTest, ChromeTraceJsonIsValidAndCarriesEvents) {
  SetTraceEnabled(true);
  {
    OBS_SPAN("test.export");
  }
  SetTraceEnabled(false);
  const std::string doc = TraceRecorder::Global().ChromeTraceJson();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(doc, &root, &error)) << error;
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  bool found = false;
  for (const JsonValue& e : events->array) {
    const JsonValue* name = e.Find("name");
    if (name != nullptr && name->string == "test.export") {
      found = true;
      const JsonValue* ph = e.Find("ph");
      ASSERT_NE(ph, nullptr);
      EXPECT_EQ(ph->string, "X");
      EXPECT_NE(e.Find("ts"), nullptr);
      EXPECT_NE(e.Find("dur"), nullptr);
      EXPECT_NE(e.Find("tid"), nullptr);
    }
  }
  EXPECT_TRUE(found);
}
#endif  // LAYERGCN_OBS_ENABLED

TEST_F(ObsTest, SnapshotJsonParses) {
  // Talk to the registry directly: this must hold with the OBS macros
  // compiled out too.
  MetricsRegistry::Global().GetCounter("test.snapshot_counter")->Add(2);
  MetricsRegistry::Global().GetGauge("test.snapshot_gauge")->Set(0.5);
  Histogram* hist =
      MetricsRegistry::Global().GetHistogram("test.snapshot_hist");
  hist->Reset();
  hist->Observe(2);
  hist->Observe(2);
  hist->Observe(1000);
  const std::string doc = MetricsRegistry::Global().SnapshotJson();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(doc, &root, &error)) << error;
  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* c = counters->Find("test.snapshot_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_GE(c->number, 2.0);
  const JsonValue* hists = root.Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* h = hists->Find("test.snapshot_hist");
  ASSERT_NE(h, nullptr);
  // Only the non-empty buckets, as [upper_edge, count] pairs.
  const JsonValue* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->array.size(), 2u);
  ASSERT_EQ(buckets->array[0].array.size(), 2u);
  EXPECT_EQ(buckets->array[0].array[0].number, 2.0);
  EXPECT_EQ(buckets->array[0].array[1].number, 2.0);
  const double edge = static_cast<double>(
      Histogram::BucketUpperEdge(Histogram::BucketIndex(1000)));
  EXPECT_EQ(buckets->array[1].array[0].number, edge);
  EXPECT_EQ(buckets->array[1].array[1].number, 1.0);
  EXPECT_EQ(h->Find("count")->number, 3.0);
  EXPECT_EQ(h->Find("p50")->number, 2.0);
  EXPECT_EQ(h->Find("p99")->number, edge);
}

TEST_F(ObsTest, EpochTelemetryJsonRoundTrips) {
  EpochTelemetry rec;
  rec.epoch = 3;
  rec.loss = 0.6931471805599453;  // needs all 17 digits to round-trip
  rec.batch_count = 12;
  rec.batch_loss_min = 0.1;
  rec.batch_loss_max = 0.9;
  rec.batch_loss_mean = 0.45;
  rec.grad_norm = 1.25;
  rec.embedding_norm = 7.5;
  rec.adam_lr = 1e-3;
  rec.adam_steps = 36;
  rec.neg_sampled = 100;
  rec.neg_rejected = 4;
  rec.epoch_seconds = 0.25;
  rec.has_eval = true;
  rec.eval_k = 20;
  rec.eval_recall = 0.125;
  rec.eval_ndcg = 0.0625;
  const std::string line = EpochTelemetryJson(rec);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &root, &error)) << error;
  EXPECT_EQ(root.Find("type")->string, "epoch");
  EXPECT_EQ(root.Find("epoch")->number, 3.0);
  EXPECT_EQ(root.Find("loss")->number, rec.loss);  // exact round-trip
  EXPECT_EQ(root.Find("batch_count")->number, 12.0);
  EXPECT_EQ(root.Find("eval_k")->number, 20.0);
  EXPECT_EQ(root.Find("eval_recall")->number, 0.125);
}

TEST_F(ObsTest, EpochTelemetryJsonOmitsEvalFieldsWhenAbsent) {
  EpochTelemetry rec;
  rec.epoch = 1;
  const std::string line = EpochTelemetryJson(rec);
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(line, &root, &error)) << error;
  EXPECT_EQ(root.Find("eval_recall"), nullptr);
  EXPECT_EQ(root.Find("eval_k"), nullptr);
}

TEST_F(ObsTest, JsonWriterEscapesAndHandlesNonFinite) {
  JsonWriter w;
  w.BeginObject()
      .Key("s")
      .String("a\"b\\c\n\t")
      .Key("inf")
      .Number(std::numeric_limits<double>::infinity())
      .EndObject();
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(w.str(), &root, &error)) << error;
  EXPECT_EQ(root.Find("s")->string, "a\"b\\c\n\t");
  EXPECT_EQ(root.Find("inf")->type, JsonValue::Type::kNull);
}

TEST_F(ObsTest, ParseJsonRejectsMalformedInput) {
  JsonValue out;
  EXPECT_FALSE(ParseJson("{\"a\":}", &out, nullptr));
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing", &out, nullptr));
  EXPECT_FALSE(ParseJson("[1,2,", &out, nullptr));
  EXPECT_FALSE(ParseJson("", &out, nullptr));
}

// End-to-end: train a tiny model with a telemetry sink and verify the JSONL
// stream matches the TrainResult exactly.
TEST_F(ObsTest, TrainerStreamsPerEpochTelemetry) {
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  train::TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.num_layers = 2;
  cfg.batch_size = 4;
  cfg.max_epochs = 6;
  cfg.early_stop_patience = 50;
  cfg.l2_reg = 1e-4;
  cfg.seed = 7;

  const std::string path =
      ::testing::TempDir() + "/layergcn_obs_telemetry.jsonl";
  train::TrainOptions options;
  options.validation_k = 2;
  options.report_ks = {1, 2};
  options.telemetry_path = path;
  const train::TrainResult result =
      train::FitRecommender(&model, ds, cfg, options);
  EXPECT_EQ(result.telemetry_path, path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue root;
    std::string error;
    ASSERT_TRUE(ParseJson(line, &root, &error)) << error << ": " << line;
    records.push_back(std::move(root));
  }
  ASSERT_EQ(static_cast<int>(records.size()), result.epochs_run);
  ASSERT_GE(records.size(), 1u);

  for (size_t i = 0; i < records.size(); ++i) {
    const JsonValue& r = records[i];
    EXPECT_EQ(r.Find("type")->string, "epoch");
    EXPECT_EQ(r.Find("epoch")->number, static_cast<double>(i + 1));
    // Loss in the stream equals TrainResult::epoch_losses bit-for-bit
    // (%.17g round-trip).
    EXPECT_EQ(r.Find("loss")->number, result.epoch_losses[i]);
    EXPECT_TRUE(std::isfinite(r.Find("loss")->number));
    EXPECT_GT(r.Find("batch_count")->number, 0.0);
    EXPECT_TRUE(std::isfinite(r.Find("grad_norm")->number));
    EXPECT_GT(r.Find("embedding_norm")->number, 0.0);
#if LAYERGCN_OBS_ENABLED
    // These fields come from the instrumentation counters/gauges and are
    // zero when the OBS macros are compiled out.
    EXPECT_DOUBLE_EQ(r.Find("adam_lr")->number, cfg.learning_rate);
    EXPECT_GT(r.Find("neg_sampled")->number, 0.0);
#endif
    EXPECT_GT(r.Find("epoch_seconds")->number, 0.0);
    // eval_every defaults to 1, so every epoch carries validation metrics.
    ASSERT_NE(r.Find("eval_recall"), nullptr);
    EXPECT_EQ(r.Find("eval_k")->number, 2.0);
  }
  std::remove(path.c_str());
}

#if LAYERGCN_OBS_ENABLED
TEST_F(ObsTest, TrainingEmitsHotPathCountersAndSpans) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const data::Dataset ds = TinyDataset();
  models::BprMf model;
  train::TrainConfig cfg;
  cfg.embedding_dim = 8;
  cfg.batch_size = 4;
  cfg.max_epochs = 2;
  cfg.seed = 7;
  train::FitRecommender(&model, ds, cfg);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  EXPECT_GT(after.CounterDelta(before, "gemm.calls"), 0u);
  EXPECT_GT(after.CounterDelta(before, "bpr.triples"), 0u);
  EXPECT_GT(after.CounterDelta(before, "adam.steps"), 0u);
  EXPECT_GT(after.CounterDelta(before, "span.train.batch.count"), 0u);
  EXPECT_GT(after.CounterDelta(before, "span.train.forward.count"), 0u);
  EXPECT_GT(after.CounterDelta(before, "span.train.backward.count"), 0u);
  EXPECT_GT(after.CounterDelta(before, "span.adam.step.count"), 0u);
  EXPECT_GT(after.CounterDelta(before, "span.tape.backward.count"), 0u);
}
#endif  // LAYERGCN_OBS_ENABLED

#if LAYERGCN_OBS_ENABLED
TEST_F(ObsTest, DisabledMetricsSkipUpdates) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.disabled");
  c->Reset();
  SetEnabled(false);
  OBS_COUNT("test.disabled", 7);
  SetEnabled(true);
  EXPECT_EQ(c->Total(), 0u);
  OBS_COUNT("test.disabled", 7);
  EXPECT_EQ(c->Total(), 7u);
}
#endif  // LAYERGCN_OBS_ENABLED

}  // namespace
}  // namespace layergcn::obs
