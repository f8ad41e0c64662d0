//===- obs_test.cpp - Tracer, metrics, and exporter tests ------*- C++ -*-===//

#include "engine/Engine.h"

#include "TestUtil.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Prometheus.h"
#include "obs/Rolling.h"
#include "obs/Tracer.h"
#include "support/Fs.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// A small, fast mixed campaign: two cheap Observe jobs plus one real
/// Predict (touches encode, solver, extract, and validate metrics).
Campaign smallCampaign() {
  Campaign C;
  C.Name = "obs-test";
  for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
    JobSpec J;
    J.Kind = JobKind::Observe;
    J.App = "voter";
    J.Cfg = WorkloadConfig::small(Seed);
    C.Jobs.push_back(std::move(J));
  }
  {
    JobSpec J;
    J.Kind = JobKind::Predict;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(2);
    J.Level = IsolationLevel::Causal;
    J.Strat = Strategy::ApproxRelaxed;
    J.TimeoutMs = 60000;
    C.Jobs.push_back(std::move(J));
  }
  return C;
}

Report runWith(const Campaign &C, unsigned Workers) {
  EngineOptions O;
  O.NumWorkers = Workers;
  return Engine(O).run(C);
}

/// RAII guard: spans recorded by a test never leak into another.
struct TracerSession {
  TracerSession() { obs::Tracer::global().enable(); }
  ~TracerSession() {
    obs::Tracer::global().disable();
    obs::Tracer::global().setRingCapacity(0);
    obs::Tracer::global().clear();
  }
};

/// RAII guard: the global logger is restored to its defaults (stderr,
/// info, text) when a test that retargeted it finishes.
struct LogSession {
  ~LogSession() {
    std::string Error;
    obs::Log::global().configure(obs::Log::Options(), &Error);
  }
};

/// \p Name in this process's obs scratch directory, with no file there.
std::string scratchFile(const char *Name) {
  static const std::string Dir = testutil::scratchDir("obs");
  std::string Path = pathJoin(Dir, Name);
  std::filesystem::remove(Path);
  return Path;
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram semantics
//===----------------------------------------------------------------------===//

TEST(Metrics, HistogramBucketEdges) {
  // Edges are upper-inclusive: a value lands in the first bucket whose
  // edge it does not exceed.
  using H = obs::Histogram;
  EXPECT_EQ(H::bucketFor(0.0), 0u);
  EXPECT_EQ(H::bucketFor(0.00005), 0u);
  EXPECT_EQ(H::bucketFor(0.0001), 0u); // exactly on the first edge
  EXPECT_EQ(H::bucketFor(0.0002), 1u);
  EXPECT_EQ(H::bucketFor(1.0), 4u);
  EXPECT_EQ(H::bucketFor(1.5), 5u);
  EXPECT_EQ(H::bucketFor(60.0), 6u);
  EXPECT_EQ(H::bucketFor(61.0), H::NumEdges); // overflow bucket
}

TEST(Metrics, HistogramObserveAndReset) {
  obs::Histogram H;
  H.observe(0.0005);
  H.observe(0.0005);
  H.observe(120.0);
  H.observe(-1.0); // clamped to zero, not dropped
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.bucket(0), 1u); // the clamped negative
  EXPECT_EQ(H.bucket(1), 2u);
  EXPECT_EQ(H.bucket(obs::Histogram::NumEdges), 1u);
  EXPECT_NEAR(H.sum(), 120.001, 1e-6);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0.0);
  EXPECT_EQ(H.bucket(1), 0u);
}

TEST(Metrics, RegistryHandlesAreStable) {
  obs::Counter &A = obs::Metrics::global().counter("obs-test.stable");
  obs::Counter &B = obs::Metrics::global().counter("obs-test.stable");
  EXPECT_EQ(&A, &B); // same name, same instrument — call-site caching is safe
  // The registry is process-global: assert deltas, so repeats pass too.
  uint64_t Before = B.value();
  A.inc(3);
  EXPECT_EQ(B.value() - Before, 3u);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST(Tracer, SpanNestingAndThreadAttribution) {
  TracerSession Session;

  uint32_t WorkerTid = 0;
  {
    obs::Span Outer("outer", obs::CatEngine);
    {
      obs::Span Inner("inner", obs::CatEncode);
      Inner.arg("detail", "nested");
    }
    std::thread T([&] {
      WorkerTid = obs::Tracer::threadId();
      obs::Span Side("side", obs::CatSolver);
    });
    T.join();
  }

  std::vector<obs::Tracer::SpanRecord> Spans = obs::Tracer::global().spans();
  ASSERT_EQ(Spans.size(), 3u);
  // spans() sorts by start time with longer spans first on ties, so the
  // enclosing span always precedes what it encloses.
  EXPECT_STREQ(Spans[0].Name, "outer");
  EXPECT_STREQ(Spans[1].Name, "inner");
  EXPECT_STREQ(Spans[2].Name, "side");

  // Containment: children start no earlier and end no later.
  EXPECT_GE(Spans[1].StartNs, Spans[0].StartNs);
  EXPECT_LE(Spans[1].StartNs + Spans[1].DurNs,
            Spans[0].StartNs + Spans[0].DurNs);

  // Thread attribution: main-thread spans share a tid, the worker's
  // span carries its own.
  EXPECT_EQ(Spans[0].Tid, obs::Tracer::threadId());
  EXPECT_EQ(Spans[1].Tid, Spans[0].Tid);
  EXPECT_EQ(Spans[2].Tid, WorkerTid);
  EXPECT_NE(Spans[2].Tid, Spans[0].Tid);

  // Args survive into the record.
  ASSERT_EQ(Spans[1].Args.size(), 1u);
  EXPECT_STREQ(Spans[1].Args[0].first, "detail");
  EXPECT_EQ(Spans[1].Args[0].second, "nested");

  // Category roll-up covers exactly the categories that ran.
  std::map<std::string, double> ByCat;
  for (const auto &KV : obs::Tracer::global().categorySeconds())
    ByCat.insert(KV);
  EXPECT_EQ(ByCat.size(), 3u);
  EXPECT_EQ(ByCat.count(obs::CatEngine), 1u);
  EXPECT_EQ(ByCat.count(obs::CatEncode), 1u);
  EXPECT_EQ(ByCat.count(obs::CatSolver), 1u);
}

TEST(Tracer, DisabledTracerRecordsNothing) {
  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  {
    obs::Span S("ignored", obs::CatEngine);
    S.arg("key", "value");
  }
  EXPECT_TRUE(obs::Tracer::global().spans().empty());
  // seconds() still measures — span-as-timer works with tracing off.
  obs::Span T("timer", obs::CatEngine);
  EXPECT_GE(T.seconds(), 0.0);
}

//===----------------------------------------------------------------------===//
// Chrome trace export
//===----------------------------------------------------------------------===//

TEST(Tracer, ChromeTraceIsWellFormedJson) {
  TracerSession Session;
  {
    obs::Span A("alpha", obs::CatEngine);
    A.arg("app", "voter");
    obs::Span B("beta", obs::CatSolver);
  }

  std::string Error;
  std::optional<JsonValue> Doc =
      parseJson(obs::Tracer::global().toChromeTraceJson(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  ASSERT_EQ(Doc->K, JsonValue::Kind::Object);

  const JsonValue *Unit = Doc->field("displayTimeUnit");
  ASSERT_NE(Unit, nullptr);
  EXPECT_EQ(Unit->Text, "ms");

  const JsonValue *Events = Doc->field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Kind::Array);
  ASSERT_EQ(Events->Items.size(), 2u);
  for (const JsonValue &E : Events->Items) {
    ASSERT_EQ(E.K, JsonValue::Kind::Object);
    for (const char *Field : {"name", "cat", "ph", "ts", "dur", "pid", "tid"})
      EXPECT_NE(E.field(Field), nullptr) << Field;
    EXPECT_EQ(E.field("ph")->Text, "X"); // complete events
    // Timestamps are normalized to the enable() epoch: never negative.
    EXPECT_GE(std::stod(E.field("ts")->Text), 0.0);
  }
  // The "alpha" span's arg dictionary survives export.
  const JsonValue *Args = Events->Items[0].field("args");
  ASSERT_NE(Args, nullptr);
  ASSERT_NE(Args->field("app"), nullptr);
  EXPECT_EQ(Args->field("app")->Text, "voter");
}

//===----------------------------------------------------------------------===//
// Engine integration
//===----------------------------------------------------------------------===//

TEST(Metrics, CampaignCountersDeterministicAcrossWorkerCounts) {
  Campaign C = smallCampaign();
  Report R1 = runWith(C, 1);
  Report R2 = runWith(C, 2);

  // The per-run metrics delta attached by Engine::run has identical
  // counter totals regardless of parallelism: the same jobs run the
  // same passes, checks, and replays.
  ASSERT_FALSE(R1.metrics().empty());
  ASSERT_FALSE(R2.metrics().empty());
  EXPECT_EQ(R1.metrics().Counters, R2.metrics().Counters);

  // Histogram *counts* are deterministic too (second sums are not).
  ASSERT_EQ(R1.metrics().Histograms.size(), R2.metrics().Histograms.size());
  for (size_t I = 0; I < R1.metrics().Histograms.size(); ++I) {
    EXPECT_EQ(R1.metrics().Histograms[I].first,
              R2.metrics().Histograms[I].first);
    EXPECT_EQ(R1.metrics().Histograms[I].second.Count,
              R2.metrics().Histograms[I].second.Count);
  }

  // Spot-check the totals against the campaign's shape.
  EXPECT_EQ(R1.metrics().counter("engine.jobs_completed"), C.size());
  // The Predict job checks once; its validation replay may check again
  // (serializability of the replayed history goes through the solver).
  EXPECT_GE(R1.metrics().counter("solver.checks"), 1u);
  EXPECT_EQ(R1.metrics().histogramCount("engine.job_seconds"), C.size());
  EXPECT_GE(R1.metrics().counter("encode.passes"), 1u);
}

TEST(Metrics, SnapshotDeltaSubtractsBaseline) {
  obs::Counter &Twice = obs::Metrics::global().counter("obs-test.delta");
  Twice.inc(5);
  obs::MetricsSnapshot Before = obs::Metrics::global().snapshot();
  Twice.inc(3);
  obs::MetricsSnapshot After = obs::Metrics::global().snapshot();
  obs::MetricsSnapshot D = obs::MetricsSnapshot::delta(Before, After);
  EXPECT_EQ(D.counter("obs-test.delta"), 3u);
}

TEST(Report, DefaultBytesInvariantUnderTracing) {
  Campaign C = smallCampaign();
  std::string Off = runWith(C, 1).toJson();

  std::string On;
  {
    TracerSession Session;
    On = runWith(C, 1).toJson();
    // Tracing actually happened: the run produced engine spans.
    EXPECT_FALSE(obs::Tracer::global().spans().empty());
  }

  // Instrumentation is invisible in default reports: byte-identical
  // with the tracer on or off, and no metrics block leaks in.
  EXPECT_EQ(Off, On);
  EXPECT_EQ(Off.find("\"metrics\""), std::string::npos);

  // With timings requested, the metrics block appears.
  ReportOptions Timed;
  Timed.IncludeTimings = true;
  std::string Full = runWith(C, 1).toJson(Timed);
  EXPECT_NE(Full.find("\"metrics\""), std::string::npos);
  EXPECT_NE(Full.find("\"engine.jobs_completed\""), std::string::npos);
  EXPECT_NE(Full.find("\"solver.check_seconds\""), std::string::npos);
  EXPECT_NE(Full.find("\"solver_stats\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Labeled families
//===----------------------------------------------------------------------===//

TEST(Metrics, LabeledFamilyCellsAreIsolated) {
  obs::CounterFamily &F = obs::Metrics::global().counterFamily(
      "obs-test.fam.requests", {"tenant", "verb"});
  obs::Counter &A = F.at({"acme", "query"});
  obs::Counter &B = F.at({"beta", "query"});
  EXPECT_NE(&A, &B); // different label tuples never share a cell
  EXPECT_EQ(&A, &F.at({"acme", "query"})); // same tuple, same cell
  // The registry is process-global: assert deltas, so repeats pass too.
  obs::Counter &Plain =
      obs::Metrics::global().counter("obs-test.fam.requests");
  uint64_t A0 = A.value(), B0 = B.value(), Plain0 = Plain.value();
  A.inc(3);
  B.inc(7);
  EXPECT_EQ(A.value() - A0, 3u);
  EXPECT_EQ(B.value() - B0, 7u);

  // The same name resolves to the same family object (call-site caching
  // with a static reference is safe, exactly like unlabeled metrics).
  obs::CounterFamily &F2 = obs::Metrics::global().counterFamily(
      "obs-test.fam.requests", {"tenant", "verb"});
  EXPECT_EQ(&F, &F2);

  obs::MetricsSnapshot S = obs::Metrics::global().snapshot();
  EXPECT_EQ(S.familyCounter("obs-test.fam.requests", {"acme", "query"}),
            A0 + 3);
  EXPECT_EQ(S.familyCounter("obs-test.fam.requests", {"beta", "query"}),
            B0 + 7);
  EXPECT_EQ(S.familyCounter("obs-test.fam.requests", {"nobody", "query"}),
            0u);

  // A family never collides with an unlabeled metric of the same name:
  // the unlabeled counter keeps its own value.
  Plain.inc(100);
  obs::MetricsSnapshot S2 = obs::Metrics::global().snapshot();
  EXPECT_EQ(S2.counter("obs-test.fam.requests"), Plain0 + 100);
  EXPECT_EQ(S2.familyCounter("obs-test.fam.requests", {"acme", "query"}),
            A0 + 3);
}

TEST(Metrics, FamilyDeltaSubtractsCellWise) {
  obs::CounterFamily &F = obs::Metrics::global().counterFamily(
      "obs-test.fam.delta", {"tenant"});
  F.at({"a"}).inc(5);
  obs::MetricsSnapshot Before = obs::Metrics::global().snapshot();
  F.at({"a"}).inc(2);
  F.at({"b"}).inc(9); // a cell born after the baseline
  obs::MetricsSnapshot After = obs::Metrics::global().snapshot();
  obs::MetricsSnapshot D = obs::MetricsSnapshot::delta(Before, After);
  EXPECT_EQ(D.familyCounter("obs-test.fam.delta", {"a"}), 2u);
  EXPECT_EQ(D.familyCounter("obs-test.fam.delta", {"b"}), 9u);
}

TEST(Metrics, FamiliesAppearInMetricsJson) {
  obs::Metrics::global()
      .gaugeFamily("obs-test.fam.gauge", {"tenant"})
      .at({"acme"})
      .set(4);
  obs::MetricsSnapshot S = obs::Metrics::global().snapshot();
  JsonWriter J;
  J.openObject();
  obs::writeMetricsJson(J, S);
  J.closeObject();
  std::string Error;
  std::optional<JsonValue> Doc = parseJson(J.take(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const JsonValue *Metrics = Doc->field("metrics");
  ASSERT_NE(Metrics, nullptr);
  const JsonValue *Families = Metrics->field("families");
  ASSERT_NE(Families, nullptr);
  const JsonValue *Fam = Families->field("obs-test.fam.gauge");
  ASSERT_NE(Fam, nullptr);
  ASSERT_NE(Fam->field("labels"), nullptr);
  ASSERT_EQ(Fam->field("labels")->Items.size(), 1u);
  EXPECT_EQ(Fam->field("labels")->Items[0].Text, "tenant");
  const JsonValue *Series = Fam->field("series");
  ASSERT_NE(Series, nullptr);
  ASSERT_GE(Series->Items.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Rolling-window histograms
//===----------------------------------------------------------------------===//

TEST(Rolling, WindowMergesOnlyRecentSlices) {
  // Hand-built clock: 60 s window in 5 s slices.
  obs::RollingHistogram R(60, 5);
  auto At = [](uint64_t Sec) { return Sec * 1000000000ull; };
  R.observeAt(0.010, At(100));
  R.observeAt(0.020, At(130));
  R.observeAt(0.040, At(158));

  // All three inside the last minute at t=159.
  obs::RollingHistogram::Snapshot S = R.snapshot(60, At(159));
  EXPECT_EQ(S.Count, 3u);
  EXPECT_NEAR(S.Sum, 0.070, 1e-6);

  // A 30 s window sees only the two recent ones.
  S = R.snapshot(30, At(159));
  EXPECT_EQ(S.Count, 2u);

  // At t=170 the t=100 observation has aged out of the minute.
  S = R.snapshot(60, At(170));
  EXPECT_EQ(S.Count, 2u);

  // Far in the future everything expired.
  S = R.snapshot(60, At(1000));
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(obs::RollingHistogram::percentile(S, 0.99), 0.0);
}

TEST(Rolling, SliceSlotsAreEvictedOnReuse) {
  // 10 s window, 5 s slices: two ring slots. An observation 20 s later
  // reuses slot (epoch % 2) and must not inherit the stale counts.
  obs::RollingHistogram R(10, 5);
  auto At = [](uint64_t Sec) { return Sec * 1000000000ull; };
  R.observeAt(1.0, At(10));
  R.observeAt(2.0, At(30)); // same slot as t=10, different epoch
  obs::RollingHistogram::Snapshot S = R.snapshot(10, At(31));
  EXPECT_EQ(S.Count, 1u);
  EXPECT_NEAR(S.Sum, 2.0, 1e-6);
}

TEST(Rolling, PercentileInterpolatesWithinBucket) {
  obs::RollingHistogram R(60, 5);
  auto At = [](uint64_t Sec) { return Sec * 1000000000ull; };
  // 100 observations of 30 ms: all land in the (0.025, 0.05] bucket.
  for (int I = 0; I < 100; ++I)
    R.observeAt(0.030, At(50));
  obs::RollingHistogram::Snapshot S = R.snapshot(60, At(51));
  ASSERT_EQ(S.Count, 100u);
  double P50 = obs::RollingHistogram::percentile(S, 0.50);
  double P99 = obs::RollingHistogram::percentile(S, 0.99);
  // Interpolation spreads ranks across the bucket, so p50 < p99, and
  // both stay inside the bucket that holds every sample.
  EXPECT_GT(P50, 0.025);
  EXPECT_LE(P50, 0.05);
  EXPECT_GT(P99, P50);
  EXPECT_LE(P99, 0.05);

  // Overflow-bucket ranks floor at the last finite edge.
  obs::RollingHistogram R2(60, 5);
  R2.observeAt(500.0, At(50));
  obs::RollingHistogram::Snapshot S2 = R2.snapshot(60, At(51));
  EXPECT_EQ(obs::RollingHistogram::percentile(S2, 0.99),
            obs::RollingHistogram::Edges[obs::RollingHistogram::NumEdges -
                                         1]);
}

//===----------------------------------------------------------------------===//
// Structured log
//===----------------------------------------------------------------------===//

TEST(Log, NdjsonLinesAreWellFormed) {
  LogSession Session;
  std::string Path = scratchFile("ndjson.log");
  obs::Log::Options O;
  O.Ndjson = true;
  O.Path = Path;
  std::string Error;
  ASSERT_TRUE(obs::Log::global().configure(O, &Error)) << Error;

  obs::Log::global().info("test.event", {{"plain", "value"},
                                         {"tricky", "sp ace \"q\" \\b\nnl"}});
  obs::Log::global().warn("test.warn");

  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Error)) << Error;
  std::vector<std::string> Lines;
  for (std::string_view L : splitString(Text, '\n'))
    if (!L.empty())
      Lines.emplace_back(L);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &L : Lines) {
    std::optional<JsonValue> Doc = parseJson(L, &Error);
    ASSERT_TRUE(Doc.has_value()) << Error << ": " << L;
    ASSERT_EQ(Doc->K, JsonValue::Kind::Object);
    for (const char *F : {"ts", "mono_ns", "level", "event", "tid", "fields"})
      EXPECT_NE(Doc->field(F), nullptr) << F;
  }
  std::optional<JsonValue> First = parseJson(Lines[0], &Error);
  EXPECT_EQ(First->field("event")->Text, "test.event");
  EXPECT_EQ(First->field("level")->Text, "info");
  const JsonValue *Fields = First->field("fields");
  ASSERT_NE(Fields, nullptr);
  // Special characters round-trip through the JSON escaping.
  ASSERT_NE(Fields->field("tricky"), nullptr);
  EXPECT_EQ(Fields->field("tricky")->Text, "sp ace \"q\" \\b\nnl");
}

TEST(Log, LevelFiltersAndTextFormat) {
  LogSession Session;
  std::string Path = scratchFile("text.log");
  obs::Log::Options O;
  O.Level = obs::LogLevel::Warn;
  O.Path = Path;
  std::string Error;
  ASSERT_TRUE(obs::Log::global().configure(O, &Error)) << Error;
  EXPECT_FALSE(obs::Log::global().enabled(obs::LogLevel::Info));
  EXPECT_TRUE(obs::Log::global().enabled(obs::LogLevel::Error));

  obs::Log::global().debug("dropped.debug");
  obs::Log::global().info("dropped.info");
  obs::Log::global().warn("kept.warn", {{"k", "v"}, {"quoted", "a b"}});

  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Error)) << Error;
  EXPECT_EQ(Text.find("dropped."), std::string::npos);
  ASSERT_NE(Text.find("kept.warn"), std::string::npos);
  EXPECT_NE(Text.find(" WARN "), std::string::npos);
  EXPECT_NE(Text.find(" k=v"), std::string::npos);
  EXPECT_NE(Text.find(" quoted=\"a b\""), std::string::npos);
  EXPECT_NE(Text.find(" tid="), std::string::npos);
  EXPECT_NE(Text.find(" mono_ns="), std::string::npos);
}

TEST(Log, ParseLogLevelNames) {
  obs::LogLevel L;
  EXPECT_TRUE(obs::parseLogLevel("DEBUG", L));
  EXPECT_EQ(L, obs::LogLevel::Debug);
  EXPECT_TRUE(obs::parseLogLevel("warning", L));
  EXPECT_EQ(L, obs::LogLevel::Warn);
  EXPECT_TRUE(obs::parseLogLevel("none", L));
  EXPECT_EQ(L, obs::LogLevel::Off);
  EXPECT_FALSE(obs::parseLogLevel("loud", L));
}

//===----------------------------------------------------------------------===//
// Tracer ring-buffer mode
//===----------------------------------------------------------------------===//

TEST(Tracer, RingModeCapsSpansAndCountsDrops) {
  TracerSession Session;
  obs::Tracer::global().setRingCapacity(8);
  EXPECT_EQ(obs::Tracer::global().ringCapacity(), 8u);

  for (int I = 0; I < 20; ++I)
    obs::Span S(I % 2 ? "odd" : "even", obs::CatEngine);

  // The ring holds exactly its capacity; the excess is accounted, both
  // on the tracer and in the metrics registry.
  EXPECT_EQ(obs::Tracer::global().spans().size(), 8u);
  EXPECT_EQ(obs::Tracer::global().droppedSpans(), 12u);
  obs::MetricsSnapshot S = obs::Metrics::global().snapshot();
  EXPECT_GE(S.counter("tracer.dropped_spans"), 12u);

  // clear() resets the drop accounting with the spans.
  obs::Tracer::global().clear();
  EXPECT_EQ(obs::Tracer::global().droppedSpans(), 0u);
  EXPECT_TRUE(obs::Tracer::global().spans().empty());
}

TEST(Tracer, FlushChromeTraceDrainsRing) {
  TracerSession Session;
  obs::Tracer::global().setRingCapacity(16);
  { obs::Span A("first", obs::CatEngine); }

  std::string Path = scratchFile("flush.json");
  std::string Error;
  ASSERT_TRUE(obs::Tracer::global().flushChromeTrace(Path, &Error)) << Error;
  // The flush drained the ring; a second batch starts fresh.
  EXPECT_TRUE(obs::Tracer::global().spans().empty());
  { obs::Span B("second", obs::CatSolver); }
  EXPECT_EQ(obs::Tracer::global().spans().size(), 1u);

  std::string Text;
  ASSERT_TRUE(readFile(Path, Text, &Error)) << Error;
  std::optional<JsonValue> Doc = parseJson(Text, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const JsonValue *Events = Doc->field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->Items.size(), 1u);
  EXPECT_EQ(Events->Items[0].field("name")->Text, "first");
}

//===----------------------------------------------------------------------===//
// Prometheus exposition
//===----------------------------------------------------------------------===//

TEST(Prometheus, NameSanitizationAndLabelEscaping) {
  EXPECT_EQ(obs::prometheusName("server.query_seconds"),
            "server_query_seconds");
  EXPECT_EQ(obs::prometheusName("a-b:c"), "a_b:c");
  EXPECT_EQ(obs::prometheusEscapeLabel("plain"), "plain");
  EXPECT_EQ(obs::prometheusEscapeLabel("q\"uote"), "q\\\"uote");
  EXPECT_EQ(obs::prometheusEscapeLabel("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::prometheusEscapeLabel("new\nline"), "new\\nline");
}

TEST(Prometheus, ExpositionShape) {
  // Build a snapshot by hand so the test is independent of the global
  // registry's contents.
  obs::MetricsSnapshot S;
  S.Counters.emplace_back("promtest.requests", 42);
  S.Gauges.emplace_back("promtest.depth", 3);
  obs::HistogramSnapshot H;
  H.Count = 2;
  H.Sum = 0.3;
  H.Buckets[obs::Histogram::bucketFor(0.1)] = 1;
  H.Buckets[obs::Histogram::bucketFor(0.2)] = 1;
  S.Histograms.emplace_back("promtest.seconds", H);
  obs::CounterFamilySnapshot F;
  F.Name = "promtest.requests"; // same name as the unlabeled counter
  F.Keys = {"tenant"};
  F.Cells.emplace_back(std::vector<std::string>{"a\"cme"}, 7);
  S.CounterFamilies.push_back(F);

  std::string Text = obs::toPrometheusText(S);

  // One TYPE line per metric name, even when an unlabeled metric and a
  // family share it; samples are grouped under it.
  EXPECT_EQ(Text.find("# TYPE promtest_requests counter"),
            Text.rfind("# TYPE promtest_requests counter"));
  EXPECT_NE(Text.find("promtest_requests 42"), std::string::npos);
  EXPECT_NE(Text.find("promtest_requests{tenant=\"a\\\"cme\"} 7"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE promtest_depth gauge"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE promtest_seconds histogram"),
            std::string::npos);
  // Cumulative buckets end in the +Inf total, and sum/count follow.
  EXPECT_NE(Text.find("promtest_seconds_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(Text.find("promtest_seconds_count 2"), std::string::npos);
  EXPECT_NE(Text.find("promtest_seconds_sum"), std::string::npos);
  // Buckets are cumulative: the le="1" bucket includes the 0.1 sample.
  EXPECT_NE(Text.find("promtest_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(Text.find("promtest_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Byte-freeze with every telemetry feature on
//===----------------------------------------------------------------------===//

TEST(Report, DefaultBytesInvariantUnderFullTelemetry) {
  Campaign C = smallCampaign();
  std::string Plain = runWith(C, 1).toJson();

  std::string Loud;
  {
    TracerSession Tracing;
    LogSession Logging;
    obs::Tracer::global().setRingCapacity(64);
    obs::Log::Options O;
    O.Ndjson = true;
    O.Level = obs::LogLevel::Debug;
    O.Path = scratchFile("telemetry.log");
    std::string Error;
    ASSERT_TRUE(obs::Log::global().configure(O, &Error)) << Error;
    obs::Log::global().info("test.noise", {{"k", "v"}});
    obs::Metrics::global()
        .counterFamily("obs-test.fam.noise", {"tenant"})
        .at({"acme"})
        .inc();
    Loud = runWith(C, 1).toJson();
  }

  // Ring tracing, NDJSON logging, and populated labeled families are
  // all invisible in a default report.
  EXPECT_EQ(Plain, Loud);
  EXPECT_EQ(Plain.find("\"families\""), std::string::npos);
}
