//===- Metrics.h - Process-wide metrics registry ---------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, lock-free-on-the-hot-path metrics registry: named counters,
/// gauges, and fixed-bucket latency histograms, instrumented through the
/// campaign pipeline (engine, encode passes, solver checks, cache
/// probes, validation replays). The registry is process-global —
/// instruments are registered once (a mutex-protected name table) and
/// then updated with plain relaxed atomics, so a disabled-looking hot
/// path costs one atomic add.
///
/// Metric names are part of the tool's stable surface (they appear in
/// `--timings` campaign reports and the README documents them); add
/// names, never repurpose them:
///
///   engine.jobs_completed      counter   jobs finished (any kind)
///   engine.groups_dispatched   counter   scheduling groups pulled
///   engine.job_seconds         histogram per-job wall-clock
///   cache.hits / cache.misses  counter   result-cache probe outcomes
///   cache.corrupt              counter   present-but-unusable entries
///   cache.probe_seconds        histogram per-probe wall-clock
///   encode.passes              counter   encoding passes run
///   encode.literals            counter   literals asserted by passes
///   encode.pass_seconds        histogram per-pass wall-clock
///   solver.checks              counter   SmtSolver::check calls
///   solver.sat/unsat/unknown   counter   check outcomes
///   solver.fallbacks           counter   scoped checks re-solved one-shot
///   solver.timeouts            counter   unknowns attributed to timeout
///   solver.check_seconds       histogram per-check wall-clock
///   session.base_encodes       counter   shared prefixes encoded
///   session.queries            counter   session queries answered
///   session.base_reuses        counter   queries that reused a prefix
///   validate.replays           counter   validation replays run
///   validate.seconds           histogram per-replay wall-clock
///   extract.seconds            histogram model extractions
///   tracer.dropped_spans       counter   spans overwritten in ring mode
///
/// Serving adds *labeled families* (one name, fixed label keys, one
/// cell per label-value tuple) on top of the frozen unlabeled names:
///
///   server.requests{tenant,verb,outcome}   counter   protocol requests
///   server.queries{tenant,outcome}         counter   async query results
///   server.slow_queries{tenant}            counter   over-threshold queries
///   server.query_seconds{tenant}           histogram per-tenant query wall
///   server.tenant_running{tenant}          gauge     in-flight queries
///   server.tenant_queued{tenant}           gauge     queued queries
///   server.tenant_completed{tenant}        gauge     lifetime completions
///   server.tenant_rejected{tenant}         gauge     lifetime rejections
///   server.tenant_cache_hits{tenant}       gauge     cache answers
///   server.tenant_session_hits{tenant}     gauge     warm-session answers
///   server.tenant_histories{tenant}        gauge     stored histories
///
/// Unlabeled names are frozen: adding a label dimension means adding a
/// *new* family, never relabeling an existing unlabeled metric.
///
/// Determinism: counter totals of one campaign are pure functions of
/// the campaign and engine flags (identical across worker counts —
/// tests/obs_test.cpp pins this); histogram *counts* are too, but
/// second sums and bucket placement are run-dependent. The whole
/// snapshot is therefore emitted only into `--timings` reports
/// (Report::toJson "metrics" block), keeping default report bytes
/// byte-identical with or without instrumentation.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_OBS_METRICS_H
#define ISOPREDICT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace isopredict {

class JsonWriter;

namespace obs {

/// Monotonically increasing event count.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
public:
  void set(int64_t N) { V.store(N, std::memory_order_relaxed); }
  void add(int64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Fixed-bucket latency histogram over seconds. Bucket edges are
/// compile-time constants shared by every histogram so snapshots are
/// comparable across metrics and across runs; the sum accumulates in
/// integer nanoseconds (atomic adds — no CAS loop, no double rounding
/// races).
class Histogram {
public:
  /// Upper bucket edges in seconds; bucket i counts values <= Edges[i],
  /// plus one overflow bucket for everything larger.
  static constexpr double Edges[] = {0.0001, 0.001, 0.01, 0.1,
                                     1.0,    10.0,  60.0};
  static constexpr size_t NumEdges = sizeof(Edges) / sizeof(Edges[0]);
  static constexpr size_t NumBuckets = NumEdges + 1; // + overflow

  /// Index of the bucket \p Seconds falls into.
  static size_t bucketFor(double Seconds) {
    for (size_t I = 0; I < NumEdges; ++I)
      if (Seconds <= Edges[I])
        return I;
    return NumEdges;
  }

  void observe(double Seconds);

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const {
    return static_cast<double>(SumNs.load(std::memory_order_relaxed)) * 1e-9;
  }
  uint64_t bucket(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  void reset();

private:
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> SumNs{0};
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
};

/// Point-in-time copy of one histogram.
struct HistogramSnapshot {
  uint64_t Count = 0;
  double Sum = 0;
  uint64_t Buckets[Histogram::NumBuckets] = {};
};

//===----------------------------------------------------------------------===//
// Labeled families
//===----------------------------------------------------------------------===//
//
// A family is one metric name with a fixed set of label keys; each
// distinct label-value tuple owns its own instrument cell (same
// stable-address contract as the unlabeled registry, so serving code
// can cache `Counter &` per tenant/verb). Families are a serving-side
// addition: the batch pipeline registers none, and snapshot emission
// skips empty family lists, which keeps PR 6's `--timings` metrics
// block and default campaign report bytes byte-identical.

/// One metric name fanned out over label-value tuples. \p Inst is
/// Counter, Gauge, or Histogram.
template <typename Inst> class Family {
public:
  Family(std::string Name, std::vector<std::string> Keys)
      : FamilyName(std::move(Name)), LabelKeys(std::move(Keys)) {}

  /// The cell for \p Values (aligned with labelKeys(); missing values
  /// read as ""), creating it on first use. The reference is stable for
  /// the process lifetime.
  Inst &at(std::vector<std::string> Values);

  const std::string &name() const { return FamilyName; }
  const std::vector<std::string> &labelKeys() const { return LabelKeys; }

  /// Point-in-time copy of every cell, value-tuple-sorted.
  template <typename Snap, typename Copy>
  std::vector<std::pair<std::vector<std::string>, Snap>>
  snapshotCells(Copy CopyFn) const;

  /// Zeroes every cell (tests only).
  void reset();

private:
  std::string FamilyName;
  std::vector<std::string> LabelKeys;
  mutable std::mutex CellMu;
  // std::map keeps tuples sorted for deterministic emission; unique_ptr
  // keeps cell addresses stable.
  std::map<std::vector<std::string>, std::unique_ptr<Inst>> Cells;
};

using CounterFamily = Family<Counter>;
using GaugeFamily = Family<Gauge>;
using HistogramFamily = Family<Histogram>;

/// Point-in-time copy of one family: the label keys plus one entry per
/// cell (label-value tuple, instrument snapshot), tuple-sorted.
template <typename Snap> struct FamilySnapshot {
  std::string Name;
  std::vector<std::string> Keys;
  std::vector<std::pair<std::vector<std::string>, Snap>> Cells;
};

using CounterFamilySnapshot = FamilySnapshot<uint64_t>;
using GaugeFamilySnapshot = FamilySnapshot<int64_t>;
using HistogramFamilySnapshot = FamilySnapshot<HistogramSnapshot>;

/// Point-in-time copy of the whole registry, name-sorted so emission is
/// deterministic. Engine::run records the *delta* across one campaign
/// (snapshot-before vs snapshot-after), so a report's metrics cover
/// exactly that run even though the registry is process-global.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, int64_t>> Gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> Histograms;
  // Labeled families, name-sorted (empty for batch campaigns).
  std::vector<CounterFamilySnapshot> CounterFamilies;
  std::vector<GaugeFamilySnapshot> GaugeFamilies;
  std::vector<HistogramFamilySnapshot> HistogramFamilies;

  bool empty() const {
    return Counters.empty() && Gauges.empty() && Histograms.empty() &&
           CounterFamilies.empty() && GaugeFamilies.empty() &&
           HistogramFamilies.empty();
  }

  /// Counter value by name (0 when absent).
  uint64_t counter(const std::string &Name) const;

  /// Histogram second-sum / count by name (0 when absent).
  double histogramSum(const std::string &Name) const;
  uint64_t histogramCount(const std::string &Name) const;

  /// Labeled counter cell by family name + exact value tuple (0 when
  /// absent).
  uint64_t familyCounter(const std::string &Name,
                         const std::vector<std::string> &Values) const;
  /// Labeled gauge cell by family name + exact value tuple (0 when
  /// absent).
  int64_t familyGauge(const std::string &Name,
                      const std::vector<std::string> &Values) const;

  /// What happened between \p Before and \p After: counters and
  /// histogram counts/sums/buckets subtract (cell-wise for labeled
  /// families); gauges take the After value. Names union (a metric or
  /// cell registered mid-run counts from 0).
  static MetricsSnapshot delta(const MetricsSnapshot &Before,
                               const MetricsSnapshot &After);
};

/// The registry. Instrument handles are stable for the process lifetime,
/// so call sites cache them in static locals:
///
/// \code
///   static Counter &Hits = Metrics::global().counter("cache.hits");
///   Hits.inc();
/// \endcode
class Metrics {
public:
  static Metrics &global();

  /// Returns the instrument registered under \p Name, creating it on
  /// first use. A name must keep one instrument kind for the process
  /// lifetime.
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Returns the labeled family registered under \p Name, creating it
  /// with \p Keys on first use. A family's key list is fixed at first
  /// registration (later calls may pass an empty key list as shorthand
  /// for "whatever it was registered with"); family names live in the
  /// same stable-name space as the unlabeled instruments.
  CounterFamily &counterFamily(const std::string &Name,
                               const std::vector<std::string> &Keys);
  GaugeFamily &gaugeFamily(const std::string &Name,
                           const std::vector<std::string> &Keys);
  HistogramFamily &histogramFamily(const std::string &Name,
                                   const std::vector<std::string> &Keys);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered instrument (registration survives — cached
  /// references stay valid). Tests only; concurrent updaters see a torn
  /// but monotone-from-zero state.
  void reset();

private:
  struct Impl;
  Metrics();
  Impl &I;
};

/// Emits \p S as the currently-open JSON object's "metrics" member:
/// name-sorted "counters" / "gauges" / "histograms" sub-objects (each
/// omitted when empty; histogram objects carry count, sum and the
/// fixed-edge bucket array). Labeled families follow in a "families"
/// sub-object — also omitted when empty, so snapshots without families
/// (every batch campaign) emit exactly the PR 6 bytes.
void writeMetricsJson(JsonWriter &J, const MetricsSnapshot &S);

} // namespace obs
} // namespace isopredict

#endif // ISOPREDICT_OBS_METRICS_H
