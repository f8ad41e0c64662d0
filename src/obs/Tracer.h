//===- Tracer.h - RAII spans with a lock-sharded sink ----------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured tracing for the prediction pipeline. A Span is an RAII
/// timed region — name, category, optional key/value args, stable small
/// thread id, monotonic start and duration — recorded into a process-
/// global, lock-sharded in-memory sink when tracing is enabled
/// (campaign_cli --trace-out). Spans are instrumented through the hot
/// path: engine job dispatch/drain, cache probes, session base-prefix
/// encodes and per-query scopes, every encode pass, Z3_solver_check,
/// model extraction and validation replay.
///
/// Two properties keep the instrumentation free when idle and useful
/// when on:
///
///  - A Span always measures time (two steady_clock reads), because
///    EncoderPipeline derives PassStats::Seconds from Span::seconds()
///    whether or not tracing is enabled — `--timings` output does not
///    change shape when tracing turns on. Recording into the sink, and
///    arg() string formatting, happen only while enabled.
///
///  - Categories partition the pipeline for profile roll-ups: the leaf
///    categories "encode", "solver", "cache", "validate" and "extract"
///    never nest within each other, so summing their durations
///    approximates campaign wall-clock; the container categories
///    "engine" (jobs, groups, worker drains) and "session" (base
///    encodes, queries) overlap the leaves and exist for the timeline
///    view.
///
/// Export is Chrome trace-event JSON ("traceEvents" with complete "X"
/// events, microsecond timestamps normalized to enable() time,
/// deterministic field order) — loadable in Perfetto / chrome://tracing.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_OBS_TRACER_H
#define ISOPREDICT_OBS_TRACER_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace isopredict {
namespace obs {

/// Span categories (stable strings; the README documents them).
constexpr const char *CatServer = "server";
constexpr const char *CatEngine = "engine";
constexpr const char *CatSession = "session";
constexpr const char *CatEncode = "encode";
constexpr const char *CatSolver = "solver";
constexpr const char *CatCache = "cache";
constexpr const char *CatValidate = "validate";
constexpr const char *CatExtract = "extract";

class Tracer {
public:
  /// One finished span. Name/Cat/arg keys are string literals at every
  /// instrumentation site, so records store the pointers.
  struct SpanRecord {
    const char *Name = "";
    const char *Cat = "";
    uint64_t StartNs = 0; ///< Relative to the enable() epoch.
    uint64_t DurNs = 0;
    uint32_t Tid = 0;
    std::vector<std::pair<const char *, std::string>> Args;
  };

  static Tracer &global();

  /// Starts collecting: clears any previous spans and re-anchors the
  /// timestamp epoch, so exported traces start at ts 0.
  void enable();
  void disable();
  bool enabled() const;

  /// Drops collected spans without touching the enabled flag; also
  /// zeroes droppedSpans().
  void clear();

  /// Caps the in-memory sink. With a nonzero \p MaxSpans the sink is a
  /// ring buffer of the most recent spans: once full, each new span
  /// overwrites the oldest and bumps droppedSpans() plus the
  /// `tracer.dropped_spans` counter — safe to leave enabled for the
  /// life of a server. 0 (the default) is the unbounded batch sink
  /// used by `--trace-out`. Switching capacity drops collected spans;
  /// call before enable().
  void setRingCapacity(size_t MaxSpans);
  size_t ringCapacity() const;

  /// Spans overwritten in ring mode since the last enable()/clear().
  uint64_t droppedSpans() const;

  /// Writes the collected spans as Chrome trace JSON to \p Path and, on
  /// success, drops them from the sink (the timestamp epoch is kept, so
  /// a rotation of flushed files shares one timeline). Spans recorded
  /// concurrently with the flush land in the next file or are dropped.
  /// False + \p Error on I/O failure (spans are kept).
  bool flushChromeTrace(const std::string &Path, std::string *Error);

  /// All spans recorded since enable(), sorted by (start, longest-first,
  /// tid) so parents precede children and the order is stable across
  /// shard draining.
  std::vector<SpanRecord> spans() const;

  /// Sum of span durations per category, name-sorted (seconds).
  std::vector<std::pair<std::string, double>> categorySeconds() const;

  /// Chrome trace-event JSON for the collected spans.
  std::string toChromeTraceJson() const;

  /// Writes toChromeTraceJson() to \p Path. False + \p Error on I/O
  /// failure.
  bool writeChromeTrace(const std::string &Path, std::string *Error) const;

  /// Stable small id for the calling thread (assigned on first use, in
  /// first-use order — worker 0 is usually the main thread).
  static uint32_t threadId();

  /// Monotonic clock, nanoseconds (same clock as support/Env.h Timer).
  static uint64_t nowNs();

  void record(SpanRecord R);
  uint64_t epochNs() const;

private:
  struct Impl;
  Tracer();
  Impl &I;
};

/// An RAII timed region. Construction stamps the start; finish() (or the
/// destructor) stamps the duration and, when the tracer was enabled at
/// construction, records the span. seconds() is always available —
/// callers use Spans as plain timers for stats roll-ups.
class Span {
public:
  Span(const char *Name, const char *Cat)
      : Name(Name), Cat(Cat), StartNs(Tracer::nowNs()),
        Active(Tracer::global().enabled()) {}
  ~Span() { finish(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a key/value annotation ("app": "tpcc", "result": "sat").
  /// No-op (no formatting, no allocation) when the tracer is disabled.
  void arg(const char *Key, std::string Value) {
    if (Active)
      Args.emplace_back(Key, std::move(Value));
  }

  /// Stops the clock and records the span; idempotent.
  void finish();

  /// Elapsed seconds — running value before finish(), final after.
  double seconds() const {
    return static_cast<double>(Done ? DurNs : Tracer::nowNs() - StartNs) *
           1e-9;
  }

private:
  const char *Name;
  const char *Cat;
  uint64_t StartNs;
  uint64_t DurNs = 0;
  bool Active;
  bool Done = false;
  std::vector<std::pair<const char *, std::string>> Args;
};

} // namespace obs
} // namespace isopredict

#endif // ISOPREDICT_OBS_TRACER_H
