//===- Campaign.h - Prediction-campaign descriptions -----------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *campaign* describes a grid of independent pipeline jobs — the unit
/// of work behind every table of the paper's evaluation (§7): hundreds of
/// observe → predict → validate queries over (application × isolation
/// level × strategy × seed) configurations, plus the MonkeyDB-style
/// random-exploration and locked-execution baselines they are compared
/// against. Campaigns are plain data; the engine (Engine.h) executes
/// them and the report module (Report.h) aggregates the outcomes.
///
/// Jobs are share-nothing by construction: each one names everything it
/// needs (application, workload config, store seed, solver options), and
/// executing it builds a private DataStore and SmtContext. That is what
/// lets the engine fan a campaign out across worker threads without any
/// cross-job synchronization.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_CAMPAIGN_H
#define ISOPREDICT_ENGINE_CAMPAIGN_H

#include "apps/AppFramework.h"
#include "predict/Predict.h"

#include <string>
#include <vector>

namespace isopredict {
namespace engine {

/// What one job does. All kinds start by running an application workload
/// against a store; they differ in the store mode and what happens next.
enum class JobKind : uint8_t {
  /// Serializable observed execution only; report workload shape
  /// (Table 3's reads / writes / committed columns).
  Observe,
  /// Observed execution, then predictive analysis, then (optionally)
  /// validation replay of a Sat prediction — the full Figure 4 pipeline
  /// (Tables 4-7's IsoPredict columns).
  Predict,
  /// MonkeyDB-style random weak exploration, then (optionally) the ∃co
  /// serializability check of the resulting history (the MonkeyDB
  /// Fail / Unser columns of Tables 6 and 7).
  RandomWeak,
  /// Locked read-committed execution, the MySQL substitute (Table 7's
  /// regular-execution column).
  LockingRc,
  /// Streaming prediction: observe the full workload, then feed it to a
  /// windowed PredictSession (Options::Streaming) in StreamChunk-sized
  /// transaction slices — base prefix first, one extend() per further
  /// slice — querying after every step. Per-step outcomes land in
  /// JobResult::Steps; the job's Outcome is the final step's. Replay
  /// validation is skipped: a windowed witness speaks for the window,
  /// not a full-trace prefix.
  Stream,
};

const char *toString(JobKind K);

/// Inverse of toString: parses "observe" / "predict" / "random-weak" /
/// "locking-rc" / "stream" (ASCII case-insensitively). std::nullopt
/// otherwise.
std::optional<JobKind> jobKindFromString(std::string_view Name);

/// One fully-specified pipeline job.
struct JobSpec {
  JobKind Kind = JobKind::Predict;
  /// Application name (resolved with makeApplication at run time).
  std::string App;
  /// Workload shape and seed for the application scripts.
  WorkloadConfig Cfg;
  /// Isolation level for prediction (Predict) or weak exploration
  /// (RandomWeak). Ignored by Observe and LockingRc.
  IsolationLevel Level = IsolationLevel::Causal;
  /// Prediction strategy (Predict only).
  Strategy Strat = Strategy::ApproxRelaxed;
  /// pco realization for the approximate strategies (Predict only).
  PcoEncoding Pco = PcoEncoding::Rank;
  /// Store RNG seed for RandomWeak / LockingRc schedules (the workload
  /// seed lives in Cfg.Seed).
  uint64_t StoreSeed = 1;
  /// Per-solver-query timeout in milliseconds; 0 = none.
  unsigned TimeoutMs = 0;
  /// Predict: replay-validate a Sat prediction (§5).
  bool Validate = true;
  /// RandomWeak: run the ∃co serializability check on the history.
  bool CheckSerializability = true;
  /// Predict: relevance plan (true, the default) or identity plan
  /// (PredictOptions::PruneFormula). Sat/unsat outcomes match, but
  /// models, witnesses, validation replays, and literal counts may
  /// differ — all of which land in default report bytes — so the flag
  /// is part of the canonical spec: runs under the two plans never
  /// answer each other's cache lookups or match in report_diff.
  bool Prune = true;
  /// Stream: sliding-window width in transactions per session
  /// (PredictSession::Options::Window); 0 = unbounded (every query
  /// covers the whole trace). Part of the canonical spec for Stream
  /// jobs only — the serialization is suffixed conditionally, so every
  /// pre-existing kind's spec_hash is unchanged.
  unsigned Window = 0;
  /// Stream: transactions fed per step (base prefix and each extend);
  /// 0 behaves as 1. Canonical-spec rules as Window.
  unsigned StreamChunk = 0;
};

/// Canonical one-line serialization of every outcome-determining JobSpec
/// field ("kind=predict;app=smallbank;..."): the hash input of
/// specHash, exposed for tests and debugging.
std::string canonicalSpec(const JobSpec &S);

/// Stable 64-bit identity of a job: FNV-1a over canonicalSpec(S). Jobs
/// are pure functions of their spec (modulo solver timeouts), so this
/// hash keys result caches, shard manifests, and cross-report job
/// matching (report_diff) independent of campaign ordering.
uint64_t specHash(const JobSpec &S);

/// A named list of jobs. Job order is the report order; the engine may
/// execute jobs in any order but results are always delivered in this
/// one.
struct Campaign {
  std::string Name;
  std::vector<JobSpec> Jobs;

  size_t size() const { return Jobs.size(); }
  bool empty() const { return Jobs.empty(); }

  /// Cross-product helper for Table-4/5-style sweeps: one Predict job
  /// per (app × level × strategy × large? × seed in [1, NumSeeds]).
  static Campaign predictGrid(std::string Name,
                              const std::vector<std::string> &Apps,
                              const std::vector<IsolationLevel> &Levels,
                              const std::vector<Strategy> &Strategies,
                              const std::vector<bool> &Larges,
                              unsigned NumSeeds, unsigned TimeoutMs);

  /// predictGrid over explicit workload shapes instead of small/large
  /// (each shape's Seed is replaced by the job's): the same jobs, in the
  /// same order, for the shapes small and large stand for.
  static Campaign predictShapeGrid(std::string Name,
                                   const std::vector<std::string> &Apps,
                                   const std::vector<IsolationLevel> &Levels,
                                   const std::vector<Strategy> &Strategies,
                                   const std::vector<WorkloadConfig> &Shapes,
                                   unsigned NumSeeds, unsigned TimeoutMs);
};

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_CAMPAIGN_H
