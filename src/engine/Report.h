//===- Report.h - Campaign result aggregation and JSON output --*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured results of a campaign run. A Report holds one JobResult
/// per job, in campaign order (never in completion order — the engine
/// writes each result into the job's own slot, so a report is
/// byte-for-byte independent of how many workers produced it). It
/// serializes to JSON for machine consumption (`BENCH_*.json` next to
/// the text tables; dashboards and regression diffing downstream) and
/// prints a compact summary table for humans.
///
/// Determinism contract: with ReportOptions.IncludeTimings = false (the
/// default), toJson() depends only on job outcomes, which are pure
/// functions of their JobSpec (modulo solver timeouts). Wall-clock and
/// solver times are run-dependent, so they are opt-in.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_REPORT_H
#define ISOPREDICT_ENGINE_REPORT_H

#include "engine/Campaign.h"
#include "obs/Metrics.h"
#include "validate/Validate.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace isopredict {
namespace engine {

/// Version stamp of the tool's outcome-affecting behavior: the
/// encoding pipeline, solver configuration, applications, and job
/// semantics. Emitted as "tool_version" in every report and used as
/// the result cache's top-level directory, so bumping it atomically
/// invalidates every cached result. Bump whenever a change can alter
/// any job's outcome for an unchanged JobSpec.
const char *toolVersion();

/// One step of a Stream job: the query answered after the step's
/// transaction slice was fed to the session. Outcome fields are
/// deterministic and land in default report bytes (the kind is new, so
/// no byte-stability contract predates them); seconds are timings-gated
/// like every other timing.
struct StreamStep {
  /// Transactions observed so far (full history, t0 excluded).
  unsigned Txns = 0;
  /// Transactions inside the encoded window after this step (t0
  /// included) — the quantity the sliding window bounds.
  unsigned WindowTxns = 0;
  /// This step's query answer.
  SmtResult Outcome = SmtResult::Unknown;
  bool TimedOut = false;
  /// This step evicted transactions and rebuilt the encoding epoch.
  bool EpochRebuild = false;
  /// Literals added this step: the extend's base-prefix growth plus the
  /// query's window-scoped passes.
  uint64_t Literals = 0;
  double ExtendSeconds = 0; ///< Timings-gated.
  double SolveSeconds = 0;  ///< Timings-gated.
};

/// Everything one job produced. Fields beyond the workload counters are
/// meaningful only for the job kinds noted.
struct JobResult {
  /// The job this result belongs to (echoed for self-contained reports).
  JobSpec Spec;
  /// False when the job could not run at all (unknown application);
  /// Error then holds a diagnostic.
  bool Ok = false;
  std::string Error;

  //===-- Workload shape (all kinds; Table 3 columns) --------------------===
  unsigned CommittedTxns = 0;
  unsigned Reads = 0;
  unsigned Writes = 0;
  unsigned ReadOnlyTxns = 0;
  unsigned AbortedTxns = 0;
  unsigned DeadlockAborts = 0; ///< LockingRc only.

  //===-- Predict ---------------------------------------------------------===
  SmtResult Outcome = SmtResult::Unknown;
  EncodingStats Stats;
  /// Validation outcome of a Sat prediction (NoPrediction when the job
  /// did not validate).
  ValidationResult::Status ValStatus = ValidationResult::Status::NoPrediction;
  bool Diverged = false;
  /// pco cycle witnessing unserializability of a Sat prediction, as
  /// transaction ids (empty for ExactStrict). For Stream jobs the ids
  /// are full-history ids (PredictSession remaps from the window).
  std::vector<TxnId> Witness;

  //===-- Stream ----------------------------------------------------------===
  /// Per-step query answers of a Stream job, in feed order; the job's
  /// Outcome/Witness are the final step's.
  std::vector<StreamStep> Steps;

  //===-- RandomWeak / LockingRc ------------------------------------------===
  /// An in-application assertion failed in a committed transaction (for
  /// Predict jobs: in the validating execution).
  bool AssertionFailed = false;
  /// Messages of the failed assertions.
  std::vector<std::string> FailedAssertions;
  /// ∃co serializability verdict on the history (RandomWeak with
  /// CheckSerializability; Unknown otherwise).
  SerResult Serializability = SerResult::Unknown;

  /// An Unknown Outcome was caused by the solver hitting the job's
  /// timeout budget rather than genuine incompleteness. Emitted as
  /// "timeout": true (only when set) so report consumers can separate
  /// the two; an unchanged campaign without timeouts emits unchanged
  /// bytes.
  bool TimedOut = false;

  /// The job was cut short deliberately rather than by a timeout or
  /// incompleteness: its solve was interrupted (SmtSolver::interruptAll
  /// on SIGINT or a server drain; Outcome is then Unknown), or a
  /// stopped run skipped it (Ok false). Round-tripped like "timeout"
  /// so reports and the server keep the distinction (cache::cacheable
  /// refuses canceled results).
  bool Canceled = false;

  /// Per-query Z3 search statistics (Predict jobs that reached the
  /// solver). Run-dependent magnitudes: emitted only under
  /// ReportOptions::IncludeTimings.
  SolverStatistics SolverStats;

  /// Wall-clock of the whole job (run-dependent; excluded from
  /// deterministic JSON).
  double WallSeconds = 0;

  /// This run answered the job from the result cache (src/cache/)
  /// instead of computing it. Run-dependent by nature — the identical
  /// campaign is all misses cold and all hits warm — so it is emitted
  /// only under ReportOptions::IncludeTimings, keeping default reports
  /// byte-identical across cold and warm runs.
  bool CacheHit = false;

  /// An Approx-Strict job that took its strict pair's Exact-Strict
  /// answer as its exact stage (Executor::runStrictPair): its gen and
  /// solve seconds leave out that stage. Timings-gated like them.
  bool ExactStageReused = false;

  bool validatedUnserializable() const {
    return ValStatus == ValidationResult::Status::ValidatedUnserializable;
  }
};

/// Per-configuration aggregate: one entry of a report's "summary" array
/// and one row of its summary tables (printSummary, report_profile).
struct Group {
  unsigned Jobs = 0;
  unsigned Failed = 0; ///< Jobs with Ok == false.
  unsigned Sat = 0, Unsat = 0, Unknown = 0;
  unsigned Validated = 0, Diverged = 0;
  unsigned AssertionFailed = 0, Unserializable = 0;
  unsigned CommittedTxns = 0, Reads = 0, Writes = 0, ReadOnlyTxns = 0,
           AbortedTxns = 0, DeadlockAborts = 0;
  uint64_t Literals = 0;
  double GenSeconds = 0, SolveSeconds = 0, WallSeconds = 0;
  /// Not in the JSON summary (default report bytes predate them): the
  /// solve seconds split by answer, and Sat predictions whose validating
  /// execution came out serializable (the paper's false predictions).
  double SatSolveSeconds = 0, UnsatSolveSeconds = 0;
  unsigned FalsePredictions = 0;
};

/// The configuration a job belongs to: everything that identifies it
/// except the seeds (workload seed and store seed vary within a group).
std::string groupKey(const JobSpec &S);

/// Groups \p Results by groupKey, in order of first appearance.
std::vector<std::pair<std::string, Group>>
groupResults(const std::vector<JobResult> &Results);

struct ReportOptions {
  /// Emit wall-clock / generation / solving seconds. Off by default so
  /// reports of the same campaign are byte-identical across runs and
  /// worker counts.
  bool IncludeTimings = false;
  /// Pretty-print with two-space indentation (always on; knob reserved).
  unsigned Indent = 2;
};

/// Results of one campaign run, in campaign job order.
class Report {
public:
  Report() = default;
  Report(std::string CampaignName, std::vector<JobResult> Results,
         unsigned NumWorkers, double WallSeconds)
      : CampaignName(std::move(CampaignName)), Results(std::move(Results)),
        NumWorkers(NumWorkers), WallSeconds(WallSeconds) {}

  const std::string &campaignName() const { return CampaignName; }
  const std::vector<JobResult> &results() const { return Results; }
  size_t size() const { return Results.size(); }
  /// Worker count and total wall-clock of the producing run.
  unsigned numWorkers() const { return NumWorkers; }
  double wallSeconds() const { return WallSeconds; }

  /// Marks this report as covering shard \p Index of \p Count
  /// (1-based). A sharded report records "shard_index"/"shard_count"
  /// in its JSON so report_merge can reassemble the campaign; with
  /// Count == 1 nothing is emitted and the report is byte-identical to
  /// an unsharded run's.
  void setShard(unsigned Index, unsigned Count) {
    ShardIndex = Index;
    ShardCount = Count;
  }
  unsigned shardIndex() const { return ShardIndex; }
  unsigned shardCount() const { return ShardCount; }

  /// Result-cache traffic of the producing run (zero/zero when the
  /// cache was off). Run-dependent: emitted in JSON only under
  /// IncludeTimings; printSummary always shows it when the cache was
  /// consulted.
  void setCacheStats(unsigned Hits, unsigned Misses) {
    CacheHits = Hits;
    CacheMisses = Misses;
  }
  unsigned cacheHits() const { return CacheHits; }
  unsigned cacheMisses() const { return CacheMisses; }

  /// Metrics delta of the producing run (obs::Metrics snapshot-after
  /// minus snapshot-before, set by Engine::run). Counter totals are
  /// deterministic for a campaign; second sums are not, so the JSON
  /// "metrics" block is emitted only under IncludeTimings, while
  /// printSummary derives its always-on phase-breakdown line from the
  /// histogram sums.
  void setMetrics(obs::MetricsSnapshot S) { Metrics = std::move(S); }
  const obs::MetricsSnapshot &metrics() const { return Metrics; }

  /// Serializes the full report (jobs + per-configuration summary) as a
  /// JSON document. Deterministic and stably ordered: jobs in campaign
  /// order, summary groups in order of first appearance, object keys
  /// fixed.
  std::string toJson(const ReportOptions &Opts = {}) const;

  /// Writes toJson() to \p Path. Returns false (and sets \p Error when
  /// non-null) on I/O failure.
  bool writeJsonFile(const std::string &Path, const ReportOptions &Opts = {},
                     std::string *Error = nullptr) const;

  /// The run's metrics delta as a standalone JSON document (schema
  /// "isopredict-metrics/1": campaign name, tool version, the same
  /// "metrics" block toJson emits under IncludeTimings). Lets
  /// `campaign_cli --metrics-out` export telemetry without turning on
  /// --timings — the default report bytes stay untouched.
  std::string metricsToJson() const;

  /// Writes metricsToJson() to \p Path. False + \p Error on I/O
  /// failure.
  bool writeMetricsFile(const std::string &Path,
                        std::string *Error = nullptr) const;

  /// Prints a per-configuration summary table (TablePrinter layout).
  void printSummary(FILE *Out = stdout) const;

private:
  std::string CampaignName;
  std::vector<JobResult> Results;
  unsigned NumWorkers = 0;
  double WallSeconds = 0;
  unsigned ShardIndex = 1, ShardCount = 1;
  unsigned CacheHits = 0, CacheMisses = 0;
  obs::MetricsSnapshot Metrics;
};

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_REPORT_H
