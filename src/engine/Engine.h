//===- Engine.h - Parallel campaign execution engine -----------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Campaign on a fixed-size worker pool. Scheduling groups
/// (planGroups) are submitted to a TaskPool and run FIFO, each end to
/// end with private state: every job builds its own DataStore,
/// applications, and — inside predict()/checkSerializableSmt() — its
/// own Z3 SmtContext. A group is one job or a strict pair, whose
/// Approx-Strict job takes over the Exact-Strict job's answer as its
/// exact stage. Nothing crosses a group boundary, and a pair runs its
/// jobs sequentially. The only shared write is each worker storing results
/// into its jobs' pre-allocated slots, so reports are ordered by
/// campaign position and byte-identical regardless of worker count.
///
/// Each group is answered by the Executor (engine/Executor.h), the one
/// place the observe → predict → validate pipeline of Figure 4 and its
/// cache and session steps are spelled out — the server answers its
/// queries through the same class.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_ENGINE_H
#define ISOPREDICT_ENGINE_ENGINE_H

#include "engine/Campaign.h"
#include "engine/Report.h"

#include <atomic>
#include <functional>

namespace isopredict {
namespace engine {

struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). 1 runs
  /// everything inline on the calling thread (no threads spawned).
  unsigned NumWorkers = 1;
  /// Root directory of the persistent result cache (src/cache/
  /// ResultStore); empty = no caching. Workers consult the store
  /// before running a job — a hit skips the whole pipeline (no store
  /// build, no solver call) and is delivered with JobResult::CacheHit
  /// set — and persist every cacheable() result they compute. A strict
  /// pair consumes the cache all-or-nothing: a half-cached pair
  /// recomputes both members (both count as misses), so the
  /// Approx-Strict job always has its exact stage. The cache never
  /// changes report bytes (cache_hit fields are timing-gated), so warm
  /// re-runs reproduce cold reports exactly.
  std::string CacheDir;
  /// Called after each job completes, serialized under an internal
  /// mutex: (completed so far, total, result just finished).
  std::function<void(size_t, size_t, const JobResult &)> OnJobDone;
  /// Cooperative stop request (signal handling): when non-null and it
  /// becomes true mid-run, workers stop picking up new groups and every
  /// not-yet-started job is delivered as a skipped result (Ok = false,
  /// Canceled, Error "skipped: run interrupted") instead of running.
  /// Jobs already in flight finish on their own — pair the flag with
  /// SmtSolver::interruptAll() to bring stuck solves back as canceled.
  /// The partial report keeps campaign order and slot layout.
  const std::atomic<bool> *StopFlag = nullptr;
  /// Stream jobs: instead of extending one PredictSession per slice,
  /// re-observe every step from scratch (a fresh streaming session per
  /// prefix). An *execution* flag, not a spec field: extend and
  /// from-scratch runs of the same campaign share spec hashes, so
  /// `report_diff --outcomes-only` is exactly the streaming
  /// equivalence gate (sat models — witnesses — may differ across the
  /// modes, like every other execution-mode knob). Much slower — this
  /// is the baseline the incremental path is measured against, not a
  /// mode anyone should serve from.
  bool StreamFromScratch = false;
};

class Engine {
public:
  explicit Engine(EngineOptions Opts = {});

  /// Executes every job of \p C and returns the report (results in
  /// campaign order).
  Report run(const Campaign &C) const;

  /// Worker count after resolving NumWorkers == 0.
  unsigned numWorkers() const { return Workers; }

  /// Executes one job in isolation — the full pipeline for its kind.
  /// Deterministic: depends only on \p Spec (modulo solver timeouts).
  /// \p StreamFromScratch selects the Stream baseline execution
  /// (EngineOptions::StreamFromScratch); outcomes must not depend on it.
  static JobResult runJob(const JobSpec &Spec,
                          bool StreamFromScratch = false);

  /// The scheduling plan run() executes: job indices partitioned into
  /// groups, in first-appearance order (within-group order = campaign
  /// order). The Exact-Strict and Approx-Strict Predict jobs that
  /// differ only in strategy form a *strict pair* — the Approx-Strict
  /// query's exact stage is the Exact-Strict formula, so the Executor
  /// solves it once for both (see Executor::runGroup) — and every other
  /// job is a singleton. Exposed so the campaign_cli --dry-run cache
  /// preview agrees with the real execution exactly.
  static std::vector<std::vector<size_t>> planGroups(const Campaign &C);

private:
  EngineOptions Opts;
  unsigned Workers;
};

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_ENGINE_H
