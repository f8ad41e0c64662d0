//===- Engine.cpp - Parallel campaign execution engine ---------*- C++ -*-===//

#include "engine/Engine.h"

#include "engine/Executor.h"
#include "engine/TaskPool.h"
#include "obs/Metrics.h"
#include "support/Env.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Key of one strict pair: every outcome-determining field of an
/// Exact-Strict or Approx-Strict Predict job except the strategy, so
/// the two jobs of a pair solve the same Exact-Strict formula (the
/// Approx-Strict job's exact stage). std::nullopt for every other job.
std::optional<std::string> strictPairKey(const JobSpec &S) {
  if (S.Kind != JobKind::Predict ||
      (S.Strat != Strategy::ExactStrict && S.Strat != Strategy::ApproxStrict))
    return std::nullopt;
  JobSpec Key = S;
  Key.Strat = Strategy::ExactStrict;
  return canonicalSpec(Key);
}

} // namespace

JobResult Engine::runJob(const JobSpec &Spec, bool StreamFromScratch) {
  EngineOptions O;
  O.StreamFromScratch = StreamFromScratch;
  Executor::Query Q;
  Q.Spec = Q.CacheSpec = Spec;
  return Executor(O).answer(Q).R;
}

std::vector<std::vector<size_t>> Engine::planGroups(const Campaign &C) {
  // Strict pairs: each Exact-Strict job joins the first open
  // Approx-Strict job of its key, or vice versa. A duplicate of the
  // open member's strategy opens a group of its own.
  std::vector<std::vector<size_t>> Groups;
  std::map<std::string, size_t> Open;
  for (size_t I = 0; I < C.Jobs.size(); ++I) {
    std::optional<std::string> Key = strictPairKey(C.Jobs[I]);
    if (!Key) {
      Groups.push_back({I});
      continue;
    }
    auto It = Open.find(*Key);
    if (It != Open.end() &&
        C.Jobs[Groups[It->second].front()].Strat != C.Jobs[I].Strat) {
      Groups[It->second].push_back(I);
      Open.erase(It);
      continue;
    }
    Open[*Key] = Groups.size();
    Groups.push_back({I});
  }
  return Groups;
}

Engine::Engine(EngineOptions O) : Opts(std::move(O)) {
  Workers = Opts.NumWorkers;
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 1;
  }
}

Report Engine::run(const Campaign &C) const {
  // Metrics are process-global; bracketing the run with snapshots makes
  // the report's metrics block cover exactly this campaign (concurrent
  // Engine::run calls in one process would cross-attribute — the CLI
  // never does that).
  obs::MetricsSnapshot Before = obs::Metrics::global().snapshot();
  Timer Wall;
  std::vector<JobResult> Results(C.Jobs.size());

  Executor Exec(Opts);

  // The scheduling unit is a *group* of job indices (planGroups).
  std::vector<std::vector<size_t>> Groups = planGroups(C);

  std::atomic<size_t> Done{0};
  std::mutex ProgressMutex;

  static obs::Counter &JobsCompleted =
      obs::Metrics::global().counter("engine.jobs_completed");
  static obs::Counter &GroupsDispatched =
      obs::Metrics::global().counter("engine.groups_dispatched");
  static obs::Histogram &JobSeconds =
      obs::Metrics::global().histogram("engine.job_seconds");

  auto Finished = [&](size_t I) {
    JobsCompleted.inc();
    JobSeconds.observe(Results[I].WallSeconds);
    size_t F = Done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (Opts.OnJobDone) {
      std::lock_guard<std::mutex> Lock(ProgressMutex);
      Opts.OnJobDone(F, C.Jobs.size(), Results[I]);
    }
  };

  // One pool task per scheduling group. Grouping is deterministic,
  // group execution is sequential and every result lands in its
  // pre-allocated slot, so reports are byte-identical across worker
  // counts.
  auto RunGroup = [&](size_t G) {
    const std::vector<size_t> &Indices = Groups[G];
    // Cooperative stop: once the flag is up, not-yet-started groups
    // deliver skipped results instead of running (in-flight groups
    // finish; interruptAll brings their stuck checks back canceled).
    if (Opts.StopFlag && Opts.StopFlag->load(std::memory_order_acquire)) {
      for (size_t I : Indices) {
        JobResult R;
        R.Spec = C.Jobs[I];
        R.Canceled = true;
        R.Error = "skipped: run interrupted";
        Results[I] = std::move(R);
        Finished(I);
      }
      return;
    }
    GroupsDispatched.inc();
    Exec.runGroup(C, Indices, Results, Finished);
  };

  // Never spawn more threads than groups; one worker runs inline
  // (TaskPool with zero threads executes submits on this thread).
  unsigned NumThreads =
      static_cast<unsigned>(std::min<size_t>(Workers, Groups.size()));
  TaskPool Pool(NumThreads <= 1 ? 0 : NumThreads);
  for (size_t G = 0; G < Groups.size(); ++G)
    Pool.submit([&RunGroup, G] { RunGroup(G); });
  Pool.drain();

  Report R(C.Name, std::move(Results), Workers, Wall.seconds());
  if (Exec.caching())
    R.setCacheStats(Exec.cacheHits(), Exec.cacheMisses());
  R.setMetrics(obs::MetricsSnapshot::delta(
      Before, obs::Metrics::global().snapshot()));
  return R;
}
