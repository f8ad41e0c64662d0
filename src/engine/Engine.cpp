//===- Engine.cpp - Parallel campaign execution engine ---------*- C++ -*-===//

#include "engine/Engine.h"

#include "cache/LaneStats.h"
#include "engine/TaskPool.h"
#include "cache/ResultStore.h"
#include "checker/Checkers.h"
#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "portfolio/Portfolio.h"
#include "predict/PredictSession.h"
#include "support/Env.h"
#include "support/StrUtil.h"
#include "validate/Validate.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Fills the Table-3-style workload counters from a finished run.
void fillWorkloadStats(JobResult &R, const RunResult &Run) {
  const History &H = Run.Hist;
  R.CommittedTxns = static_cast<unsigned>(H.numTxns() - 1);
  R.AbortedTxns = Run.AbortedTxns;
  R.DeadlockAborts = Run.DeadlockAborts;
  for (TxnId Id = 1; Id < H.numTxns(); ++Id) {
    bool Wrote = false;
    for (const Event &E : H.txn(Id).Events) {
      if (E.Kind == EventKind::Read)
        ++R.Reads;
      else {
        ++R.Writes;
        Wrote = true;
      }
    }
    R.ReadOnlyTxns += !Wrote;
  }
  R.AssertionFailed = Run.assertionFailed();
  R.FailedAssertions = Run.FailedAssertions;
}

/// Runs \p App once against a fresh store in the given mode.
RunResult runWorkload(Application &App, const WorkloadConfig &Cfg,
                      StoreMode Mode, IsolationLevel Level,
                      uint64_t StoreSeed) {
  DataStore::Options O;
  O.Mode = Mode;
  O.Level = Level;
  O.Seed = StoreSeed;
  DataStore Store(O);
  return WorkloadRunner::run(App, Store, Cfg);
}

/// Fills the validation fields of \p R from replaying \p P (§5) — the
/// common tail of the share-nothing and shared Predict paths.
void validateInto(JobResult &R, const JobSpec &Spec, const History &Observed,
                  const Prediction &P) {
  auto Replay = makeApplication(Spec.App);
  ValidationResult V = validatePrediction(*Replay, Spec.Cfg, Observed, P,
                                          Spec.Level, Spec.TimeoutMs);
  R.ValStatus = V.St;
  R.Diverged = V.Diverged;
  // Assertions tripped by the *validating* execution (the observed
  // run is serializable and cannot trip any).
  R.AssertionFailed = V.Run.assertionFailed();
  R.FailedAssertions = V.Run.FailedAssertions;
}

/// Key of one encoding-share group: the fields that determine the
/// observed execution a Predict job encodes against — plus the prune
/// flag, because the relevance plan shapes the session's shared
/// declare+feasibility prefix (pruned and unpruned jobs must not share
/// a PredictSession).
std::string shareKey(const JobSpec &S) {
  return formatString("%s|%u|%u|%llu|%llu|%u", S.App.c_str(),
                      S.Cfg.Sessions, S.Cfg.TxnsPerSession,
                      static_cast<unsigned long long>(S.Cfg.Seed),
                      static_cast<unsigned long long>(S.StoreSeed),
                      S.Prune ? 1u : 0u);
}

/// Result-cache context of one engine run: the store (null when
/// caching is off), the engine mode (entries only answer lookups from
/// the mode that produced them — see cache::EncodingMode), and the
/// run's hit/miss tally.
struct CacheCtx {
  const cache::ResultStore *Store = nullptr;
  bool ShareEncodings = false;
  bool Portfolio = false;
  std::atomic<unsigned> Hits{0};
  std::atomic<unsigned> Misses{0};

  cache::EncodingMode mode(const JobSpec &Spec) const {
    return cache::encodingModeFor(Spec, ShareEncodings, Portfolio);
  }

  /// Consults the store for \p Spec, counting the outcome. The hit
  /// (CacheHit already set by the store) or std::nullopt on miss/off.
  std::optional<JobResult> lookup(const JobSpec &Spec) {
    if (!Store)
      return std::nullopt;
    static obs::Counter &MHits = obs::Metrics::global().counter("cache.hits");
    static obs::Counter &MMisses =
        obs::Metrics::global().counter("cache.misses");
    static obs::Histogram &ProbeSeconds =
        obs::Metrics::global().histogram("cache.probe_seconds");
    obs::Span S("cache.probe", obs::CatCache);
    std::optional<JobResult> Hit = Store->lookup(Spec, mode(Spec));
    S.arg("outcome", Hit ? "hit" : "miss");
    S.finish();
    ProbeSeconds.observe(S.seconds());
    if (Hit) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      MHits.inc();
    } else {
      Misses.fetch_add(1, std::memory_order_relaxed);
      MMisses.inc();
    }
    return Hit;
  }

  /// Persists a freshly computed result when the policy allows
  /// (\p GroupHash scopes Session-mode entries to their share group).
  /// Write failures are deliberately swallowed: a broken cache
  /// degrades to recomputation, never to a failed campaign (the CLI
  /// validates the directory up front to catch misconfiguration).
  void maybeStore(const JobResult &R, uint64_t GroupHash = 0) {
    if (Store && cache::cacheable(R))
      Store->store(R, mode(R.Spec), GroupHash);
  }
};

/// Runs one encoding-share group of Predict jobs through a single
/// PredictSession, in campaign order; \p Finished is invoked after each
/// job's result slot is written.
///
/// Cache consumption is all-or-nothing per group: a job's default-
/// report bytes under shared encodings depend on *which* group member
/// paid the base prefix (literals / base_prefix_reused attribution in
/// PredictSession::query), so answering some members from the cache
/// and recomputing others would shift that attribution and break the
/// cold/warm byte-identity contract. Either every member hits — the
/// group is skipped wholesale, no session, no Z3 — or the group runs
/// exactly as a cache-off run would (every member tallied as a miss,
/// computed results stored back).
void runPredictGroup(const Campaign &C, const std::vector<size_t> &Indices,
                     std::vector<JobResult> &Results, CacheCtx &Cache,
                     const std::function<void(size_t)> &Finished) {
  // Session entries are scoped to this exact group constellation
  // (cache::shareGroupHash): entries written under a different
  // grouping of the same specs miss, because their literal
  // attribution would not match what this campaign's cold run writes.
  static obs::Counter &MHits = obs::Metrics::global().counter("cache.hits");
  static obs::Counter &MMisses = obs::Metrics::global().counter("cache.misses");
  static obs::Histogram &ProbeSeconds =
      obs::Metrics::global().histogram("cache.probe_seconds");
  obs::Span GroupSpan("engine.group", obs::CatEngine);
  GroupSpan.arg("app", C.Jobs[Indices.front()].App);
  GroupSpan.arg("jobs", formatString("%zu", Indices.size()));

  uint64_t GroupHash =
      Cache.Store ? cache::shareGroupHash(C, Indices) : 0;
  if (Cache.Store) {
    obs::Span Probe("cache.probe_group", obs::CatCache);
    std::optional<std::vector<JobResult>> Hits =
        Cache.Store->lookupGroup(C, Indices, /*ShareEncodings=*/true);
    Probe.arg("outcome", Hits ? "hit" : "miss");
    Probe.finish();
    ProbeSeconds.observe(Probe.seconds());
    if (Hits) {
      Cache.Hits.fetch_add(Indices.size(), std::memory_order_relaxed);
      MHits.inc(Indices.size());
      for (size_t J = 0; J < Indices.size(); ++J) {
        Results[Indices[J]] = std::move((*Hits)[J]);
        Finished(Indices[J]);
      }
      return;
    }
    Cache.Misses.fetch_add(Indices.size(), std::memory_order_relaxed);
    MMisses.inc(Indices.size());
  }

  const JobSpec &First = C.Jobs[Indices.front()];
  auto App = makeApplication(First.App);
  if (!App) {
    for (size_t I : Indices) {
      JobResult R;
      R.Spec = C.Jobs[I];
      R.Error = "unknown application '" + C.Jobs[I].App + "'";
      Results[I] = std::move(R);
      Finished(I);
    }
    return;
  }

  RunResult Observed =
      runWorkload(*App, First.Cfg, StoreMode::SerialObserved,
                  IsolationLevel::Serializable, First.Cfg.Seed);
  PredictSession::Options SO;
  SO.PruneFormula = First.Prune;
  PredictSession Session(Observed.Hist, SO);

  for (size_t I : Indices) {
    const JobSpec &Spec = C.Jobs[I];
    JobResult R;
    R.Spec = Spec;
    obs::Span JobSpan("engine.job", obs::CatEngine);
    JobSpan.arg("kind", toString(Spec.Kind));
    JobSpan.arg("app", Spec.App);
    JobSpan.arg("level", toString(Spec.Level));
    JobSpan.arg("strategy", toString(Spec.Strat));
    R.Ok = true;
    fillWorkloadStats(R, Observed);

    PredictSession::QueryOptions Q;
    Q.Level = Spec.Level;
    Q.Strat = Spec.Strat;
    Q.TimeoutMs = Spec.TimeoutMs;
    Prediction P = Session.query(Q);
    R.Outcome = P.Result;
    R.Stats = P.Stats;
    R.Witness = P.Witness;
    R.TimedOut = P.TimedOut;
    R.SolverStats = P.SolverStats;
    if (P.Result == SmtResult::Sat && Spec.Validate)
      validateInto(R, Spec, Observed.Hist, P);

    JobSpan.finish();
    R.WallSeconds = JobSpan.seconds();
    Cache.maybeStore(R, GroupHash);
    Results[I] = std::move(R);
    Finished(I);
  }
}

/// Executes the streaming pipeline of one Stream job over the observed
/// history \p Full: base prefix, then one PredictSession::extend per
/// StreamChunk-sized transaction slice, with the job's query after
/// every step. \p FromScratch selects the equivalence baseline — a
/// fresh windowed session per prefix instead of extend() — which must
/// produce the same per-step outcomes (the CI streaming gate compares
/// the two with report_diff --outcomes-only).
void runStreamJob(JobResult &R, const JobSpec &Spec, const History &Full,
                  bool FromScratch) {
  unsigned Chunk = std::max(1u, Spec.StreamChunk);
  TxnId N = static_cast<TxnId>(Full.numTxns()); // t0 included.

  PredictSession::Options SO;
  SO.PruneFormula = Spec.Prune;
  SO.Streaming = true;
  SO.Window = Spec.Window;

  PredictSession::QueryOptions Q;
  Q.Level = Spec.Level;
  Q.Strat = Spec.Strat;
  Q.TimeoutMs = Spec.TimeoutMs;

  // Step cut points: prefix ends [1+Chunk, 1+2*Chunk, ...] clamped to N
  // (transaction ids start at 1; the last step always covers the whole
  // trace, so the final answer is the full-history one).
  std::vector<TxnId> Cuts;
  for (TxnId C = std::min<TxnId>(1 + Chunk, N);;
       C = std::min<TxnId>(C + Chunk, N)) {
    Cuts.push_back(C);
    if (C == N)
      break;
  }

  std::unique_ptr<PredictSession> S;
  for (size_t I = 0; I < Cuts.size(); ++I) {
    StreamStep Step;
    if (FromScratch || I == 0) {
      S = std::make_unique<PredictSession>(historyPrefix(Full, Cuts[I]), SO);
      Step.WindowTxns = static_cast<unsigned>(S->window().numTxns());
    } else {
      // Delta [Cuts[I-1], Cuts[I]) extending what the session has seen.
      History Mid = historyPrefix(Full, Cuts[I]);
      PredictSession::ExtendStats ES =
          S->extend(historyDelta(S->observed(), Mid, Cuts[I - 1]));
      Step.WindowTxns = static_cast<unsigned>(ES.WindowTxns);
      Step.EpochRebuild = ES.EpochRebuild;
      Step.ExtendSeconds = ES.GenSeconds;
      Step.Literals = ES.NumLiterals;
    }

    Prediction P = S->query(Q);
    Step.Txns = static_cast<unsigned>(Cuts[I] - 1);
    Step.Outcome = P.Result;
    Step.TimedOut = P.TimedOut;
    Step.Literals += P.Stats.NumLiterals;
    Step.SolveSeconds = P.Stats.SolveSeconds;
    R.Steps.push_back(Step);

    if (I + 1 == Cuts.size()) {
      R.Outcome = P.Result;
      R.Stats = P.Stats;
      R.Witness = P.Witness; // Full-history ids (extend() remaps).
      R.TimedOut = P.TimedOut;
      R.SolverStats = P.SolverStats;
    }
  }
}

/// Lane-statistics context of one engine run: the store (null when
/// learning is off) plus the mutex serializing its read-modify-write
/// updates across workers. Concurrent campaign_cli processes can still
/// lose each other's updates; that is the documented advisory contract.
struct LaneStatsCtx {
  const cache::LaneStatsStore *Store = nullptr;
  std::mutex Mutex;

  portfolio::Schedule scheduleFor(const JobSpec &Spec,
                                  const std::vector<portfolio::LaneSpec> &L) {
    if (!Store)
      return portfolio::Schedule{std::vector<double>(L.size(), 0.0)};
    std::lock_guard<std::mutex> Lock(Mutex);
    return portfolio::scheduleFromStats(
        L, Store->load(cache::laneStatsKey(Spec)));
  }

  void record(const JobSpec &Spec, const portfolio::RaceResult &Race) {
    if (!Store)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    std::string Key = cache::laneStatsKey(Spec);
    std::vector<cache::LaneTally> Tallies = Store->load(Key);
    portfolio::recordRace(Tallies, Race);
    Store->store(Key, Tallies); // Failures degrade to not learning.
  }
};

/// Runs one Predict job as a portfolio race (EngineOptions::
/// PortfolioLanes): observe once, race up to \p MaxLanes recipes for
/// the prediction query, commit the winner's answer — with the
/// reference lane's generation stats, so literal counts stay the
/// single-lane ones — and fold the race into the learned lane
/// statistics.
JobResult runPortfolioJob(const JobSpec &Spec, unsigned MaxLanes,
                          LaneStatsCtx &LaneStats) {
  static obs::Counter &Rescues =
      obs::Metrics::global().counter("portfolio.rescues");

  JobResult R;
  R.Spec = Spec;
  obs::Span JobSpan("engine.job", obs::CatEngine);
  JobSpan.arg("kind", toString(Spec.Kind));
  JobSpan.arg("app", Spec.App);
  Timer Wall;

  auto App = makeApplication(Spec.App);
  if (!App) {
    R.Error = "unknown application '" + Spec.App + "'";
    R.WallSeconds = Wall.seconds();
    return R;
  }
  R.Ok = true;

  RunResult Observed =
      runWorkload(*App, Spec.Cfg, StoreMode::SerialObserved,
                  IsolationLevel::Serializable, Spec.Cfg.Seed);
  fillWorkloadStats(R, Observed);

  PredictOptions Base;
  Base.Level = Spec.Level;
  Base.Strat = Spec.Strat;
  Base.Pco = Spec.Pco;
  Base.TimeoutMs = Spec.TimeoutMs;
  Base.PruneFormula = Spec.Prune;

  std::vector<portfolio::LaneSpec> Lanes =
      portfolio::buildLanes(Base, MaxLanes);
  portfolio::Schedule Sched = LaneStats.scheduleFor(Spec, Lanes);

  portfolio::Validator Validate;
  if (Spec.Validate)
    Validate = [&](const Prediction &P) {
      auto Replay = makeApplication(Spec.App);
      return validatePrediction(*Replay, Spec.Cfg, Observed.Hist, P,
                                Spec.Level, Spec.TimeoutMs);
    };

  portfolio::RaceResult Race =
      portfolio::race(Observed.Hist, Base, Lanes, Sched, Validate);
  LaneStats.record(Spec, Race);

  // Generation stats always come from the reference lane — its
  // encoding is never interrupted, so the job's literal count is the
  // single-lane one whatever lane won the solve.
  const portfolio::LaneRun &Ref = Race.Lanes.front();
  R.Stats = Ref.P.Stats;

  if (Race.Winner >= 0) {
    const portfolio::LaneRun &W = Race.Lanes[Race.Winner];
    R.Outcome = W.P.Result;
    R.Witness = W.P.Witness;
    R.SolverStats = W.P.SolverStats;
    R.Stats.SolveSeconds = W.P.Stats.SolveSeconds;
    R.WinningLane = W.Spec.Name;
    if (W.Val) {
      // The winner's in-lane validation is the job's — never replayed
      // twice.
      R.ValStatus = W.Val->St;
      R.Diverged = W.Val->Diverged;
      R.AssertionFailed = W.Val->Run.assertionFailed();
      R.FailedAssertions = W.Val->Run.FailedAssertions;
    }
    if (Ref.P.TimedOut)
      Rescues.inc(); // Single-lane would have timed out; a lane decided.
  } else {
    // No lane decided: the job's answer is the reference lane's
    // unknown (never a canceled one — nothing interrupts when nobody
    // wins), timeout classification included.
    R.Outcome = Ref.P.Result;
    R.SolverStats = Ref.P.SolverStats;
    R.TimedOut = Ref.P.TimedOut;
  }

  R.Lanes.reserve(Race.Lanes.size());
  for (const portfolio::LaneRun &LR : Race.Lanes) {
    LaneResult L;
    L.Name = LR.Spec.Name;
    L.Strat = LR.Spec.Strat;
    L.Prune = LR.Spec.Prune;
    L.Outcome = LR.P.Result;
    L.Skipped = !LR.Launched;
    L.Canceled = LR.P.Canceled;
    L.TimedOut = LR.P.TimedOut;
    L.GenSeconds = LR.P.Stats.GenSeconds;
    L.SolveSeconds = LR.P.Stats.SolveSeconds;
    L.Literals = LR.P.Stats.NumLiterals;
    L.Seconds = LR.Seconds;
    L.Stats = LR.P.SolverStats;
    R.Lanes.push_back(std::move(L));
  }

  R.WallSeconds = Wall.seconds();
  return R;
}

} // namespace

JobResult Engine::runJob(const JobSpec &Spec, bool StreamFromScratch) {
  JobResult R;
  R.Spec = Spec;
  obs::Span JobSpan("engine.job", obs::CatEngine);
  JobSpan.arg("kind", toString(Spec.Kind));
  JobSpan.arg("app", Spec.App);
  Timer Wall;

  auto App = makeApplication(Spec.App);
  if (!App) {
    R.Error = "unknown application '" + Spec.App + "'";
    R.WallSeconds = Wall.seconds();
    return R;
  }
  R.Ok = true;

  switch (Spec.Kind) {
  case JobKind::Observe: {
    RunResult Run = runWorkload(*App, Spec.Cfg, StoreMode::SerialObserved,
                                IsolationLevel::Serializable, Spec.Cfg.Seed);
    fillWorkloadStats(R, Run);
    break;
  }

  case JobKind::Predict: {
    RunResult Observed =
        runWorkload(*App, Spec.Cfg, StoreMode::SerialObserved,
                    IsolationLevel::Serializable, Spec.Cfg.Seed);
    fillWorkloadStats(R, Observed);

    PredictOptions Opts;
    Opts.Level = Spec.Level;
    Opts.Strat = Spec.Strat;
    Opts.Pco = Spec.Pco;
    Opts.TimeoutMs = Spec.TimeoutMs;
    Opts.PruneFormula = Spec.Prune;
    Prediction P = predict(Observed.Hist, Opts);
    R.Outcome = P.Result;
    R.Stats = P.Stats;
    R.Witness = P.Witness;
    R.TimedOut = P.TimedOut;
    R.SolverStats = P.SolverStats;

    if (P.Result == SmtResult::Sat && Spec.Validate)
      validateInto(R, Spec, Observed.Hist, P);
    break;
  }

  case JobKind::RandomWeak: {
    RunResult Run = runWorkload(*App, Spec.Cfg, StoreMode::RandomWeak,
                                Spec.Level, Spec.StoreSeed);
    fillWorkloadStats(R, Run);
    if (Spec.CheckSerializability)
      R.Serializability = checkSerializableSmt(Run.Hist, Spec.TimeoutMs);
    break;
  }

  case JobKind::LockingRc: {
    RunResult Run = runWorkload(*App, Spec.Cfg, StoreMode::LockingRc,
                                IsolationLevel::ReadCommitted,
                                Spec.StoreSeed);
    fillWorkloadStats(R, Run);
    break;
  }

  case JobKind::Stream: {
    RunResult Observed =
        runWorkload(*App, Spec.Cfg, StoreMode::SerialObserved,
                    IsolationLevel::Serializable, Spec.Cfg.Seed);
    fillWorkloadStats(R, Observed);
    runStreamJob(R, Spec, Observed.Hist, StreamFromScratch);
    break;
  }
  }

  R.WallSeconds = Wall.seconds();
  return R;
}

std::vector<std::vector<size_t>> Engine::planGroups(const Campaign &C,
                                                    bool ShareEncodings) {
  std::vector<std::vector<size_t>> Groups;
  if (!ShareEncodings) {
    Groups.reserve(C.Jobs.size());
    for (size_t I = 0; I < C.Jobs.size(); ++I)
      Groups.push_back({I});
    return Groups;
  }
  std::map<std::string, size_t> GroupIndex;
  for (size_t I = 0; I < C.Jobs.size(); ++I) {
    if (C.Jobs[I].Kind != JobKind::Predict) {
      Groups.push_back({I});
      continue;
    }
    auto [It, New] = GroupIndex.emplace(shareKey(C.Jobs[I]), Groups.size());
    if (New)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
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

  std::optional<cache::ResultStore> Store;
  if (!Opts.CacheDir.empty())
    Store.emplace(Opts.CacheDir);
  // ShareEncodings wins over racing (a shared session's solver cannot
  // be raced); the CLI rejects the combination up front.
  bool PortfolioOn = Opts.PortfolioLanes >= 2 && !Opts.ShareEncodings;
  CacheCtx Cache;
  Cache.Store = Store ? &*Store : nullptr;
  Cache.ShareEncodings = Opts.ShareEncodings;
  Cache.Portfolio = PortfolioOn;

  std::optional<cache::LaneStatsStore> LaneStore;
  if (PortfolioOn) {
    const std::string &Dir =
        Opts.LaneStatsDir.empty() ? Opts.CacheDir : Opts.LaneStatsDir;
    if (!Dir.empty())
      LaneStore.emplace(Dir);
  }
  LaneStatsCtx LaneStats;
  LaneStats.Store = LaneStore ? &*LaneStore : nullptr;

  // The scheduling unit is a *group* of job indices (planGroups).
  // Grouping is deterministic, and group execution is sequential, so
  // reports remain byte-identical across worker counts in both modes.
  std::vector<std::vector<size_t>> Groups =
      planGroups(C, Opts.ShareEncodings);

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

  // One pool task per scheduling group. Group execution is sequential
  // and every result lands in its pre-allocated slot, so reports remain
  // byte-identical across worker counts in both modes.
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
    bool SharedPredict = Opts.ShareEncodings &&
                         C.Jobs[Indices.front()].Kind == JobKind::Predict;
    if (SharedPredict) {
      runPredictGroup(C, Indices, Results, Cache, Finished);
      return;
    }
    for (size_t I : Indices) {
      if (std::optional<JobResult> Hit = Cache.lookup(C.Jobs[I])) {
        Results[I] = std::move(*Hit);
      } else {
        Results[I] =
            PortfolioOn && C.Jobs[I].Kind == JobKind::Predict
                ? runPortfolioJob(C.Jobs[I], Opts.PortfolioLanes,
                                  LaneStats)
                : runJob(C.Jobs[I], Opts.StreamFromScratch);
        Cache.maybeStore(Results[I]);
      }
      Finished(I);
    }
  };

  // Never spawn more threads than groups; one worker runs inline
  // (TaskPool with zero threads executes submits on this thread).
  // Portfolio lanes multiply each job's thread use, so the pool shrinks
  // to keep the total thread budget at the single-lane run's Workers
  // (a --jobs 8 --portfolio 4 run drives 2 jobs × 4 lanes).
  unsigned EffectiveWorkers =
      PortfolioOn ? std::max(1u, Workers / Opts.PortfolioLanes) : Workers;
  unsigned NumThreads = static_cast<unsigned>(
      std::min<size_t>(EffectiveWorkers, Groups.size()));
  TaskPool Pool(NumThreads <= 1 ? 0 : NumThreads);
  for (size_t G = 0; G < Groups.size(); ++G)
    Pool.submit([&RunGroup, G] { RunGroup(G); });
  Pool.drain();

  Report R(C.Name, std::move(Results), Workers, Wall.seconds());
  if (Store)
    R.setCacheStats(Cache.Hits.load(), Cache.Misses.load());
  R.setMetrics(obs::MetricsSnapshot::delta(
      Before, obs::Metrics::global().snapshot()));
  return R;
}
