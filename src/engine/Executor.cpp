//===- Executor.cpp - The one answer path of jobs and queries -------------===//

#include "engine/Executor.h"

#include "checker/Checkers.h"
#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "predict/PredictSession.h"
#include "support/StrUtil.h"

#include <algorithm>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Fills the workload-shape counters (Table 3 columns) from \p H itself
/// — all a history query has, since nothing re-executed the workload.
void fillShapeStats(JobResult &R, const History &H) {
  R.CommittedTxns = static_cast<unsigned>(H.numTxns() - 1);
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
}

/// The shape counters plus the run's abort and assertion counters.
void fillWorkloadStats(JobResult &R, const RunResult &Run) {
  fillShapeStats(R, Run.Hist);
  R.AbortedTxns = Run.AbortedTxns;
  R.DeadlockAborts = Run.DeadlockAborts;
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

/// Copies a prediction's answer into \p R — the one place a
/// Prediction becomes a JobResult, so no path drops a field.
void applyPrediction(JobResult &R, const Prediction &P) {
  R.Outcome = P.Result;
  R.Stats = P.Stats;
  R.Witness = P.Witness;
  R.TimedOut = P.TimedOut;
  R.Canceled = P.Canceled;
  R.SolverStats = P.SolverStats;
}

void applyValidation(JobResult &R, const ValidationResult &V) {
  R.ValStatus = V.St;
  R.Diverged = V.Diverged;
  // Assertions tripped by the *validating* execution (the observed run
  // is serializable and cannot trip any).
  R.AssertionFailed = V.Run.assertionFailed();
  R.FailedAssertions = V.Run.FailedAssertions;
}

/// Takes over \p From's validation of the same predicted history.
void copyValidation(JobResult &R, const JobResult &From) {
  R.ValStatus = From.ValStatus;
  R.Diverged = From.Diverged;
  R.AssertionFailed = From.AssertionFailed;
  R.FailedAssertions = From.FailedAssertions;
}

PredictSession::QueryOptions queryOptions(const JobSpec &Spec) {
  PredictSession::QueryOptions Q;
  Q.Level = Spec.Level;
  Q.Strat = Spec.Strat;
  Q.TimeoutMs = Spec.TimeoutMs;
  return Q;
}

/// Closes a cache-probe span covering \p N jobs and counts its outcome
/// in the run's \p Tally and the global cache.hits / cache.misses.
void finishProbe(obs::Span &S, bool Hit, unsigned N,
                 std::atomic<unsigned> &Tally) {
  static obs::Counter &MHits = obs::Metrics::global().counter("cache.hits");
  static obs::Counter &MMisses = obs::Metrics::global().counter("cache.misses");
  static obs::Histogram &ProbeSeconds =
      obs::Metrics::global().histogram("cache.probe_seconds");
  S.arg("outcome", Hit ? "hit" : "miss");
  S.finish();
  ProbeSeconds.observe(S.seconds());
  Tally.fetch_add(N, std::memory_order_relaxed);
  (Hit ? MHits : MMisses).inc(N);
}

/// Executes the streaming pipeline of one Stream job over the observed
/// history \p Full: base prefix, then one PredictSession::extend per
/// StreamChunk-sized transaction slice, with the job's query after
/// every step. \p FromScratch selects the equivalence baseline — a
/// fresh windowed session per prefix instead of extend() — which must
/// produce the same per-step outcomes (the Engine.Stream* tests compare
/// the two step by step).
void runStreamJob(JobResult &R, const JobSpec &Spec, const History &Full,
                  bool FromScratch) {
  unsigned Chunk = std::max(1u, Spec.StreamChunk);
  TxnId N = static_cast<TxnId>(Full.numTxns()); // t0 included.

  PredictSession::Options SO;
  SO.PruneFormula = Spec.Prune;
  SO.Streaming = true;
  SO.Window = Spec.Window;

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

    Prediction P = S->query(queryOptions(Spec));
    Step.Txns = static_cast<unsigned>(Cuts[I] - 1);
    Step.Outcome = P.Result;
    Step.TimedOut = P.TimedOut;
    Step.Literals += P.Stats.NumLiterals;
    Step.SolveSeconds = P.Stats.SolveSeconds;
    R.Steps.push_back(Step);
    if (I + 1 == Cuts.size())
      applyPrediction(R, P); // Full-history witness ids (extend() remaps).
  }
}

} // namespace

RunResult isopredict::engine::observe(Application &App,
                                      const WorkloadConfig &Cfg) {
  return runWorkload(App, Cfg, StoreMode::SerialObserved,
                     IsolationLevel::Serializable, Cfg.Seed);
}

/// Filled by the Exact-Strict job of a strict pair: its answer (unset
/// until it ran, or when it could not run) and then its result slot.
struct Executor::StrictStage {
  std::optional<Prediction> Exact;
  const JobResult *ExactResult = nullptr;
};

const char *isopredict::engine::toString(AnsweredBy A) {
  switch (A) {
  case AnsweredBy::Cache:
    return "cache";
  case AnsweredBy::WarmSession:
    return "warm_session";
  case AnsweredBy::Session:
    return "session";
  case AnsweredBy::Engine:
    break;
  }
  return "engine";
}

Executor::Executor(const EngineOptions &O, size_t SessionCapacity)
    : ShareEncodings(O.ShareEncodings),
      StreamFromScratch(O.StreamFromScratch), Sessions(SessionCapacity) {
  if (!O.CacheDir.empty())
    Store.emplace(O.CacheDir);
}

std::optional<JobResult> Executor::probe(const JobSpec &S,
                                         cache::EncodingMode Mode) {
  if (!Store)
    return std::nullopt;
  obs::Span Span("cache.probe", obs::CatCache);
  std::optional<JobResult> Hit = Store->lookup(S, Mode);
  finishProbe(Span, Hit.has_value(), 1, Hit ? Hits : Misses);
  return Hit;
}

void Executor::store(const JobResult &R, const JobSpec &CacheSpec,
                     cache::EncodingMode Mode, uint64_t GroupHash) {
  // Write failures are deliberately swallowed: a broken cache degrades
  // to recomputation, never to a failed campaign or query.
  if (!Store || !cache::cacheable(R))
    return;
  JobResult Entry = R;
  Entry.Spec = CacheSpec; // The store verifies spec identity.
  Store->store(Entry, Mode, GroupHash);
}

Executor::Answer Executor::answer(const Query &Q) {
  cache::EncodingMode Mode =
      Q.Hist ? cache::EncodingMode::Session
             : cache::encodingModeFor(Q.Spec, ShareEncodings);
  Answer A;
  if (std::optional<JobResult> Hit = probe(Q.CacheSpec, Mode)) {
    A.R = std::move(*Hit);
    A.R.Spec = Q.Spec; // Back into the caller's (unscoped) identity.
    A.By = AnsweredBy::Cache;
    return A;
  }
  if (Q.Hist)
    A = queryHistory(Q);
  else
    A.R = compute(Q.Spec);
  store(A.R, Q.CacheSpec, Mode);
  return A;
}

Executor::Answer Executor::queryHistory(const Query &Q) {
  Answer A;
  A.R.Spec = Q.Spec;
  A.R.Ok = true;
  fillShapeStats(A.R, *Q.Hist);
  std::string Key = SessionPool::key(Q.Owner, Q.ContentHash, Q.Spec.Prune);
  std::unique_ptr<PredictSession> Sess = Sessions.acquire(Key);
  A.By = Sess ? AnsweredBy::WarmSession : AnsweredBy::Session;
  if (!Sess) {
    PredictSession::Options SO;
    SO.PruneFormula = Q.Spec.Prune;
    // Streaming with an unbounded window: outcome-equivalent to a plain
    // session (the window covers the whole trace), but extendSessions
    // can grow the pooled session in place instead of throwing the warm
    // encoding away.
    SO.Streaming = true;
    Sess = std::make_unique<PredictSession>(*Q.Hist, SO);
  }
  Prediction P = Sess->query(queryOptions(Q.Spec));
  applyPrediction(A.R, P);
  // An interrupted solver is sticky-canceled; never pool it.
  if (!P.Canceled)
    Sessions.release(Key, std::move(Sess));
  return A;
}

JobResult Executor::compute(const JobSpec &Spec, StrictStage *Stage) {
  JobResult R;
  R.Spec = Spec;
  obs::Span JobSpan("engine.job", obs::CatEngine);
  JobSpan.arg("kind", toString(Spec.Kind));
  JobSpan.arg("app", Spec.App);

  auto App = makeApplication(Spec.App);
  if (!App) {
    R.Error = "unknown application '" + Spec.App + "'";
  } else {
    R.Ok = true;
    switch (Spec.Kind) {
    case JobKind::Observe:
      fillWorkloadStats(R, observe(*App, Spec.Cfg));
      break;
    case JobKind::Predict: {
      RunResult Observed = observe(*App, Spec.Cfg);
      fillWorkloadStats(R, Observed);
      predictInto(R, Spec, Observed.Hist, nullptr, Stage);
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
    case JobKind::LockingRc:
      fillWorkloadStats(R, runWorkload(*App, Spec.Cfg, StoreMode::LockingRc,
                                       IsolationLevel::ReadCommitted,
                                       Spec.StoreSeed));
      break;
    case JobKind::Stream: {
      RunResult Observed = observe(*App, Spec.Cfg);
      fillWorkloadStats(R, Observed);
      runStreamJob(R, Spec, Observed.Hist, StreamFromScratch);
      break;
    }
    }
  }
  JobSpan.finish();
  R.WallSeconds = JobSpan.seconds();
  return R;
}

void Executor::predictInto(JobResult &R, const JobSpec &Spec,
                           const History &Observed, PredictSession *Shared,
                           StrictStage *Stage) {
  PredictOptions PO;
  PO.Level = Spec.Level;
  PO.Strat = Spec.Strat;
  PO.Pco = Spec.Pco;
  PO.TimeoutMs = Spec.TimeoutMs;
  PO.PruneFormula = Spec.Prune;
  // A canceled exact stage says nothing about the formula: the
  // Approx-Strict job then solves its own.
  const Prediction *Exact = nullptr;
  if (Stage && Spec.Strat == Strategy::ApproxStrict && Stage->Exact &&
      !Stage->Exact->Canceled)
    Exact = &*Stage->Exact;
  Prediction P = Shared ? Shared->query(queryOptions(Spec))
                        : predict(Observed, PO, Exact);
  applyPrediction(R, P);
  if (P.Result == SmtResult::Sat && Spec.Validate) {
    if (Exact && !P.Stats.FallbackLiterals) {
      // The exact stage's predicted history, which the Exact-Strict job
      // has already replayed.
      copyValidation(R, *Stage->ExactResult);
    } else {
      // Replays the prediction against a fresh application instance (§5).
      auto Replay = makeApplication(Spec.App);
      applyValidation(R, validatePrediction(*Replay, Spec.Cfg, Observed, P,
                                            Spec.Level, Spec.TimeoutMs));
    }
  }
  if (Stage && Spec.Strat == Strategy::ExactStrict)
    Stage->Exact = std::move(P);
}

bool Executor::deliverCachedGroup(const Campaign &C,
                                  const std::vector<size_t> &Indices,
                                  std::vector<JobResult> &Results,
                                  const std::function<void(size_t)> &Finished) {
  if (!Store)
    return false;
  obs::Span Probe("cache.probe_group", obs::CatCache);
  std::optional<std::vector<JobResult>> Group =
      Store->lookupGroup(C, Indices, ShareEncodings);
  finishProbe(Probe, Group.has_value(), static_cast<unsigned>(Indices.size()),
              Group ? Hits : Misses);
  if (!Group)
    return false;
  for (size_t J = 0; J < Indices.size(); ++J) {
    Results[Indices[J]] = std::move((*Group)[J]);
    Finished(Indices[J]);
  }
  return true;
}

void Executor::runGroup(const Campaign &C, const std::vector<size_t> &Indices,
                        std::vector<JobResult> &Results,
                        const std::function<void(size_t)> &Finished) {
  if (ShareEncodings && C.Jobs[Indices.front()].Kind == JobKind::Predict) {
    runShareGroup(C, Indices, Results, Finished);
    return;
  }
  if (Indices.size() == 2) {
    runStrictPair(C, Indices, Results, Finished);
    return;
  }
  for (size_t I : Indices) {
    Query Q;
    Q.Spec = Q.CacheSpec = C.Jobs[I];
    Results[I] = answer(Q).R;
    Finished(I);
  }
}

/// Runs one strict pair: the Exact-Strict job first, then the
/// Approx-Strict job, which takes over its answer as the exact stage
/// (PredictSession::QueryOptions::ExactStage) instead of solving the
/// same formula again. Default report bytes are those of the two jobs
/// run alone; only the Approx-Strict job's timings-gated cost fields
/// shrink.
///
/// Cache consumption is all-or-nothing per pair, as for share groups:
/// both members hit, or both are computed (and tallied as misses). That
/// is the policy ResultStore::lookupGroup implements, so campaign_cli
/// --dry-run previews the run exactly.
void Executor::runStrictPair(const Campaign &C,
                             const std::vector<size_t> &Indices,
                             std::vector<JobResult> &Results,
                             const std::function<void(size_t)> &Finished) {
  if (deliverCachedGroup(C, Indices, Results, Finished))
    return;
  bool ExactFirst = C.Jobs[Indices[0]].Strat == Strategy::ExactStrict;
  size_t Exact = Indices[ExactFirst ? 0 : 1];
  size_t Approx = Indices[ExactFirst ? 1 : 0];
  StrictStage Stage;
  Results[Exact] = compute(C.Jobs[Exact], &Stage);
  store(Results[Exact], C.Jobs[Exact], cache::EncodingMode::OneShot);
  Finished(Exact);
  Stage.ExactResult = &Results[Exact];
  Results[Approx] = compute(C.Jobs[Approx], &Stage);
  store(Results[Approx], C.Jobs[Approx], cache::EncodingMode::OneShot);
  Finished(Approx);
}

/// Runs one encoding-share group of Predict jobs through a single
/// PredictSession, in campaign order.
///
/// Cache consumption is all-or-nothing per group: a job's default-
/// report bytes under shared encodings depend on *which* group member
/// paid the base prefix (literals / base_prefix_reused attribution in
/// PredictSession::query), so answering some members from the cache
/// and recomputing others would shift that attribution and break the
/// cold/warm byte-identity contract. Either every member hits — the
/// group is skipped wholesale, no session, no Z3 — or the group runs
/// exactly as a cache-off run would (every member tallied as a miss,
/// computed results stored back). Entries are scoped to this exact
/// group constellation (cache::shareGroupHash).
void Executor::runShareGroup(const Campaign &C,
                             const std::vector<size_t> &Indices,
                             std::vector<JobResult> &Results,
                             const std::function<void(size_t)> &Finished) {
  obs::Span GroupSpan("engine.group", obs::CatEngine);
  GroupSpan.arg("app", C.Jobs[Indices.front()].App);
  GroupSpan.arg("jobs", formatString("%zu", Indices.size()));

  if (deliverCachedGroup(C, Indices, Results, Finished))
    return;
  uint64_t GroupHash = Store ? cache::shareGroupHash(C, Indices) : 0;

  const JobSpec &First = C.Jobs[Indices.front()];
  auto App = makeApplication(First.App);
  if (!App) { // Every member fails the same way compute() does.
    for (size_t I : Indices) {
      Results[I] = compute(C.Jobs[I]);
      Finished(I);
    }
    return;
  }

  RunResult Observed = observe(*App, First.Cfg);
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
    predictInto(R, Spec, Observed.Hist, &Session);
    JobSpan.finish();
    R.WallSeconds = JobSpan.seconds();
    store(R, Spec, cache::EncodingMode::Session, GroupHash);
    Results[I] = std::move(R);
    Finished(I);
  }
}

unsigned Executor::extendSessions(const std::string &Owner, uint64_t OldHash,
                                  size_t OldTxns, const History &Delta,
                                  uint64_t NewHash) {
  unsigned Grown = 0;
  for (bool Prune : {false, true}) {
    std::unique_ptr<PredictSession> Sess =
        Sessions.acquire(SessionPool::key(Owner, OldHash, Prune));
    // Non-streaming or out-of-date strays are dropped the same way.
    if (!Sess || !Sess->streaming() || Sess->observed().numTxns() != OldTxns)
      continue;
    Sess->extend(Delta);
    Sessions.release(SessionPool::key(Owner, NewHash, Prune), std::move(Sess));
    ++Grown;
  }
  return Grown;
}
