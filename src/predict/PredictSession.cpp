//===- PredictSession.cpp - Incremental multi-query prediction -----------===//
//
// Session lifecycle: the constructor records the history and the causal
// fast-path precondition; the first query that needs the solver builds
// the Z3 context and encodes the shared declare → feasibility → window
// prefix (EncoderPipeline::forSessionBase); the first causal query of a
// non-streaming session adds the hb closure to that prefix
// (EncoderPipeline::forClosure); every query then runs the per-query
// passes (EncoderPipeline::forQuery) inside one solver push/pop scope.
// One-shot predict() runs the very same passes through runQuery() at
// root scope, without the scope and without session.* telemetry. An
// Approx query runs up to two stages (runStage): the exact formula,
// then the rank encoding when the first stage cannot settle the answer
// — in its own scope for sessions, on a fresh solver for one-shot
// queries.
//
//===----------------------------------------------------------------------===//

#include "predict/PredictSession.h"

#include "encode/Pipeline.h"
#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "support/Env.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace isopredict;

namespace {

/// Reads the satisfying model back into a Prediction: per-session
/// boundary/cut positions, the truncated history with predicted read
/// choices substituted, and a pco witness cycle (approx strategies).
void extract(encode::EncodingContext &EC, SmtSolver &Solver,
             Prediction &Out) {
  static obs::Histogram &ExtractSeconds =
      obs::Metrics::global().histogram("extract.seconds");
  obs::Span Sp("model_extract", obs::CatExtract);
  const History &H = EC.H;
  size_t Sessions = H.numSessions();
  Out.BoundaryPos.assign(Sessions, InfPos);
  Out.CutPos.assign(Sessions, InfPos);
  for (SessionId S = 0; S < Sessions; ++S) {
    int64_t B = Solver.modelInt(EC.Boundary[S]);
    int64_t C = Solver.modelInt(EC.Cut[S]);
    Out.BoundaryPos[S] = B >= EC.Inf ? InfPos : static_cast<uint32_t>(B);
    Out.CutPos[S] = C >= EC.Inf ? InfPos : static_cast<uint32_t>(C);
  }

  // Truncate the observed history at the cuts and substitute the chosen
  // writers; transaction ids stay aligned with the observed history.
  Out.Predicted.Txns = H.Txns;
  Out.Predicted.Keys = H.Keys;
  Out.Predicted.DeclaredSessions = static_cast<uint32_t>(Sessions);
  for (Transaction &T : Out.Predicted.Txns) {
    if (T.isInit())
      continue;
    uint32_t CutS = Out.CutPos[T.Session];
    std::vector<Event> Kept;
    for (Event &E : T.Events) {
      if (CutS != InfPos && E.Pos > CutS)
        continue;
      if (E.Kind == EventKind::Read) {
        // Fixed single-writer reads have no choice variable; their
        // writer is the plan's constant.
        const TxnId *Fixed = EC.Plan.fixedChoice(T.Session, E.Pos);
        TxnId W = Fixed ? *Fixed
                        : static_cast<TxnId>(Solver.modelInt(
                              EC.Choice.at({T.Session, E.Pos})));
        if (W != E.Writer) {
          E.Writer = W;
          // Best-effort value: the writer's (last) write to the key.
          E.Val = 0;
          if (W != InitTxn)
            for (const Event &WE : H.txn(W).Events)
              if (WE.Kind == EventKind::Write && WE.Key == E.Key)
                E.Val = WE.Val;
        }
      }
      Kept.push_back(E);
    }
    T.Events = std::move(Kept);
    if (CutS != InfPos && T.EndPos > CutS)
      T.EndPos = std::min(T.EndPos, CutS + 1);
  }
  Out.Predicted.finalize();

  // Witness cycle from the model's pco relation (approx only). Prefer a
  // cycle that avoids t0 — arbitration cycles through the initial state
  // are correct but less readable than the paper's figures.
  if (!EC.Pco.empty()) {
    BitRel R(EC.N);
    for (TxnId A = 0; A < EC.N; ++A)
      for (TxnId B = 0; B < EC.N; ++B)
        if (A != B && Solver.modelBool(EC.Pco[A][B]))
          R.set(A, B);
    BitRel NoInit = R;
    for (TxnId T = 1; T < EC.N; ++T) {
      NoInit.clear(InitTxn, T);
      NoInit.clear(T, InitTxn);
    }
    if (auto Cycle = NoInit.findCycle())
      Out.Witness = *Cycle;
    else if (auto Cycle = R.findCycle())
      Out.Witness = *Cycle;
  }
  Sp.finish();
  ExtractSeconds.observe(Sp.seconds());
}

/// Post-check bookkeeping of every query:
/// reads the solver's per-query Z3 statistics and classifies an Unknown
/// as a timeout when Z3 says so or the solve time reached the budget.
void recordCheckOutcome(SmtSolver &Solver, unsigned TimeoutMs,
                        Prediction &Out) {
  Out.SolverStats = Solver.statistics();
  if (Out.Result != SmtResult::Unknown)
    return;
  if (Solver.interrupted()) {
    // We canceled this solve ourselves (SmtSolver::interruptAll on
    // SIGINT or server shutdown). Z3's reason string says "canceled"
    // for interrupts and timeouts alike, so the solver-side flag is the
    // discriminator: a canceled query is not a timeout and must not
    // poison the solver.timeouts metric.
    Out.Canceled = true;
    static obs::Counter &Canceled =
        obs::Metrics::global().counter("solver.interrupts");
    Canceled.inc();
    return;
  }
  const std::string &Reason = Solver.reasonUnknown();
  Out.TimedOut = Reason.find("timeout") != std::string::npos ||
                 Reason.find("canceled") != std::string::npos ||
                 (TimeoutMs != 0 &&
                  Out.Stats.SolveSeconds * 1000.0 >= TimeoutMs);
}

/// Session-level knobs as the PredictOptions the passes read.
PredictOptions toPredictOptions(const PredictSession::Options &SO) {
  PredictOptions O;
  O.TimeoutMs = SO.TimeoutMs;
  O.EnableRw = SO.EnableRw;
  O.PruneFormula = SO.PruneFormula;
  return O;
}

} // namespace

PredictSession::PredictSession(const History &Observed)
    : PredictSession(Observed, Options()) {}

PredictSession::PredictSession(const History &Observed, Options SO)
    : PredictSession(Observed, toPredictOptions(SO), /*Shared=*/true,
                     SO.Streaming, SO.Window) {}

PredictSession::PredictSession(const History &Observed,
                               const PredictOptions &O, bool Shared,
                               bool Streaming, unsigned Window)
    : OwnedH(Shared ? Observed : History()),
      H(Shared ? OwnedH : Observed), Opts(O), Shared(Shared),
      Streaming(Streaming), Window(Window),
      DefaultTimeoutMs(O.TimeoutMs) {
  assert((!Streaming || Shared) && "streaming sessions are shared");
  if (Streaming) {
    EvictCount.resize(H.numSessions());
    for (SessionId S = 0; S < H.numSessions(); ++S)
      EvictCount[S] = evictCount(H.sessionTxns(S).size());
    rebuildSub();
  }
  // Fast-path precondition (the paper's footnote 5, generalized): with
  // at most one writing transaction besides t0, every causal execution
  // of the same program prefix is serializable — each transaction's
  // reads must be consistently "before" or "after" the writer under
  // causal, so a commit order always exists. Voter hits this on every
  // seed; counting once per session lets every causal query skip the
  // solver outright.
  for (TxnId T = 1; T < H.numTxns(); ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind == EventKind::Write) {
        ++WritingTxns;
        break;
      }
}

PredictSession::~PredictSession() = default;

void PredictSession::ensureSolver() {
  if (Ctx)
    return;
  Ctx = std::make_unique<SmtContext>();
  Solver = std::make_unique<SmtSolver>(*Ctx);
  EC = std::make_unique<encode::EncodingContext>(
      Streaming ? SubH : H, Opts, *Ctx, *Solver, Streaming);
  if (InterruptRequested)
    Solver->interrupt();
}

void PredictSession::dropSolver() {
  // An interrupt that reached only the old solver (SmtSolver::
  // interruptAll) stays sticky for its successor.
  if (Solver && Solver->interrupted())
    InterruptRequested = true;
  EC.reset();
  Solver.reset();
  Ctx.reset();
  BaseDone = false;
  ClosureDone = false;
  BaseStats = EncodingStats();
  AppliedTimeoutMs = 0;
}

void PredictSession::ensureBase() {
  if (BaseDone)
    return;
  ensureSolver();
  std::optional<obs::Span> Sp;
  if (Shared) {
    static obs::Counter &BaseEncodes =
        obs::Metrics::global().counter("session.base_encodes");
    BaseEncodes.inc();
    Sp.emplace("session.base_encode", obs::CatSession);
  }
  Timer Gen;
  encode::EncoderPipeline::forSessionBase(Streaming).run(*EC, BaseStats);
  BaseStats.GenSeconds = Gen.seconds();
  BaseStats.NumLiterals = Ctx->literalCount();
  BaseDone = true;
}

void PredictSession::ensureClosure() {
  if (ClosureDone)
    return;
  assert(BaseDone && !Streaming &&
         "the root-scope closure follows a non-streaming base");
  Timer Gen;
  uint64_t Before = Ctx->literalCount();
  encode::EncoderPipeline::forClosure().run(*EC, BaseStats);
  BaseStats.GenSeconds += Gen.seconds();
  BaseStats.NumLiterals += Ctx->literalCount() - Before;
  ClosureDone = true;
}

void PredictSession::applyTimeout(unsigned TimeoutMs) {
  if (TimeoutMs == AppliedTimeoutMs)
    return;
  Solver->setTimeoutMs(TimeoutMs); // 0 restores "no timeout"
  AppliedTimeoutMs = TimeoutMs;
}

Prediction PredictSession::query(const QueryOptions &Q) {
  assert(Shared && "query() is for shared sessions; use predict()");
  return runQuery(Q);
}

uint32_t PredictSession::evictCount(size_t Count) const {
  if (Window == 0 || Count <= Window)
    return 0;
  // Hysteresis: evict in steps of H so eviction — and therefore the
  // epoch — changes at most once every H appended transactions per
  // session. Pure function of the final count, so extending by deltas
  // and re-observing from scratch agree on the window.
  uint32_t Hyst = std::max(1u, Window / 2);
  return static_cast<uint32_t>((Count - Window) / Hyst) * Hyst;
}

void PredictSession::rebuildSub() {
  size_t Full = H.numTxns();
  SubH = History();
  SubH.Keys = H.keys();
  SubH.DeclaredSessions = static_cast<uint32_t>(H.numSessions());
  FullToSub.assign(Full, NoSub);
  SubToFull.clear();
  FullToSub[InitTxn] = InitTxn;
  SubToFull.push_back(InitTxn);
  SubH.Txns.push_back(H.txn(InitTxn));
  for (TxnId T = 1; T < Full; ++T) {
    const Transaction &FT = H.txn(T);
    if (FT.IndexInSession < EvictCount[FT.Session])
      continue;
    Transaction C = FT;
    C.Id = static_cast<TxnId>(SubH.Txns.size());
    for (Event &E : C.Events)
      if (E.Kind == EventKind::Read)
        // Reads of evicted writers fold into t0: the initial state
        // stands in for everything before the window (observed value
        // kept — values only matter to replay validation, which
        // streaming skips).
        E.Writer = FullToSub[E.Writer] == NoSub ? InitTxn
                                                : FullToSub[E.Writer];
    FullToSub[T] = C.Id;
    SubToFull.push_back(T);
    SubH.Txns.push_back(std::move(C));
  }
  SubH.finalize();
}

void PredictSession::appendSubDelta(size_t FullFrom) {
  // Build a delta fragment with mapped ids/writers and hand it to
  // History::append — O(delta) index folding, no full finalize.
  History Frag;
  Frag.Keys = H.keys(); // Current table: the delta may have new keys.
  Frag.DeclaredSessions = static_cast<uint32_t>(H.numSessions());
  Frag.Txns.push_back(SubH.txn(InitTxn)); // t0 sentinel, skipped.
  FullToSub.resize(H.numTxns(), NoSub);
  for (TxnId T = static_cast<TxnId>(FullFrom); T < H.numTxns(); ++T) {
    Transaction C = H.txn(T);
    C.Id = static_cast<TxnId>(SubH.numTxns() + Frag.Txns.size() - 1);
    for (Event &E : C.Events)
      if (E.Kind == EventKind::Read)
        E.Writer = FullToSub[E.Writer] == NoSub ? InitTxn
                                                : FullToSub[E.Writer];
    FullToSub[T] = C.Id;
    SubToFull.push_back(T);
    Frag.Txns.push_back(std::move(C));
  }
  SubH.append(Frag);
}

PredictSession::ExtendStats PredictSession::extend(const History &Delta) {
  assert(Shared && Streaming && "extend() is for streaming sessions");
  assert((!Solver || Solver->atRootScope()) &&
         "extend() must run between queries, not inside one");
  static obs::Counter &ExtendCount =
      obs::Metrics::global().counter("session.extends");
  static obs::Counter &EvictedCount =
      obs::Metrics::global().counter("encode.window_evicted");
  ExtendCount.inc();
  obs::Span Sp("session.extend", obs::CatSession);

  size_t FullFrom = OwnedH.numTxns();
  OwnedH.append(Delta);

  // The causal fast-path precondition stays a property of the *full*
  // history (the from-scratch path observes the full history too, so
  // the two agree on when the solver is skipped).
  for (TxnId T = static_cast<TxnId>(FullFrom); T < H.numTxns(); ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind == EventKind::Write) {
        ++WritingTxns;
        break;
      }

  ExtendStats ES;
  size_t Sessions = H.numSessions();
  if (EvictCount.size() < Sessions)
    EvictCount.resize(Sessions, 0);
  bool EpochChange = false;
  for (SessionId S = 0; S < Sessions; ++S) {
    uint32_t E = evictCount(H.sessionTxns(S).size());
    if (E != EvictCount[S]) {
      ES.EvictedTxns += E - EvictCount[S];
      EvictCount[S] = E;
      EpochChange = true;
    }
  }
  if (ES.EvictedTxns)
    EvictedCount.inc(ES.EvictedTxns);

  if (!BaseDone) {
    // Nothing encoded yet: just refresh the window; the first query
    // pays for the whole base as usual.
    assert(!Ctx && "shared solver exists without an encoded base");
    rebuildSub();
    ++Extends;
    ES.WindowTxns = SubH.numTxns();
    return ES;
  }

  if (EpochChange) {
    // The window moved: existing base assertions mention evicted
    // transactions, so the incremental prefix is rebuilt from scratch
    // over the new sub-history — a fresh context keeps the old epoch's
    // interned atoms from pinning memory. Amortized by the eviction
    // hysteresis: at most one rebuild every H appended transactions
    // per session.
    ES.EpochRebuild = true;
    rebuildSub();
    dropSolver();
    ensureBase();
    ES.GenSeconds = BaseStats.GenSeconds;
    ES.NumLiterals = BaseStats.NumLiterals;
  } else {
    // In-place delta: append the mapped delta to the sub-history, grow
    // the plan/tables, and re-run the base passes — they encode only
    // entities and pairs touching [DeltaFrom, N).
    appendSubDelta(FullFrom);
    EC->extendHistory();
    obs::Span Gen("session.extend_encode", obs::CatSession);
    uint64_t Before = Ctx->literalCount();
    EncodingStats DeltaStats;
    encode::EncoderPipeline::forSessionBase(Streaming).run(*EC, DeltaStats);
    Gen.finish();
    ES.GenSeconds = Gen.seconds();
    ES.NumLiterals = Ctx->literalCount() - Before;
    // Fold into the base's books so baseLiterals() stays "literals on
    // the solver below the scopes".
    BaseStats.NumLiterals += ES.NumLiterals;
    BaseStats.GenSeconds += ES.GenSeconds;
  }
  ++Extends;
  ES.WindowTxns = SubH.numTxns();
  return ES;
}

Prediction PredictSession::runQuery(const QueryOptions &Q) {
  assert(Q.Level != IsolationLevel::Serializable &&
         "prediction targets a weak isolation level");

  Prediction Out;
  if (Q.Level == IsolationLevel::Causal && WritingTxns <= 1) {
    Out.Result = SmtResult::Unsat;
    ++Queries;
    return Out;
  }

  Opts.Level = Q.Level;
  unsigned Budget = Q.TimeoutMs ? Q.TimeoutMs : DefaultTimeoutMs;
  bool ReusedBase = BaseDone;
  std::optional<obs::Span> QSpan;
  if (Shared) {
    static obs::Counter &SessionQueries =
        obs::Metrics::global().counter("session.queries");
    static obs::Counter &BaseReuses =
        obs::Metrics::global().counter("session.base_reuses");
    SessionQueries.inc();
    if (ReusedBase)
      BaseReuses.inc();
    QSpan.emplace("session.query", obs::CatSession);
    QSpan->arg("level", toString(Q.Level));
    QSpan->arg("strategy", toString(Q.Strat));
  }

  // Only Approx-Strict's stage 1 is the Exact-Strict formula, and a
  // canceled answer says nothing about it.
  assert((!Q.ExactStage ||
          (Q.Strat == Strategy::ApproxStrict && !Q.GenerateOnly &&
           !Q.ExactStage->Canceled)) &&
         "a supplied exact stage answers Approx-Strict's stage 1");

  if (Q.Strat == Strategy::ExactStrict || Q.GenerateOnly) {
    Out = runStage(Q, Q.Strat, Budget);
  } else {
    // Approx queries are answered exact-first, along the soundness
    // lattice. pco is contained in every valid commit order, so a pco
    // cycle refutes every co: the approx models are a subset of the
    // exact formula's under the same boundary mode. Stage 1 therefore
    // solves the exact formula; its unsat is the answer, and so is its
    // sat when the predicted history shows a pco cycle (pcoCycle
    // saturates the least fixpoint the rank encoding's ww/rw
    // justifications define, over the same predicted prefix). A sat
    // without a cycle, or an unknown that is not a timeout, falls back
    // to the rank encoding with the budget stage 1 left. pcoCycle
    // always uses rw edges, so the rw ablation always falls back.
    // Sessions get the whole budget for stage 1 too: a scoped check that
    // stalls in Z3's incremental solver re-solves one-shot (SmtSolver).
    // A supplied stage 1 (Q.ExactStage) is that same answer, solved by
    // the caller: this query reports none of its encode or solve cost.
    double Stage1Seconds;
    if (Q.ExactStage) {
      static obs::Counter &Reuses =
          obs::Metrics::global().counter("predict.exact_stage_reuses");
      Reuses.inc();
      const Prediction &E = *Q.ExactStage;
      Out.Result = E.Result;
      Out.TimedOut = E.TimedOut;
      Out.Stats.NumLiterals = E.Stats.NumLiterals;
      Out.Predicted = E.Predicted;
      Out.BoundaryPos = E.BoundaryPos;
      Out.CutPos = E.CutPos;
      Stage1Seconds = E.Stats.SolveSeconds;
    } else {
      Out = runStage(Q, Strategy::ExactStrict, Budget);
      Stage1Seconds = Out.Stats.SolveSeconds;
    }
    std::optional<std::vector<TxnId>> Cycle;
    if (Out.Result == SmtResult::Sat && Opts.EnableRw)
      Cycle = pcoCycle(Out.Predicted);
    if (Cycle) {
      Out.Witness = std::move(*Cycle);
    } else if (Out.Result != SmtResult::Unsat && !Out.Canceled &&
               !Out.TimedOut) {
      unsigned Left = 0;
      if (Budget) {
        double Spent = Stage1Seconds * 1000.0;
        Left = Spent + 1 >= Budget ? 1 : static_cast<unsigned>(Budget - Spent);
      }
      // One-shot queries solve at root scope, so the rank encoding gets
      // a fresh solver (re-encoding the base costs milliseconds);
      // sessions popped stage 1's scope and reuse their base.
      if (!Shared)
        dropSolver();
      Prediction Rank = runStage(Q, Q.Strat, Left);
      Rank.Stats.FallbackLiterals = Rank.Stats.NumLiterals;
      Rank.Stats.NumLiterals = Out.Stats.NumLiterals;
      Rank.Stats.GenSeconds += Out.Stats.GenSeconds;
      Rank.Stats.SolveSeconds += Out.Stats.SolveSeconds;
      Rank.Stats.BasePrefixReused = Out.Stats.BasePrefixReused;
      Rank.Stats.Passes.insert(Rank.Stats.Passes.begin(),
                               Out.Stats.Passes.begin(),
                               Out.Stats.Passes.end());
      SolverStatistics &S = Rank.SolverStats;
      S.Conflicts += Out.SolverStats.Conflicts;
      S.Decisions += Out.SolverStats.Decisions;
      S.Restarts += Out.SolverStats.Restarts;
      S.Propagations += Out.SolverStats.Propagations;
      S.MaxMemoryMb = std::max(S.MaxMemoryMb, Out.SolverStats.MaxMemoryMb);
      Out = std::move(Rank);
    }
  }
  // A supplied stage's timeout was counted by the query that ran it;
  // only a fallback's is this query's own.
  if (Out.TimedOut && (!Q.ExactStage || Out.Stats.FallbackLiterals)) {
    static obs::Counter &Timeouts =
        obs::Metrics::global().counter("solver.timeouts");
    Timeouts.inc();
  }
  if (Streaming)
    // The model speaks window ids: map the witness back to the observed
    // history's ids. Predicted stays window-scoped (its ids are the
    // window's — see windowToFull).
    for (TxnId &T : Out.Witness)
      T = SubToFull[T];
  ++Queries;
  return Out;
}

Prediction PredictSession::runStage(const QueryOptions &Q, Strategy Formula,
                                    unsigned TimeoutMs) {
  // Install the stage's knobs; the passes read them through the
  // EncodingContext's reference to Opts.
  Opts.Strat = Formula;
  Opts.TimeoutMs = TimeoutMs;

  // Root-scope prefix first: the base once per session and, for a
  // non-streaming causal query, the hb closure once per session (a
  // streaming causal query builds it in its own scope instead). Then
  // the per-query passes. Sessions wrap those in a push/pop scope so
  // the next stage starts from the bare prefix; one-shot queries
  // assert them at root scope — push() would switch Z3 to its
  // incremental solver, which decides fewer one-shot queries within a
  // budget.
  Prediction Out;
  bool ReusedBase = BaseDone;
  EncodingStats Prefix = BaseStats;
  ensureBase();
  if (Q.Level == IsolationLevel::Causal && !Streaming)
    ensureClosure();
  // The boundary mode is the query's, whichever formula this stage
  // solves.
  EC->beginQuery(Q.Strat);
  if (Shared)
    Solver->push();
  uint64_t Before = Ctx->literalCount();
  Timer Gen;
  (Streaming ? encode::EncoderPipeline::forStreamQuery(Opts)
             : encode::EncoderPipeline::forQuery(Opts))
      .run(*EC, Out.Stats);
  Out.Stats.GenSeconds = Gen.seconds();
  Out.Stats.NumLiterals = Ctx->literalCount() - Before;
  Out.Stats.BasePrefixReused = ReusedBase;
  // Whatever this stage added to the shared prefix (the base, the hb
  // closure, or both) is folded into its cost, so campaign-wide literal
  // totals still account for every asserted literal exactly once.
  Out.Stats.NumLiterals += BaseStats.NumLiterals - Prefix.NumLiterals;
  Out.Stats.GenSeconds += BaseStats.GenSeconds - Prefix.GenSeconds;
  Out.Stats.Passes.insert(Out.Stats.Passes.begin(),
                          BaseStats.Passes.begin() + Prefix.Passes.size(),
                          BaseStats.Passes.end());

  if (!Q.GenerateOnly) {
    applyTimeout(TimeoutMs);
    Timer Solve;
    Out.Result = Solver->check();
    Out.Stats.SolveSeconds = Solve.seconds();
    recordCheckOutcome(*Solver, TimeoutMs, Out);
    if (Out.Result == SmtResult::Sat)
      extract(*EC, *Solver, Out); // before pop: the model reads scoped vars
  }
  if (Shared)
    Solver->pop();
  return Out;
}
