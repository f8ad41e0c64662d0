//===- PredictSession.h - Incremental multi-query prediction ---*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental prediction API (ROADMAP "incremental predict() across
/// seeds"). The paper's evaluation (§7) answers hundreds of prediction
/// queries per workload, and ~95% of each query's constraint-generation
/// wall-clock sits inside libz3 — re-encoding a nearly identical
/// constraint system per (level × strategy) query on the *same* observed
/// history is the dominant avoidable cost. A PredictSession keeps one
/// SmtContext and solver alive for an observed history, encodes the
/// query-invariant prefix (DeclarePass + FeasibilityPass + WindowPass,
/// see EncoderPipeline::forSessionBase) exactly once, and answers each
/// query(QueryOptions) inside a solver push/pop scope that asserts only
/// the per-query passes (boundary linkage, strategy, isolation level).
/// An Approx query takes up to two such scopes: the exact formula
/// first, with the whole budget, and the rank encoding only when the
/// first cannot settle the answer (runQuery). A scoped check that
/// stalls in Z3's incremental solver is re-solved one-shot inside
/// SmtSolver::check() (Smt.h "Solver scopes").
///
/// Compatibility contract:
///  - `query()` and one-shot `predict()` encode the *same* constraint
///    system: declare → feasibility → window → (causal only: hb) →
///    boundary-link → strategy → isolation, with identical literal
///    counts per pass. A session asserts the hb closure at root scope
///    the first time a causal query needs it and reuses it after.
///    Only the solver scope differs: a session query asserts its
///    passes inside a push/pop scope, while predict() asserts
///    everything at root scope. Z3 switches to its incremental solver
///    once push() is called (a capped attempt there, then a one-shot
///    re-solve), so models — and therefore boundary/cut positions,
///    witnesses, and validation outcomes — may legitimately differ
///    between the two, and so may which queries a tight budget decides;
///    sat/unsat never does.
///    An Approx query that falls back to the rank encoding re-encodes
///    the base on a fresh solver when it is one-shot (its stats then
///    list the base passes twice) and reuses the base in a session.
///
/// Lifecycle:
///
/// \code
///   PredictSession S(Observed);          // nothing encoded yet
///   PredictSession::QueryOptions Q;
///   Q.Level = IsolationLevel::Causal;    // base encoded lazily on the
///   Prediction P1 = S.query(Q);          //   first non-trivial query
///   Q.Level = IsolationLevel::ReadCommitted;
///   Prediction P2 = S.query(Q);          // push; per-query passes; pop
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_PREDICT_PREDICTSESSION_H
#define ISOPREDICT_PREDICT_PREDICTSESSION_H

#include "predict/Predict.h"

#include <memory>

namespace isopredict {

namespace encode {
class EncodingContext;
}

class PredictSession {
public:
  /// Knobs fixed for the whole session because they shape the shared
  /// prefix or every query uniformly.
  struct Options {
    /// Default per-query solver timeout (ms); 0 = none. A query can
    /// override it (QueryOptions::TimeoutMs).
    unsigned TimeoutMs = 0;
    /// Ablation knob: include anti-dependency (rw) edges in pco.
    bool EnableRw = true;
    /// Relevance plan or identity plan (PredictOptions::PruneFormula).
    /// Session-wide because the plan shapes the shared base prefix: it
    /// is computed once per session (it depends only on the observed
    /// history) and every query's scope encodes against the same base.
    bool PruneFormula = true;
    /// Streaming mode: the session accepts extend() deltas and encodes
    /// over a sliding window (see Window). The base prefix holds only
    /// the monotone constraint families and grows in place per extend;
    /// the non-monotone ones are asserted per query by WindowPass and,
    /// for causal queries, HbClosurePass (encode/Passes.h). Streaming
    /// answers are outcome-equivalent to predict() on the window's
    /// sub-history — and to predict() on the full trace whenever
    /// Window covers it — but never bit-identical.
    bool Streaming = false;
    /// Sliding window: per-session cap on the number of encoded
    /// transactions; 0 = unbounded (never evict — still streaming, the
    /// base just grows with the trace). Eviction is deterministic in
    /// the final history: session s evicts its first
    ///   E_s = count_s <= W ? 0 : floor((count_s - W) / H) * H
    /// transactions, with hysteresis H = max(1, W/2), so extending by
    /// deltas and re-observing from scratch encode the *same* window —
    /// tier-1's stream-grid test pins that equivalence. A change in any E_s
    /// triggers an epoch rebuild (fresh solver over the new window);
    /// the hysteresis makes rebuilds amortized O(1/H) per extend.
    unsigned Window = 0;
  };

  /// Cost of one extend() (bench_streaming's measurement unit).
  struct ExtendStats {
    /// Wall-clock of the delta encode (or of the full window re-encode
    /// when EpochRebuild).
    double GenSeconds = 0;
    /// Literals asserted by this extend (0 until the base is encoded —
    /// the first query pays for everything pending).
    uint64_t NumLiterals = 0;
    /// Eviction changed, forcing a from-scratch rebuild of the solver
    /// over the new window.
    bool EpochRebuild = false;
    /// Transactions (including t0) in the encoded window afterwards.
    size_t WindowTxns = 0;
    /// Transactions newly evicted from the window by this extend.
    uint64_t EvictedTxns = 0;
  };

  /// Knobs that may vary per query; everything else about the
  /// constraint system is reused across queries.
  struct QueryOptions {
    IsolationLevel Level = IsolationLevel::Causal;
    Strategy Strat = Strategy::ApproxRelaxed;
    /// Per-query solver timeout (ms); 0 = the session default.
    unsigned TimeoutMs = 0;
    /// Bench-only: assert the per-query passes but skip the solver
    /// query (Result stays Unknown) — lets bench/micro_encoding
    /// measure steady-state per-query generation cost in isolation.
    /// Encodes only the query's own formula (for Approx, the rank
    /// encoding), never the exact-first stage.
    bool GenerateOnly = false;
    /// This query's stage 1 is already solved: an Approx-Strict query
    /// takes this Exact-Strict answer on the same history, level and
    /// budget as its exact stage instead of solving it (predict()'s
    /// ExactStage states the contract). Never a Canceled answer. Only
    /// one-shot queries (the engine's strict pairs) use it: a session
    /// query attributes the base prefix to whichever query encodes it
    /// first, and one that skipped stage 1 would shift that attribution.
    const Prediction *ExactStage = nullptr;
  };

  /// Copies \p Observed (sessions outlive the structures campaigns
  /// build histories in); creates no Z3 state until the first query
  /// that needs the solver (causal fast-path queries never do).
  /// (Two overloads rather than a defaulted argument: GCC rejects `=
  /// {}` for a nested class with member initializers at this point.)
  explicit PredictSession(const History &Observed);
  PredictSession(const History &Observed, Options Opts);
  ~PredictSession();
  PredictSession(const PredictSession &) = delete;
  PredictSession &operator=(const PredictSession &) = delete;

  /// Answers one prediction query. Safe to call any number of times;
  /// each call runs inside its own solver scope.
  Prediction query(const QueryOptions &Q);

  /// Streaming sessions only: appends \p Delta — a fragment built with
  /// HistoryBuilder::extending(observed()) or parseTraceDelta — to the
  /// observed history *in place* (O(delta); repeated extends stay
  /// linear, not quadratic) and grows the encoded base accordingly:
  /// new transactions and pairs are encoded additively, existing pairs
  /// are never re-encoded, and a window eviction change rebuilds the
  /// solver over the new window instead. Must be called between
  /// queries (the solver is at root scope), never concurrently with
  /// one.
  ///
  /// Aliasing rule: the session owns its copy of the history — the
  /// History passed at construction is not referenced afterwards, and
  /// \p Delta is copied too (the caller's fragment is unchanged and
  /// may be discarded). observed() is the one view of the full
  /// extended history and is invalidated-by-growth only (ids and
  /// indexes of existing transactions never change).
  ExtendStats extend(const History &Delta);

  /// Extends answered so far.
  size_t numExtends() const { return Extends; }

  /// True for sessions built with Options::Streaming — the only kind
  /// extend() accepts (the server's extend verb checks this before
  /// growing a pooled session in place).
  bool streaming() const { return Streaming; }

  /// The encoded history: the sliding-window sub-history in streaming
  /// mode (transaction ids renumbered densely; windowToFull maps them
  /// back), the full observed history otherwise.
  const History &window() const { return Streaming ? SubH : H; }

  /// Streaming: maps a window transaction id to the observed history's
  /// id (identity when not streaming). query() already remaps
  /// Prediction::Witness; Prediction::Predicted stays window-scoped.
  TxnId windowToFull(TxnId W) const {
    return Streaming ? SubToFull[W] : W;
  }

  /// Queries answered so far (including fast-pathed ones).
  size_t numQueries() const { return Queries; }

  /// True once the shared base prefix is on the solver (it is encoded
  /// lazily by the first query that needs the solver).
  bool baseEncoded() const { return BaseDone; }

  /// Encodes the shared base prefix now if not done yet. Normally lazy
  /// (the first query pays for it); public so callers can
  /// warm a session up front — e.g. pre-encoding a registered history
  /// before the first query arrives, or measuring the base-encode cost
  /// in isolation without paying a query's per-query passes.
  void ensureBase();

  /// Literals of the shared prefix (0 until baseEncoded()): everything
  /// asserted below the query scopes, including the hb closure once a
  /// causal query of a non-streaming session has built it.
  uint64_t baseLiterals() const { return BaseStats.NumLiterals; }

  /// Stats of the shared prefix encoding (declare → feasibility →
  /// window, then hb once a non-streaming causal query needed it).
  const EncodingStats &baseStats() const { return BaseStats; }

  const History &observed() const { return H; }

private:
  /// predict() is a one-shot session: it builds one with the private
  /// constructor and answers its single query at root scope.
  friend Prediction predict(const History &Observed,
                            const PredictOptions &Opts,
                            const Prediction *ExactStage);

  PredictSession(const History &Observed, const PredictOptions &Opts,
                 bool Shared, bool Streaming = false, unsigned Window = 0);

  /// Creates the Z3 context/solver/encoding context on first use.
  void ensureSolver();

  /// Destroys the solver state; the next ensureBase() re-encodes the
  /// base on a fresh solver.
  void dropSolver();

  /// Non-streaming, after ensureBase(): asserts the hb closure at root
  /// scope if no earlier causal query has (folded into BaseStats).
  void ensureClosure();

  /// Deterministic eviction count for a session of \p Count
  /// transactions (see Options::Window).
  uint32_t evictCount(size_t Count) const;

  /// Streaming: rebuilds SubH (and the id maps) from scratch as the
  /// window sub-history of the current full history under the current
  /// EvictCount — evicted transactions are dropped wholesale, kept
  /// reads of evicted writers are folded into t0 (observed values
  /// kept), ids are renumbered densely, and original per-session
  /// positions/indexes/slots are preserved.
  void rebuildSub();

  /// Streaming, no-eviction extend: appends the full history's
  /// [FullFrom, numTxns) transactions to SubH in place (mapped ids,
  /// folded writers), updating the id maps and derived indexes in
  /// O(delta).
  void appendSubDelta(size_t FullFrom);

  /// Applies \p TimeoutMs (0 = none) only when it differs from the
  /// timeout currently installed on the solver.
  void applyTimeout(unsigned TimeoutMs);

  /// The one query path. \p Shared only decides the solver scope and the
  /// telemetry: the encoding is the same either way. Approx queries
  /// run two stages (see runQuery in PredictSession.cpp): the exact
  /// formula first (or Q.ExactStage, already solved), the rank encoding
  /// only when stage 1 cannot settle the answer.
  Prediction runQuery(const QueryOptions &Q);

  /// One encode-and-solve stage of a query: the base prefix (if not on
  /// the solver yet), then boundary-link under \p Q's boundary mode,
  /// \p Formula's strategy pass and \p Q's isolation pass, solved
  /// within \p TimeoutMs (0 = none). Sessions run it in its own push/pop
  /// scope, one-shot queries at root scope.
  Prediction runStage(const QueryOptions &Q, Strategy Formula,
                      unsigned TimeoutMs);

  /// Shared sessions own a copy of the observed history (the session
  /// outlives the structures campaigns build histories in); streaming
  /// extends append to it in place (see extend()'s aliasing rule). The
  /// one-shot path leaves this empty and references the caller's
  /// history directly — it never outlives the predict() call.
  History OwnedH;
  const History &H;
  /// Effective options handed to the encoding passes; the query-varying
  /// fields (Level/Strat/TimeoutMs) are rewritten per query.
  PredictOptions Opts;
  /// True for sessions answering query(): each query runs inside a
  /// push/pop scope and is counted under session.* metrics and spans.
  /// False for one-shot predict(), which asserts the same passes at
  /// root scope and emits no session.* telemetry.
  const bool Shared;
  const bool Streaming;
  const unsigned Window;
  /// Session-default solver timeout (Opts.TimeoutMs is rewritten per
  /// query, so the default lives here).
  const unsigned DefaultTimeoutMs;

  /// Streaming: the encoded window sub-history (the EncodingContext
  /// references it — a member, so its address is stable across
  /// extends) and the dense id maps between it and the full history.
  History SubH;
  std::vector<TxnId> SubToFull;
  std::vector<TxnId> FullToSub; ///< NoSub when evicted.
  static constexpr TxnId NoSub = std::numeric_limits<TxnId>::max();
  /// Per-session eviction counts of the current epoch.
  std::vector<uint32_t> EvictCount;
  size_t Extends = 0;

  /// Number of transactions (besides t0) that write: the causal
  /// fast-path precondition (footnote 5), computed once per history.
  unsigned WritingTxns = 0;

  std::unique_ptr<SmtContext> Ctx;
  std::unique_ptr<SmtSolver> Solver;
  std::unique_ptr<encode::EncodingContext> EC;

  /// Set by dropSolver() when the solver it destroys was interrupted
  /// (SmtSolver::interruptAll), and applied by ensureSolver() to the
  /// next one: a one-shot Approx query drops its stage-1 solver before
  /// the rank stage, and the cancel must not be lost across that gap.
  bool InterruptRequested = false;

  EncodingStats BaseStats;
  bool BaseDone = false;
  bool ClosureDone = false;
  size_t Queries = 0;
  unsigned AppliedTimeoutMs = 0;
};

} // namespace isopredict

#endif // ISOPREDICT_PREDICT_PREDICTSESSION_H
