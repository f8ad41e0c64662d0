//===- EncodingContext.h - Shared state of the encoding pipeline -*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state shared by the composable encoding passes (Passes.h): the
/// pair-indexed variable matrices, the φwr_k atom table, the boundary
/// and cut terms, and interned helper atoms. One EncodingContext exists
/// per PredictSession (a one-shot predict() is a one-query session); the
/// EncoderPipeline (Pipeline.h) threads it through the passes, and
/// extraction in PredictSession.cpp reads the model through the same
/// tables.
///
/// Everything here is *mechanism* — constraint semantics (Appendix B)
/// live in the passes. The split follows the paper's observation (§7.2)
/// that constraint generation dominates query time: the mechanism layer
/// is where the constant factors live (atom interning, precomputed
/// justification indexes, dense writes bitsets), independent of which
/// strategy or isolation level is being encoded. Measured perspective:
/// in this native reproduction ~95% of generation wall-clock is inside
/// libz3 itself (~1/3 term hash-consing, ~2/3 assert-time
/// preprocessing the solver would otherwise do at check()), so these
/// optimizations bound the wrapper layer's overhead rather than the
/// total — see bench/micro_encoding for the per-pass attribution.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENCODE_ENCODINGCONTEXT_H
#define ISOPREDICT_ENCODE_ENCODINGCONTEXT_H

#include "encode/Prune.h"
#include "history/History.h"
#include "predict/Predict.h"
#include "smt/Smt.h"

#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

namespace isopredict {
namespace encode {

/// Pair-indexed expression matrix ([t1][t2], diagonal unused).
using PairMatrix = std::vector<std::vector<SmtExpr>>;

/// Defines fresh variables <-> transitive closure of \p Base by repeated
/// squaring (ceil(log2 N) layers); definitions are asserted on \p Solver.
/// Exposed as a free function so the closure machinery is testable in
/// isolation and reusable outside a prediction query.
///
/// With \p Fold set (the pruned encoding), base entries may be boolean
/// constants and the layers constant-fold through them: a pair with a
/// constant-true path stays constant true, a pair with no non-false
/// term stays constant false, and a single surviving term is passed
/// through instead of defining a layer variable. Skipped declarations
/// and folded-out atoms are tallied into \p PrunedVars / \p PrunedLits
/// when non-null. Sat-equivalent to the unfolded construction.
PairMatrix defineClosure(SmtContext &Ctx, SmtSolver &Solver,
                         const PairMatrix &Base, const char *Prefix,
                         bool Fold = false, uint64_t *PrunedVars = nullptr,
                         uint64_t *PrunedLits = nullptr);

/// Shared state of a PredictSession's encoding. Construction declares
/// nothing; EncoderPipeline runs the DeclarePass first, which builds the
/// variable tables below.
///
/// Everything DeclarePass and FeasibilityPass build is query-invariant:
/// the per-session Cut variables are always materialized, and their
/// linkage to Boundary — which depends on the strategy's boundary mode —
/// is asserted by the per-query BoundaryLinkPass. A session encodes that
/// prefix once and answers each query on top of it; a one-shot predict()
/// runs the same passes once. The hb closure (HbClosurePass) is
/// query-invariant too, but only causal queries read it, so a
/// non-streaming session adds it to the prefix the first time a causal
/// query arrives.
class EncodingContext {
public:
  EncodingContext(const History &H, const PredictOptions &Opts,
                  SmtContext &Ctx, SmtSolver &Solver, bool Streaming = false)
      : H(H), Opts(Opts), Ctx(Ctx), Solver(Solver), N(H.numTxns()),
        Streaming(Streaming) {
    if (Opts.PruneFormula) {
      // Streaming plans disable the single-writer fixed-choice rule:
      // it is the one relevance rule that is not monotone under
      // history extension (a new writer would un-fix a read whose
      // constant is already asserted).
      PlanStorage = std::make_unique<EncodingPlan>(
          computeEncodingPlan(H, /*FixedChoices=*/!Streaming));
      Plan = PlanStorage.get();
    }
  }

  const History &H;
  const PredictOptions &Opts;
  SmtContext &Ctx;
  SmtSolver &Solver;
  /// Number of encoded transactions; fixed except in streaming mode,
  /// where extendHistory() grows it as H is appended to.
  size_t N;
  /// Streaming mode: the declare+feasibility prefix holds only the
  /// *monotone* constraint families (so constants, before-boundary
  /// implications, choice-inclusion implications, φwr_k/φwr
  /// definitions — all stable as transactions are appended) and grows
  /// in place via delta re-runs of the base passes over
  /// [DeltaFrom, N). The non-monotone families move inside the solver
  /// scope: boundary domains and choice domains (their disjunctions
  /// widen with new reads/writers) into the per-query WindowPass, and
  /// the hb closure (new transactions can connect already-encoded
  /// pairs) into the per-query HbClosurePass, which only causal
  /// queries run — rc and ra embed so ∪ wr and never read hb. φso is
  /// substituted as constants even unpruned, and φhb pair variables
  /// are never declared (EC.Hb aliases the folded closure; hb occurs
  /// only positively, so this is sat-equivalent). Streaming encodings
  /// are therefore never bit-identical to non-streaming ones — outcome
  /// equivalence is what the streaming tests pin.
  const bool Streaming;
  /// Streaming: first transaction of the current delta — the base
  /// passes encode only entities/pairs touching [DeltaFrom, N).
  /// 0 on the initial encode (everything is new).
  size_t DeltaFrom = 0;
  /// Relevance plan of the pruned encoding (PredictOptions::
  /// PruneFormula); null when pruning is off. Computed once per context
  /// (once per PredictSession) because it depends only on the observed
  /// history.
  const EncodingPlan *Plan = nullptr;
  /// Boundary mode of the current query (BoundaryLinkPass pins the cut
  /// to the boundary when strict); set per query by beginQuery().
  bool Relaxed = false;

  //===--------------------------------------------------------------------===
  // Pruning (PredictOptions::PruneFormula)
  //===--------------------------------------------------------------------===

  bool pruning() const { return Plan != nullptr; }
  bool isTrue(SmtExpr E) const { return Ctx.isTrue(E); }
  bool isFalse(SmtExpr E) const { return Ctx.isFalse(E); }

  /// Cumulative pruning counters (the pipeline attributes per-pass
  /// deltas into PassStats, mirroring literalCount()). PrunedVars is
  /// exact; PrunedLits is a lower-bound estimate — each skip site adds
  /// the literals its unpruned counterpart would have emitted where
  /// that count is statically known, and one literal per folded-out
  /// atom otherwise. The hb pair variables the folded closure aliases
  /// (and their iffs) are tallied by HbClosurePass, so only causal
  /// queries claim them; rc and ra never build hb.
  uint64_t PrunedVars = 0;
  uint64_t PrunedLits = 0;
  void notePrunedVars(uint64_t K) { PrunedVars += K; }
  void notePrunedLits(uint64_t K) { PrunedLits += K; }

  /// Disjunct folding for the pruned passes: appends \p E to \p Terms
  /// unless it is constant false (dropped, one pruned literal);
  /// returns true when \p E is constant true — the disjunction is then
  /// trivially true and the caller short-circuits.
  bool orTerm(std::vector<SmtExpr> &Terms, SmtExpr E) {
    if (isFalse(E)) {
      notePrunedLits(1);
      return false;
    }
    if (isTrue(E))
      return true;
    Terms.push_back(E);
    return false;
  }

  /// Conjunct folding: appends \p E unless constant true (dropped, one
  /// pruned literal); returns true when \p E is constant false — the
  /// conjunction is then trivially false and the caller drops it.
  bool andTerm(std::vector<SmtExpr> &Terms, SmtExpr E) {
    if (isTrue(E)) {
      notePrunedLits(1);
      return false;
    }
    if (isFalse(E))
      return true;
    Terms.push_back(E);
    return false;
  }

  /// Resets the per-query state (the strategy-pass outputs below) ahead
  /// of the next query; the base tables built by DeclarePass /
  /// FeasibilityPass are untouched. Stale Pco/Rank matrices from an
  /// earlier query must not leak into extraction — an ExactStrict query
  /// after an Approx one would otherwise read a witness from relation
  /// variables its own scope never constrained.
  void beginQuery(Strategy Strat) {
    Relaxed = Strat == Strategy::ApproxRelaxed;
    Pco.clear();
    Rank.clear();
    // Streaming: Hb aliases the previous query's (popped) closure
    // terms; a causal query's HbClosurePass rebuilds it before
    // CausalPass reads it.
    if (Streaming)
      Hb.clear();
  }

  /// Streaming: accounts for transactions appended to H since the last
  /// base encode — advances the [DeltaFrom, N) delta range and extends
  /// the relevance plan additively. The caller then re-runs the base
  /// passes (forSessionBase) at root solver scope to encode the delta;
  /// existing pairs are never re-encoded.
  void extendHistory() {
    assert(Streaming && "extendHistory is a streaming-mode operation");
    DeltaFrom = N;
    N = H.numTxns();
    if (PlanStorage)
      extendEncodingPlan(*PlanStorage, H);
  }

  //===--------------------------------------------------------------------===
  // Variable tables (built by DeclarePass)
  //===--------------------------------------------------------------------===

  /// Pair-indexed boolean variables ([t1][t2], diagonal unused). Hb is
  /// defined only by HbClosurePass (causal queries): declared but
  /// unconstrained before it in plain encodings, empty before it when
  /// folded (the closure terms are its entries).
  PairMatrix So, Wr, Hb;
  PairMatrix Pco;  ///< Final pco (for witness extraction).
  PairMatrix Rank; ///< Int vars, rank encoding only.

  /// φwr_k(t1,t2), keyed by (key, writer, reader). Ordered container:
  /// FeasibilityPass iterates it when defining the φwr_k semantics, so
  /// assertion order is deterministic.
  std::map<std::tuple<KeyId, TxnId, TxnId>, SmtExpr> WrK;

  /// Integer standing in for the "∞" boundary position: strictly larger
  /// than every event position.
  int64_t Inf = 0;

  /// φchoice(s, i): integer variable holding the chosen writer txn id.
  std::map<std::pair<SessionId, uint32_t>, SmtExpr> Choice;
  /// φboundary(s): integer variable, a read position or Inf.
  std::vector<SmtExpr> Boundary;
  /// Derived cut: last included position (== Boundary when strict; the
  /// end of the boundary read's transaction when relaxed; Table 1 —
  /// BoundaryLinkPass asserts the linkage per query).
  std::vector<SmtExpr> Cut;

  //===--------------------------------------------------------------------===
  // Derived indexes (built by DeclarePass alongside the variables)
  //===--------------------------------------------------------------------===
  //
  // The B.2/B.3 passes all enumerate the same justification shape — "t3
  // reads k from the inner transaction while the outer transaction also
  // writes k" — once per transaction pair, which in the monolithic
  // encoder meant O(N² · keys · reads) ordered-map probes and rdpos
  // vector rebuilds. The indexes below are computed once, in exactly
  // the (keysRead, readsOf/writersOf) traversal order the passes
  // consume, so using them changes neither term order nor term content.

  /// One potential justification site: key, the varying endpoint (the
  /// reader t3 for ww-style edges, the writer t3 for rw edges), and the
  /// φwr_k variable connecting them.
  struct JustEntry {
    KeyId K;
    TxnId Other;
    SmtExpr Wrk;
  };

  /// Per writer B: every (k, reader t3) with a φwr_k(B,t3) variable, in
  /// (keysRead, readsOf) order — the ww/arbitration enumeration.
  std::vector<std::vector<JustEntry>> WwByWriter;

  /// Per reader A: every (k, writer t3) with a φwr_k(t3,A) variable, in
  /// (keysRead, writersOf) order — the rw enumeration.
  std::vector<std::vector<JustEntry>> RwByReader;

  //===--------------------------------------------------------------------===
  // Builders and interned atoms
  //===--------------------------------------------------------------------===

  /// Asserts \p E on the solver.
  void assertExpr(SmtExpr E) { Solver.add(E); }

  /// Fresh N×N matrix of named bool (or int) variables.
  PairMatrix makePairMatrix(const char *Name, bool IsInt = false);

  SmtExpr &wrkVar(KeyId K, TxnId Writer, TxnId Reader);
  bool hasWrk(KeyId K, TxnId Writer, TxnId Reader) const;

  /// The atom φchoice(s,i) = W (interned: one table probe per reuse).
  SmtExpr choiceIs(SessionId S, uint32_t Pos, TxnId W);

  /// "t writes k" over the *observed* transactions; t0 writes every key.
  /// Dense bitset lookup (hot in every justification filter).
  bool writes(TxnId T, KeyId K) const {
    return WritesBit[T * NumKeys + K] != 0;
  }

  /// i ≤ cut(s): the event at (S, Pos) is part of the prediction
  /// (interned).
  SmtExpr eventIncluded(SessionId S, uint32_t Pos);

  /// i < boundary(s): the read keeps its observed writer (interned).
  SmtExpr beforeBoundary(SessionId S, uint32_t Pos);

  /// wrpos_k(t) < cut(s_t): t's write to k is part of the prediction.
  /// True outright for t0. Interned.
  SmtExpr writeIncluded(TxnId T, KeyId K);

  /// True when φso is substituted as constants (pruned or streaming):
  /// the so ∪ wr terms and the hb closure then constant-fold.
  bool foldsSo() const { return pruning() || Streaming; }

  /// so ∪ wr at (A, B): the one-step base of hb, and what rc and ra
  /// embed in their total order. When foldsSo(), a so-ordered pair is
  /// the constant-true so term and any other pair its wr term (itself
  /// constant false off the plan's skeleton); otherwise the plain
  /// disjunction.
  SmtExpr soWr(TxnId A, TxnId B) {
    if (foldsSo())
      return isTrue(So[A][B]) ? So[A][B] : Wr[A][B];
    return Ctx.mkOr(So[A][B], Wr[A][B]);
  }

  /// Member shorthand for the free defineClosure above (folding — and
  /// tallying into the pruning counters — exactly when foldsSo()).
  PairMatrix closure(const PairMatrix &Base, const char *Prefix) {
    return defineClosure(Ctx, Solver, Base, Prefix, foldsSo(),
                         &PrunedVars, &PrunedLits);
  }

  /// One way to justify a ww/rw edge: the condition plus the pco edge
  /// (RankA, RankB) the derivation consumed (for the rank guards).
  struct Justification {
    SmtExpr Cond;
    TxnId RankA, RankB;
    /// Pruned encodings only: the consumed pco edge is a constant-true
    /// so edge, i.e. the derivation is grounded at base level and
    /// cannot be self-justifying — ApproxRankPass omits its rank guard
    /// (the constant conjunct is already folded out of Cond).
    bool Grounded = false;
  };

  /// φww(A,B) justifications: B's write to k is read by some t3 that
  /// pco-follows A, and A's write to k lies inside its session's
  /// boundary (App. B.2.2).
  std::vector<Justification> wwJust(TxnId A, TxnId B, const PairMatrix &P);

  /// φrw(A,B) justifications: A reads k from some t3, B also writes k
  /// and pco-follows t3, and B's write to k lies inside its session's
  /// boundary. Empty when the rw ablation knob is off.
  std::vector<Justification> rwJust(TxnId A, TxnId B, const PairMatrix &P);

  /// Asserts that \p P contains a 2-cycle through its closure (the
  /// unserializability witness requirement).
  void addCycleConstraint(const PairMatrix &P);

  /// Builds WritesBit and the justification indexes; DeclarePass calls
  /// this after the φwr_k table exists.
  void buildIndexes();

private:
  std::unique_ptr<EncodingPlan> PlanStorage;
  size_t NumKeys = 0;
  /// Dense N×numKeys "t writes k" bitset (t0 writes every key).
  std::vector<uint8_t> WritesBit;

  /// Single-probe atom caches keyed on packed small-integer tuples.
  /// Cheaper than the generic pointer-keyed interning in SmtContext for
  /// these very hot atoms (one lookup instead of value-then-atom).
  std::unordered_map<uint64_t, SmtExpr> ChoiceAtomCache;
  std::unordered_map<uint64_t, SmtExpr> EventInclCache;
  std::unordered_map<uint64_t, SmtExpr> BeforeBoundaryCache;
  std::unordered_map<uint64_t, SmtExpr> WriteInclCache;

  /// Fast φwr_k existence/lookup table mirroring WrK (packed key).
  std::unordered_map<uint64_t, SmtExpr> WrKFast;

  static uint64_t packKWR(KeyId K, TxnId W, TxnId R) {
    return (static_cast<uint64_t>(K) << 42) |
           (static_cast<uint64_t>(W) << 21) | R;
  }
};

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_ENCODINGCONTEXT_H
