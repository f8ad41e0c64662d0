//===- Passes.cpp - Composable encoding passes (Appendix B) --------------===//
//
// The constraint generation below follows Appendix B of the paper
// clause-for-clause; section references are inlined at each block.
//
// Deliberate, sat-equivalent engineering deviations from the paper's
// Z3Py encoding (see DESIGN.md §6):
//  - hb is encoded as an exact transitive closure by repeated squaring
//    instead of a recursive fixpoint equality; hb only occurs positively
//    in the isolation constraints, so only spurious models are removed.
//  - Only causal queries build hb (HbClosurePass): CausalPass reads it
//    in the wwcausal arbitration. ReadCommittedPass and ReadAtomicPass
//    embed the one-step so ∪ wr in their total order instead of hb; a
//    strict total order contains a relation exactly when it contains
//    its transitive closure, so the two embeddings are sat-equivalent.
//    Non-streaming sessions assert the closure once at root scope
//    (after the base, before the first causal query's scope);
//    streaming sessions assert it inside each causal query's scope.
//  - Each session's cut is a materialized variable linked to its
//    boundary per query (BoundaryLinkPass) rather than a term alias, so
//    the base prefix is the same for every strategy.
//  - ExactStrictPass asserts, next to B.2.1's ∀co. ¬IsSerializable(co),
//    its ground instance at the observed commit order co(t) = t: some
//    edge of the prediction points backwards in TxnId order. The ∀
//    implies it, so the set of models (and every sat/unsat answer) is
//    unchanged; only which model Z3 returns, and how fast, can move.
//    It hands model-based quantifier instantiation the serial order
//    that refutes the most candidates before the search starts.
//  - Approx queries are solved along the soundness lattice, not by
//    ApproxRankPass alone (PredictSession::runQuery). Stage 1 runs
//    ExactStrictPass under the query's own boundary mode: pco is
//    contained in every valid commit order, so the approx models are a
//    subset of its models, and its unsat is the answer. Its sat is the
//    answer too when the predicted history shows a pco cycle
//    (pcoCycle saturates the same least fixpoint wwJust/rwJust encode,
//    over the same predicted prefix). Only a sat without a cycle, or
//    an unknown that is not a timeout, solves B.2.2's rank encoding.
//    Stage 1 gets the whole budget.
//
//  - φso is never declared: the observed session order is substituted
//    as constants, and every pass folds them (and the other constants
//    the relevance plan yields) out of its terms. The B.3 embeddings
//    inline their definitional ww relation variables, and φhb aliases
//    the folded closure terms instead of naming them.
//
// Every pass has one body, driven by the relevance plan (Prune.h):
// which wr/hb pairs are possible and which reads are fixed is data, not
// a code path. With PredictOptions::PruneFormula off the plan is the
// identity plan (every pair possible, no fixed read), and the same
// bodies build the larger, equally sat/unsat-equivalent formula.
// Streaming and non-streaming contexts run the same passes too: the
// base passes encode the [DeltaFrom, N) delta (everything when
// DeltaFrom is 0), and the pipeline places WindowPass in the base or in
// each query scope.
//
//===----------------------------------------------------------------------===//

#include "encode/Passes.h"

#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::encode;

namespace {

/// The B.3 embeddings' per-pair constraint "(Vis ∨ ww-terms) ⇒
/// co(A) < co(B)". The ww disjunction is inlined rather than named by a
/// relation variable (it occurs nowhere else), and the constant cases
/// fold: a constant-true \p Vis asserts the order outright, a
/// constant-false \p Vis with no terms asserts nothing. \p Vis is the
/// visibility term the order embeds: hb for causal, so ∪ wr for rc and
/// ra.
void assertEmbedding(EncodingContext &EC, SmtExpr Vis,
                     std::vector<SmtExpr> &Terms, SmtExpr Lt) {
  SmtContext &Ctx = EC.Ctx;
  if (EC.isTrue(Vis)) {
    EC.assertExpr(Lt);
    return;
  }
  if (EC.isFalse(Vis)) {
    if (!Terms.empty())
      EC.assertExpr(Ctx.mkImplies(Ctx.mkOr(Terms), Lt));
    return;
  }
  std::vector<SmtExpr> Lhs;
  Lhs.reserve(Terms.size() + 1);
  Lhs.push_back(Vis);
  Lhs.insert(Lhs.end(), Terms.begin(), Terms.end());
  EC.assertExpr(Ctx.mkImplies(Ctx.mkOr(Lhs), Lt));
}

/// B.2.1's Ordered(A,B) = so(A,B) ∨ wr(A,B) ∨ Arbitration(A,B), with
///   Arbitration(A,B) = ∨_{k,t3} φwr_k(B,t3) ∧ co(A) < co(t3)
///                                ∧ wrpos_k(A) < cut(s_A).
/// \p CoLt(X, Y) builds co(X) < co(Y): a comparison of the quantifier's
/// bound variables in the ∀ body, a constant for its ground instance at
/// the observed order. Constants fold: a constant-true so is returned
/// as is (the pair is ordered outright), so is otherwise constant
/// false, wr is constant false off the plan, writeIncluded is constant
/// true for t0, and a constant co comparison drops its arbitration
/// conjunct (false) or itself (true). Nothing left yields constant
/// false.
template <typename CoLtFn>
SmtExpr ordered(EncodingContext &EC, TxnId A, TxnId B, CoLtFn CoLt) {
  SmtContext &Ctx = EC.Ctx;
  if (EC.isTrue(EC.So[A][B]))
    return EC.So[A][B];
  std::vector<SmtExpr> Arb;
  for (const EncodingContext::JustEntry &E : EC.WwByWriter[B]) {
    if (E.Other == A || !EC.writes(A, E.K))
      continue;
    SmtExpr Lt = CoLt(A, E.Other);
    if (EC.isFalse(Lt))
      continue;
    std::vector<SmtExpr> Parts{E.Wrk};
    if (!EC.isTrue(Lt))
      Parts.push_back(Lt);
    SmtExpr WInc = EC.writeIncluded(A, E.K);
    if (!EC.isTrue(WInc))
      Parts.push_back(WInc);
    Arb.push_back(Ctx.mkAnd(Parts));
  }
  std::vector<SmtExpr> Parts;
  if (EC.orTerm(Parts, EC.Wr[A][B]))
    return EC.Wr[A][B];
  if (!Arb.empty())
    Parts.push_back(Ctx.mkOr(Arb));
  return Ctx.mkOr(Parts);
}

} // namespace

void DeclarePass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  const EncodingPlan &Plan = EC.Plan;
  size_t N = EC.N;
  size_t From = EC.DeltaFrom;

  // Inf: beyond every position — refreshed per streaming extend; it is
  // only referenced from WindowPass boundary domains, BoundaryLinkPass
  // and extraction, which a streaming session runs per query.
  uint32_t MaxPos = 0;
  for (SessionId S = 0; S < H.numSessions(); ++S)
    MaxPos = std::max(MaxPos, H.sessionLastPos(S));
  EC.Inf = static_cast<int64_t>(MaxPos) + 1;

  // Pair tables, grown to N; only pairs with an endpoint in the delta
  // are new. φso is the observed session order, substituted as
  // constants and never declared (nothing needs asserting either).
  // φwr(A,B) is constant false off the plan's skeleton. φhb is not
  // declared at all: a causal query's HbClosurePass aliases it to the
  // constant-folded closure terms.
  EC.So.resize(N);
  EC.Wr.resize(N);
  for (TxnId A = 0; A < N; ++A) {
    EC.So[A].resize(N);
    EC.Wr[A].resize(N);
  }
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = A < From ? From : 0; B < N; ++B) {
      if (A == B)
        continue;
      EC.So[A][B] = Ctx.boolVal(Plan.soPair(A, B));
      EC.Wr[A][B] = Plan.wrPossible(A, B)
                        ? Ctx.boolVar(formatString("wr_%u_%u", A, B))
                        : Ctx.boolVal(false);
    }

  // φwr_k for every (key, writer, reader-of-k) combination with a delta
  // endpoint — a committed transaction never gains reads or writes.
  for (KeyId K : H.keysRead()) {
    std::vector<TxnId> Readers;
    for (const ReadRef &R : H.readsOf(K))
      if (Readers.empty() || Readers.back() != R.Reader)
        Readers.push_back(R.Reader);
    for (TxnId Writer : H.writersOf(K))
      for (TxnId Reader : Readers)
        if (Writer != Reader && (Writer >= From || Reader >= From))
          EC.WrK.emplace(std::make_tuple(K, Writer, Reader),
                         Ctx.boolVar(formatString("wrk_%u_%u_%u", K, Writer,
                                                  Reader)));
  }

  // φchoice for the delta's reads — except the plan's fixed reads,
  // whose equality atoms are substituted as constants.
  for (TxnId T = std::max<size_t>(1, From); T < N; ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind == EventKind::Read) {
        SessionId S = H.txn(T).Session;
        if (Plan.fixedChoice(S, E.Pos))
          continue;
        EC.Choice.emplace(std::make_pair(S, E.Pos),
                          Ctx.intVar(formatString("choice_%u_%u", S,
                                                  E.Pos)));
      }

  // Boundary/cut variables for sessions the delta opened (all of them
  // on the initial encode). Cut is always materialized so the
  // declarations do not depend on the query's boundary mode
  // (BoundaryLinkPass links it per query).
  for (SessionId S = static_cast<SessionId>(EC.Boundary.size());
       S < H.numSessions(); ++S) {
    EC.Boundary.push_back(Ctx.intVar(formatString("boundary_%u", S)));
    EC.Cut.push_back(Ctx.intVar(formatString("cut_%u", S)));
  }

  EC.buildIndexes();
}

void FeasibilityPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  size_t From = EC.DeltaFrom;

  // Everything below is monotone: it stays valid no matter what is
  // appended later, so a streaming session asserts it once per delta.
  // The before-boundary implication and the φwr_k/φwr definitions of a
  // read depend only on its own (fixed) transaction, and inclusion
  // implications are per (writer, read) pair — new pairs only add
  // implications. The non-monotone B.1 families are WindowPass's.

  // --- Read choices: reads strictly before the boundary keep the
  // observed writer, and an included read must read an included write
  // (B.1). A fixed read (the plan) needs neither: t0 is always a
  // feasible writer, so a singleton domain can only be {t0} (and the
  // observed writer is t0) — the before-boundary implication is
  // trivially true, and the inclusion constraint ranges over no foreign
  // writer.
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K)) {
      SessionId S2 = H.txn(R.Reader).Session;
      if (EC.Plan.fixedChoice(S2, R.Pos)) {
        assert(R.Writer == InitTxn && "fixed read with a non-t0 writer");
        continue;
      }

      // i < φboundary(s2) ⇒ φchoice(s2,i) = φobs(s2,i), once per read.
      if (R.Reader >= From)
        EC.assertExpr(Ctx.mkImplies(EC.beforeBoundary(S2, R.Pos),
                                    EC.choiceIs(S2, R.Pos, R.Writer)));

      // φchoice = t1 ∧ i ≤ cut(s2) ⇒ wrpos_k(t1) < cut(s1) — new reads
      // gain the implication for every writer, old reads for new
      // writers.
      for (TxnId W : Writers) {
        if (W == R.Reader || W == InitTxn)
          continue;
        if (W < From && R.Reader < From)
          continue;
        EC.assertExpr(Ctx.mkImplies(
            Ctx.mkAnd(EC.choiceIs(S2, R.Pos, W),
                      EC.eventIncluded(S2, R.Pos)),
            EC.writeIncluded(W, K)));
      }
    }
  }

  // --- φwr_k definition (B.1): true iff some included read of t2 to k
  // chose t1. Fixed reads fold the constant choice conjunct. An old
  // triple's definition is stable (the reader's read positions are
  // fixed).
  for (auto &[KeyTuple, Var] : EC.WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    if (Writer < From && Reader < From)
      continue;
    SessionId S2 = H.txn(Reader).Session;
    std::vector<SmtExpr> Terms;
    for (uint32_t Pos : H.rdPos(Reader, K)) {
      SmtExpr ChoiceAtom = EC.choiceIs(S2, Pos, Writer);
      SmtExpr Included = EC.eventIncluded(S2, Pos);
      if (EC.isTrue(ChoiceAtom))
        Terms.push_back(Included);
      else if (!EC.isFalse(ChoiceAtom))
        Terms.push_back(Ctx.mkAnd(ChoiceAtom, Included));
    }
    EC.assertExpr(Ctx.mkIff(Var, Ctx.mkOr(Terms)));
  }

  // --- φwr(t1,t2) = \/_k φwr_k(t1,t2), for pairs with a delta endpoint
  // (an old pair's φwr_k set is fixed). One sweep over the (ordered)
  // φwr_k table groups the disjuncts per pair in ascending-key order.
  // Pairs off the plan's skeleton are constant false: nothing to
  // define.
  std::vector<std::vector<std::vector<SmtExpr>>> WrTerms(
      N, std::vector<std::vector<SmtExpr>>(N));
  for (auto &[KeyTuple, Var] : EC.WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    (void)K;
    WrTerms[Writer][Reader].push_back(Var);
  }
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = A < From ? From : 0; B < N; ++B) {
      if (A == B || EC.isFalse(EC.Wr[A][B]))
        continue;
      EC.assertExpr(Ctx.mkIff(EC.Wr[A][B], Ctx.mkOr(WrTerms[A][B])));
    }
}

void WindowPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;

  // --- Boundary domain (B.1): a read position of the session, or ∞.
  // Both widen with every streaming extend. The boundary↔cut linkage is
  // query-dependent (Table 1) and asserted by BoundaryLinkPass.
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    std::vector<SmtExpr> Options;
    for (TxnId T : H.sessionTxns(S))
      for (const Event &E : H.txn(T).Events)
        if (E.Kind == EventKind::Read)
          Options.push_back(
              Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(E.Pos)));
    Options.push_back(
        Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(EC.Inf)));
    EC.assertExpr(Ctx.mkOr(Options));
  }

  // --- Choice domain (B.1): every read's choice ranges over the
  // *current* writers of its key. A domain asserted at extend time
  // would wrongly forbid writers appended later. A fixed read's domain
  // is its constant.
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K)) {
      SessionId S2 = H.txn(R.Reader).Session;
      if (EC.Plan.fixedChoice(S2, R.Pos))
        continue;
      std::vector<SmtExpr> Domain;
      for (TxnId W : Writers)
        if (W != R.Reader)
          Domain.push_back(EC.choiceIs(S2, R.Pos, W));
      EC.assertExpr(Ctx.mkOr(Domain));
    }
  }
}

void HbClosurePass::run(EncodingContext &EC) {
  size_t N = EC.N;

  // --- φhb: transitive closure of so ∪ wr (§4.3), encoded by repeated
  // squaring so hb is the *exact* least fixpoint. The paper's recursive
  // equality also admits non-minimal fixpoints; since hb only appears
  // positively in the isolation constraints, the two encodings are
  // sat-equivalent, but the exact closure removes a whole dimension of
  // spurious models the solver would otherwise have to refute. The
  // base constant-folds (so-ordered pairs are true, pairs off the
  // plan's skeleton false), the closure layers fold through, and φhb
  // aliases the closure terms directly. In streaming mode the closure
  // lives in the query's scope: layer variable names are reused across
  // scopes, and each scope re-asserts their (possibly wider)
  // definitions and pops them with the query, so the reuse is benign.
  PairMatrix Base(N, std::vector<SmtExpr>(N));
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B)
      if (A != B)
        Base[A][B] = EC.soWr(A, B);
  EC.Hb = EC.closure(Base, "hb");
#ifndef NDEBUG
  // The folded closure must realize exactly the plan's skeleton
  // reachability: a pair folds to constant false iff it is
  // unreachable in so ∪ wr-possible (EncodingPlan::HbReach is the
  // specification of the fold).
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B)
      if (A != B)
        assert(!EC.isFalse(EC.Hb[A][B]) == EC.Plan.hbPossible(A, B) &&
               "hb closure fold disagrees with the relevance plan");
#endif
}

void BoundaryLinkPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;

  if (!EC.Relaxed) {
    // Strict boundary: the cut *is* the boundary read — the cut
    // variable is pinned to it.
    for (SessionId S = 0; S < H.numSessions(); ++S)
      EC.assertExpr(Ctx.internEq(EC.Cut[S], EC.Boundary[S]));
    return;
  }

  // Relaxed boundary: a boundary at a read extends the cut to the end of
  // the read's transaction (Table 1); a boundary at ∞ leaves everything
  // in. The boundary atoms already exist in the intern tables from the
  // base prefix, so re-entering this pass per query only rebuilds the
  // implication shells.
  auto CutAt = [&](SessionId S, int64_t BoundaryPos, int64_t CutPos) {
    EC.assertExpr(Ctx.mkImplies(
        Ctx.internEq(EC.Boundary[S], Ctx.internIntVal(BoundaryPos)),
        Ctx.internEq(EC.Cut[S], Ctx.internIntVal(CutPos))));
  };
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    for (TxnId T : H.sessionTxns(S)) {
      const Transaction &Txn = H.txn(T);
      for (const Event &E : Txn.Events)
        if (E.Kind == EventKind::Read)
          CutAt(S, E.Pos, Txn.EndPos);
    }
    CutAt(S, EC.Inf, EC.Inf);
  }
}

void ExactStrictPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;

  // B.2.1: ∀φco. ¬IsSerializable(φco). The bound "function" is one
  // integer per transaction since T is finite.
  std::vector<SmtExpr> CoBound;
  for (TxnId T = 0; T < N; ++T)
    CoBound.push_back(Ctx.intVar(formatString("coq_%u", T)));
  auto BoundLt = [&](TxnId X, TxnId Y) {
    return Ctx.mkLt(CoBound[X], CoBound[Y]);
  };

  std::vector<SmtExpr> Conj;
  Conj.push_back(Ctx.mkDistinct(CoBound));
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      SmtExpr Lt = BoundLt(A, B);
      SmtExpr Ord = ordered(EC, A, B, BoundLt);
      // Observed so orders the pair unconditionally: the implication
      // collapses to its conclusion. A constant-false Ord is vacuous.
      if (EC.isTrue(Ord))
        Conj.push_back(Lt);
      else if (!EC.isFalse(Ord))
        Conj.push_back(Ctx.mkImplies(Ord, Lt));
    }
  EC.assertExpr(Ctx.mkForall(CoBound, Ctx.mkNot(Ctx.mkAnd(Conj))));

  SmtExpr Instance = observedOrderInstance(EC);
  if (!EC.isTrue(Instance))
    EC.assertExpr(Instance);
}

SmtExpr ExactStrictPass::observedOrderInstance(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  // With co(t) = t, Distinct holds and every co comparison is a
  // constant: each A < B pair's implication holds outright, and each
  // A > B pair's reduces to ¬Ordered(A,B). The negated conjunction is
  // therefore ∨_{A>B} Ordered(A,B).
  auto ObservedLt = [&](TxnId X, TxnId Y) { return Ctx.boolVal(X < Y); };
  std::vector<SmtExpr> Backward;
  for (TxnId A = 1; A < EC.N; ++A)
    for (TxnId B = 0; B < A; ++B) {
      SmtExpr Ord = ordered(EC, A, B, ObservedLt);
      if (EC.orTerm(Backward, Ord))
        return Ord; // A constant-true backward edge: the instance holds.
    }
  return Ctx.mkOr(Backward);
}

void ApproxRankPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;
  const EncodingPlan &Plan = EC.Plan;

  // B.2.2: free relation variables with integer rank guards that forbid
  // self-justifying derivations (§4.2.2, Fig. 6). Observed-so pairs are
  // pco unconditionally (pco ⊇ so and so is already transitively
  // closed), so φpco(A,B) is substituted by constant true and its
  // entire definitional block — the ww/rw relation variables, their
  // justification disjunctions, the rank variable and its bounds — is
  // never built. A derivation consuming a constant-true (so-grounded)
  // pco edge cannot be self-justifying, so its guard is dropped
  // (Justification::Grounded), which in turn leaves so-pair rank
  // variables entirely unreferenced.
  EC.Pco.assign(N, std::vector<SmtExpr>(N));
  EC.Rank.assign(N, std::vector<SmtExpr>(N));
  PairMatrix Ww(N, std::vector<SmtExpr>(N));
  PairMatrix Rw(N, std::vector<SmtExpr>(N));
  SmtExpr True = Ctx.boolVal(true);
  SmtExpr False = Ctx.boolVal(false);
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      if (Plan.soPair(A, B)) {
        EC.Pco[A][B] = True;
        continue;
      }
      EC.Pco[A][B] = Ctx.boolVar(formatString("pco_%u_%u", A, B));
      EC.Rank[A][B] = Ctx.intVar(formatString("rank_%u_%u", A, B));
    }

  // Ranks only need to order derivations, so N² distinct values always
  // suffice; bounding the domain prunes the unsat search.
  SmtExpr RankMax = Ctx.internIntVal(static_cast<int64_t>(N) * N);
  SmtExpr Zero = Ctx.internIntVal(0);
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B || !EC.Rank[A][B].valid())
        continue;
      EC.assertExpr(Ctx.mkLe(Zero, EC.Rank[A][B]));
      EC.assertExpr(Ctx.mkLe(EC.Rank[A][B], RankMax));
    }

  // The rank guards reuse a small set of comparison atoms heavily: for a
  // fixed A, every justification of (A,B) guards with
  // Rank[A][t3] < Rank[A][B] or Rank[t3][B] < Rank[A][B], and the
  // transitivity terms use the same two shapes. Dense per-A tables make
  // each reuse a plain array load (the generic interning table was
  // measurably slower than Z3's own hash-consing here).
  PairMatrix LtPrefix(N, std::vector<SmtExpr>(N)); // Rank[A][M] < Rank[A][B]
  PairMatrix LtSuffix(N, std::vector<SmtExpr>(N)); // Rank[M][B] < Rank[A][B]
  std::vector<SmtExpr> WwTerms, RwTerms, PcoTerms;
  for (TxnId A = 0; A < N; ++A) {
    for (TxnId M = 0; M < N; ++M) {
      std::fill(LtPrefix[M].begin(), LtPrefix[M].end(), SmtExpr{});
      std::fill(LtSuffix[M].begin(), LtSuffix[M].end(), SmtExpr{});
    }
    auto RankLt = [&](TxnId GA, TxnId GB, TxnId B) {
      // Rank[GA][GB] < Rank[A][B], with (GA,GB) = (A,t3) or (t3,B).
      assert(EC.Rank[GA][GB].valid() && EC.Rank[A][B].valid() &&
             "rank guard over an so pair");
      SmtExpr &Slot = GA == A ? LtPrefix[GB][B] : LtSuffix[GA][B];
      if (!Slot.valid())
        Slot = Ctx.mkLt(EC.Rank[GA][GB], EC.Rank[A][B]);
      return Slot;
    };
    // The paper's "=" form, asserted as a definitional iff: every true
    // ww/rw/pco edge must be justified, and every justified edge is
    // true. (ww/rw/pco occur only positively, in the pco cycle
    // constraint, so the one-directional "edge ⇒ justification" half
    // alone would be sat-equivalent — by rank induction, true edges lie
    // in the least fixpoint — but the encoding does not use that weaker
    // form.) A relation with no justification is constant false.
    auto Define = [&](const char *Name, TxnId B,
                      std::vector<EncodingContext::Justification> Just,
                      std::vector<SmtExpr> &Terms) {
      Terms.clear();
      for (EncodingContext::Justification &J : Just)
        Terms.push_back(J.Grounded ? J.Cond
                                   : Ctx.mkAnd(J.Cond,
                                               RankLt(J.RankA, J.RankB, B)));
      if (Terms.empty())
        return False;
      SmtExpr Var = Ctx.boolVar(formatString("%s_%u_%u", Name, A, B));
      EC.assertExpr(Ctx.mkIff(Var, Ctx.mkOr(Terms)));
      return Var;
    };

    for (TxnId B = 0; B < N; ++B) {
      if (A == B || Plan.soPair(A, B))
        continue;
      Ww[A][B] = Define("ww", B, EC.wwJust(A, B, EC.Pco), WwTerms);
      Rw[A][B] = Define("rw", B, EC.rwJust(A, B, EC.Pco), RwTerms);

      // φpco(A,B) = so ∨ wr ∨ ww ∨ rw ∨ rank-guarded transitivity,
      // with the constant disjuncts folded (so is false here; wr/ww/rw
      // may be constant false) and guards dropped on constant-true
      // transitivity conjuncts.
      PcoTerms.clear();
      for (SmtExpr E : {EC.Wr[A][B], Ww[A][B], Rw[A][B]})
        if (!EC.isFalse(E))
          PcoTerms.push_back(E);
      for (TxnId M = 0; M < N; ++M) {
        if (M == A || M == B)
          continue;
        SmtExpr Pam = EC.Pco[A][M], Pmb = EC.Pco[M][B];
        bool PamTrue = EC.isTrue(Pam), PmbTrue = EC.isTrue(Pmb);
        assert(!(PamTrue && PmbTrue) &&
               "so-transitive midpoint on a non-so pair");
        std::vector<SmtExpr> Parts;
        if (!PamTrue)
          Parts.push_back(Pam);
        if (!PmbTrue)
          Parts.push_back(Pmb);
        if (!PamTrue)
          Parts.push_back(RankLt(A, M, B));
        if (!PmbTrue)
          Parts.push_back(RankLt(M, B, B));
        PcoTerms.push_back(Ctx.mkAnd(Parts));
      }
      EC.assertExpr(Ctx.mkIff(EC.Pco[A][B], Ctx.mkOr(PcoTerms)));
    }
  }

  EC.addCycleConstraint(EC.Pco);
}

void CausalPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;

  // B.3.1: (hb ∪ wwcausal) embeds in a total order φcocausal, with the
  // wwcausal disjunction inlined into the per-pair implication
  // (assertEmbedding) and constant hb folded.
  std::vector<SmtExpr> Co;
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("cocausal_%u", T)));

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      std::vector<SmtExpr> Terms;
      // A constant-true hb forces the order outright; the ww terms are
      // subsumed.
      if (!EC.isTrue(EC.Hb[A][B]))
        for (const EncodingContext::JustEntry &E : EC.WwByWriter[B]) {
          if (E.Other == A || !EC.writes(A, E.K))
            continue;
          SmtExpr HbA3 = EC.Hb[A][E.Other];
          if (EC.isFalse(HbA3))
            continue;
          std::vector<SmtExpr> Parts{E.Wrk};
          if (!EC.isTrue(HbA3))
            Parts.push_back(HbA3);
          SmtExpr WInc = EC.writeIncluded(A, E.K);
          if (!EC.isTrue(WInc))
            Parts.push_back(WInc);
          Terms.push_back(Ctx.mkAnd(Parts));
        }
      assertEmbedding(EC, EC.Hb[A][B], Terms, Ctx.mkLt(Co[A], Co[B]));
    }
}

void ReadAtomicPass::run(EncodingContext &EC) {
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;

  // Read atomic: like B.3.1 but with one-step visibility (so ∪ wr)
  // instead of the hb closure — t3 must not read k from t2 while t1's
  // write to k is directly visible to it. This is the "repeated reads"
  // extension the paper marks as straightforward (§8). The order
  // embeds so ∪ wr rather than hb: a total order containing one
  // contains the other's closure.
  std::vector<SmtExpr> Co;
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("cora_%u", T)));

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      SmtExpr Vis = EC.soWr(A, B);
      std::vector<SmtExpr> Terms;
      if (!EC.isTrue(Vis))
        for (const EncodingContext::JustEntry &E : EC.WwByWriter[B]) {
          if (E.Other == A || !EC.writes(A, E.K))
            continue;
          // One-step visibility folds through the so/wr constants: a
          // constant-true so edge drops the conjunct, a constant-false
          // so ∪ wr kills the term.
          SmtExpr VisA3 = EC.soWr(A, E.Other);
          if (EC.isFalse(VisA3))
            continue;
          std::vector<SmtExpr> Parts{E.Wrk};
          if (!EC.isTrue(VisA3))
            Parts.push_back(VisA3);
          SmtExpr WInc = EC.writeIncluded(A, E.K);
          if (!EC.isTrue(WInc))
            Parts.push_back(WInc);
          Terms.push_back(Ctx.mkAnd(Parts));
        }
      assertEmbedding(EC, Vis, Terms, Ctx.mkLt(Co[A], Co[B]));
    }
}

void ReadCommittedPass::run(EncodingContext &EC) {
  const History &H = EC.H;
  SmtContext &Ctx = EC.Ctx;
  size_t N = EC.N;

  // B.3.2: (hb ∪ wwrc) embeds in a total order φcorc — encoded as
  // so ∪ wr ∪ wwrc, since a total order containing so ∪ wr contains
  // its closure hb.
  std::vector<SmtExpr> Co;
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("corc_%u", T)));

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      SmtExpr Vis = EC.soWr(A, B);
      std::vector<SmtExpr> Terms;
      for (TxnId T3 = 1; T3 < N && !EC.isTrue(Vis); ++T3) {
        if (T3 == A || T3 == B)
          continue;
        const Transaction &Reader = H.txn(T3);
        SessionId S3 = Reader.Session;
        // β at position i reads any key A writes; α at position j > i
        // reads a key both A and B write, from B.
        for (size_t AJ = 0; AJ < Reader.Events.size(); ++AJ) {
          const Event &Alpha = Reader.Events[AJ];
          if (Alpha.Kind != EventKind::Read)
            continue;
          KeyId K = Alpha.Key;
          if (!EC.writes(A, K) || !EC.writes(B, K))
            continue;
          for (size_t BI = 0; BI < AJ; ++BI) {
            const Event &Beta = Reader.Events[BI];
            if (Beta.Kind != EventKind::Read)
              continue;
            if (!EC.writes(A, Beta.Key))
              continue;
            // Fixed reads make the choice atoms constants: fold true
            // conjuncts, drop terms with a false one.
            SmtExpr CBeta = EC.choiceIs(S3, Beta.Pos, A);
            SmtExpr CAlpha = EC.choiceIs(S3, Alpha.Pos, B);
            if (EC.isFalse(CBeta) || EC.isFalse(CAlpha))
              continue;
            std::vector<SmtExpr> Parts;
            if (!EC.isTrue(CBeta))
              Parts.push_back(CBeta);
            if (!EC.isTrue(CAlpha))
              Parts.push_back(CAlpha);
            Parts.push_back(EC.eventIncluded(S3, Alpha.Pos));
            Terms.push_back(Ctx.mkAnd(Parts));
          }
        }
      }
      assertEmbedding(EC, Vis, Terms, Ctx.mkLt(Co[A], Co[B]));
    }
}
