//===- EncodingContext.cpp - Shared state of the encoding pipeline -------===//

#include "encode/EncodingContext.h"

#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::encode;

namespace {

/// Injective packings for the atom-cache keys. The asserts bound the
/// realistic id ranges (histories have dozens of transactions and at
/// most a few thousand keys/positions).
uint64_t packSPW(SessionId S, uint32_t Pos, TxnId W) {
  assert(S < (1u << 12) && Pos < (1u << 26) && W < (1u << 26) &&
         "atom-cache key overflow");
  return (static_cast<uint64_t>(S) << 52) |
         (static_cast<uint64_t>(Pos) << 26) | W;
}

uint64_t packSP(SessionId S, uint32_t Pos) {
  return (static_cast<uint64_t>(S) << 32) | Pos;
}

uint64_t packTK(TxnId T, KeyId K) {
  return (static_cast<uint64_t>(T) << 32) | K;
}

} // namespace

PairMatrix isopredict::encode::defineClosure(SmtContext &Ctx,
                                             SmtSolver &Solver,
                                             const PairMatrix &Base,
                                             const char *Prefix, bool Fold,
                                             uint64_t *PrunedVars,
                                             uint64_t *PrunedLits) {
  size_t N = Base.size();
  size_t Layers = 1;
  while ((size_t(1) << Layers) < N)
    ++Layers;
  uint64_t PV = 0, PL = 0;
  PairMatrix Prev = Base;
  std::vector<SmtExpr> Terms;
  Terms.reserve(N);
  for (size_t L = 0; L < Layers; ++L) {
    PairMatrix Next(N, std::vector<SmtExpr>(N));
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B) {
        if (A == B)
          continue;
        if (Fold && Ctx.isTrue(Prev[A][B])) {
          // A constant-true path stays true through every later layer.
          Next[A][B] = Prev[A][B];
          ++PV;
          continue;
        }
        Terms.clear();
        bool True = false;
        if (Fold && Ctx.isFalse(Prev[A][B]))
          ++PL;
        else
          Terms.push_back(Prev[A][B]);
        for (TxnId M = 0; M < N; ++M) {
          if (M == A || M == B)
            continue;
          if (!Fold) {
            Terms.push_back(Ctx.mkAnd(Prev[A][M], Prev[M][B]));
            continue;
          }
          SmtExpr Lhs = Prev[A][M], Rhs = Prev[M][B];
          if (Ctx.isFalse(Lhs) || Ctx.isFalse(Rhs)) {
            PL += 2; // The whole two-atom conjunct is unsatisfiable.
            continue;
          }
          if (Ctx.isTrue(Lhs) && Ctx.isTrue(Rhs)) {
            True = true;
            break;
          }
          if (Ctx.isTrue(Lhs)) {
            Terms.push_back(Rhs);
            ++PL;
          } else if (Ctx.isTrue(Rhs)) {
            Terms.push_back(Lhs);
            ++PL;
          } else {
            Terms.push_back(Ctx.mkAnd(Lhs, Rhs));
          }
        }
        if (Fold && (True || Terms.empty() || Terms.size() == 1)) {
          // Constant or pass-through: no layer variable, no definition.
          Next[A][B] = True ? Ctx.boolVal(true)
                            : Terms.empty() ? Ctx.boolVal(false) : Terms[0];
          ++PV;
          continue;
        }
        SmtExpr Var =
            Ctx.boolVar(formatString("%s_l%zu_%u_%u", Prefix, L, A, B));
        Solver.add(Ctx.mkIff(Var, Ctx.mkOr(Terms)));
        Next[A][B] = Var;
      }
    Prev = std::move(Next);
  }
  if (PrunedVars)
    *PrunedVars += PV;
  if (PrunedLits)
    *PrunedLits += PL;
  return Prev;
}

PairMatrix EncodingContext::makePairMatrix(const char *Name, bool IsInt) {
  PairMatrix M(N, std::vector<SmtExpr>(N));
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B) {
      if (A == B)
        continue;
      std::string VarName = formatString("%s_%u_%u", Name, A, B);
      M[A][B] = IsInt ? Ctx.intVar(VarName) : Ctx.boolVar(VarName);
    }
  return M;
}

SmtExpr &EncodingContext::wrkVar(KeyId K, TxnId Writer, TxnId Reader) {
  auto It = WrKFast.find(packKWR(K, Writer, Reader));
  assert(It != WrKFast.end() && "missing wr_k variable");
  return It->second;
}

bool EncodingContext::hasWrk(KeyId K, TxnId Writer, TxnId Reader) const {
  return WrKFast.count(packKWR(K, Writer, Reader)) != 0;
}

SmtExpr EncodingContext::choiceIs(SessionId S, uint32_t Pos, TxnId W) {
  // A fixed read (EncodingPlan::Fixed) has no choice variable: the
  // equality is a constant, folded by the caller.
  if (Plan)
    if (const TxnId *F = Plan->fixedChoice(S, Pos))
      return Ctx.boolVal(*F == W);
  auto [It, New] = ChoiceAtomCache.try_emplace(packSPW(S, Pos, W));
  if (New)
    It->second = Ctx.mkEq(Choice.at({S, Pos}), Ctx.internIntVal(W));
  return It->second;
}

SmtExpr EncodingContext::eventIncluded(SessionId S, uint32_t Pos) {
  auto [It, New] = EventInclCache.try_emplace(packSP(S, Pos));
  if (New)
    It->second = Ctx.mkLe(Ctx.internIntVal(Pos), Cut[S]);
  return It->second;
}

SmtExpr EncodingContext::beforeBoundary(SessionId S, uint32_t Pos) {
  auto [It, New] = BeforeBoundaryCache.try_emplace(packSP(S, Pos));
  if (New)
    It->second = Ctx.mkLt(Ctx.internIntVal(Pos), Boundary[S]);
  return It->second;
}

SmtExpr EncodingContext::writeIncluded(TxnId T, KeyId K) {
  if (T == InitTxn)
    return Ctx.boolVal(true);
  auto [It, New] = WriteInclCache.try_emplace(packTK(T, K));
  if (New)
    It->second = Ctx.mkLt(Ctx.internIntVal(H.wrPos(T, K)),
                          Cut[H.txn(T).Session]);
  return It->second;
}

void EncodingContext::buildIndexes() {
  NumKeys = H.numKeys();
  WritesBit.assign(N * NumKeys, 0);
  for (TxnId T = 0; T < N; ++T)
    for (KeyId K = 0; K < NumKeys; ++K)
      if (H.writesKey(T, K))
        WritesBit[T * NumKeys + K] = 1;

  WrKFast.reserve(WrK.size() * 2);
  for (auto &[KeyTuple, Var] : WrK) {
    auto [K, Writer, Reader] = KeyTuple;
    assert(K < (1u << 22) && Writer < (1u << 21) && Reader < (1u << 21) &&
           "wr_k key overflow");
    WrKFast.emplace(packKWR(K, Writer, Reader), Var);
  }

  // Justification indexes, in the exact traversal order the passes
  // consume (keysRead outer, readsOf/writersOf inner).
  WwByWriter.assign(N, {});
  RwByReader.assign(N, {});
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K))
      for (TxnId W : Writers)
        if (W != R.Reader && hasWrk(K, W, R.Reader))
          WwByWriter[W].push_back({K, R.Reader, wrkVar(K, W, R.Reader)});
    for (TxnId W : Writers)
      for (const ReadRef &R : H.readsOf(K)) {
        // One rw entry per *reader*, not per read occurrence: the rw
        // enumeration walks writersOf(k) for each reading transaction.
        if (W == R.Reader || !hasWrk(K, W, R.Reader))
          continue;
        std::vector<JustEntry> &Rw = RwByReader[R.Reader];
        if (!Rw.empty() && Rw.back().K == K && Rw.back().Other == W)
          continue;
        Rw.push_back({K, W, wrkVar(K, W, R.Reader)});
      }
  }
}

std::vector<EncodingContext::Justification>
EncodingContext::wwJust(TxnId A, TxnId B, const PairMatrix &P) {
  // φww(A,B): B's write to k is read by some t3 that pco-follows A, and
  // A's write to k lies inside its session's boundary (App. B.2.2).
  std::vector<Justification> Out;
  for (const JustEntry &E : WwByWriter[B]) {
    if (E.Other == A || !writes(A, E.K))
      continue;
    if (pruning()) {
      // Fold constant conjuncts: a constant-false pco edge kills the
      // justification; a constant-true one grounds the derivation — no
      // rank guard needed (Justification::Grounded) — and writeIncluded
      // is constant true for t0's writes.
      SmtExpr Edge = P[A][E.Other];
      if (isFalse(Edge)) {
        notePrunedLits(3);
        continue;
      }
      std::vector<SmtExpr> Conj{E.Wrk};
      bool Grounded = isTrue(Edge);
      if (Grounded)
        notePrunedLits(1); // The folded pco conjunct. (The rank guard a
                           // grounded justification also sheds is
                           // counted by the rank pass.)
      else
        Conj.push_back(Edge);
      SmtExpr WInc = writeIncluded(A, E.K);
      if (isTrue(WInc))
        notePrunedLits(1);
      else
        Conj.push_back(WInc);
      Out.push_back({Ctx.mkAnd(Conj), A, E.Other, Grounded});
      continue;
    }
    Out.push_back({Ctx.mkAnd({E.Wrk, P[A][E.Other], writeIncluded(A, E.K)}),
                   A, E.Other});
  }
  return Out;
}

std::vector<EncodingContext::Justification>
EncodingContext::rwJust(TxnId A, TxnId B, const PairMatrix &P) {
  // φrw(A,B): A reads k from some t3, B also writes k and pco-follows
  // t3, and B's write to k lies inside its session's boundary.
  std::vector<Justification> Out;
  if (!Opts.EnableRw)
    return Out;
  for (const JustEntry &E : RwByReader[A]) {
    if (E.Other == B || !writes(B, E.K))
      continue;
    if (pruning()) {
      SmtExpr Edge = P[E.Other][B];
      if (isFalse(Edge)) {
        notePrunedLits(3);
        continue;
      }
      std::vector<SmtExpr> Conj{E.Wrk};
      bool Grounded = isTrue(Edge);
      if (Grounded)
        notePrunedLits(1); // Pco conjunct only; see wwJust.
      else
        Conj.push_back(Edge);
      SmtExpr WInc = writeIncluded(B, E.K);
      if (isTrue(WInc))
        notePrunedLits(1);
      else
        Conj.push_back(WInc);
      Out.push_back({Ctx.mkAnd(Conj), E.Other, B, Grounded});
      continue;
    }
    Out.push_back({Ctx.mkAnd({E.Wrk, P[E.Other][B], writeIncluded(B, E.K)}),
                   E.Other, B});
  }
  return Out;
}

void EncodingContext::addCycleConstraint(const PairMatrix &P) {
  std::vector<SmtExpr> CycleTerms;
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = A + 1; B < N; ++B) {
      if (!pruning()) {
        CycleTerms.push_back(Ctx.mkAnd(P[A][B], P[B][A]));
        continue;
      }
      // Folded: a constant-false side kills the term; a constant-true
      // side (an so edge) reduces it to the other side. Both sides true
      // cannot happen for pco ⊇ so (so is acyclic), but an empty
      // disjunction still asserts false — "no cycle is possible" is a
      // legitimate (unsat) outcome.
      SmtExpr Fwd = P[A][B], Bwd = P[B][A];
      if (isFalse(Fwd) || isFalse(Bwd)) {
        notePrunedLits(2);
        continue;
      }
      if (isTrue(Fwd) && isTrue(Bwd)) {
        CycleTerms.push_back(Ctx.boolVal(true));
      } else if (isTrue(Fwd)) {
        notePrunedLits(1);
        CycleTerms.push_back(Bwd);
      } else if (isTrue(Bwd)) {
        notePrunedLits(1);
        CycleTerms.push_back(Fwd);
      } else {
        CycleTerms.push_back(Ctx.mkAnd(Fwd, Bwd));
      }
    }
  assertExpr(Ctx.mkOr(CycleTerms));
}
