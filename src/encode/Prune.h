//===- Prune.h - Relevance analysis for formula minimization --*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relevance analysis behind PredictOptions::PruneFormula: per-pass
/// attribution (EncodingStats::Passes, bench/micro_encoding) shows ~95%
/// of constraint-generation wall-clock inside libz3 — ~1/3 term
/// hash-consing, ~2/3 per-assert preprocessing — so the only remaining
/// generation lever is a *smaller formula*. An EncodingPlan is computed
/// once per EncodingContext (i.e. once per one-shot query, or once per
/// PredictSession) from the observed history alone, and every encoding
/// pass consults it to skip declarations and assertions that no model
/// can ever distinguish:
///
///  - φso(t1,t2) is the observed session order, asserted verbatim by
///    FeasibilityPass — under the plan the pair variables are never
///    declared and the constants are substituted everywhere instead.
///  - φwr(t1,t2) can only hold when some φwr_k(t1,t2) exists (t1 writes
///    a key t2 reads); all other pair variables are constant false.
///  - φhb is the transitive closure of so ∪ wr: pairs unreachable in
///    that skeleton are constant false, so-ordered pairs constant true,
///    and the closure-by-squaring layers constant-fold through both.
///  - A read whose choice domain is a single feasible writer (its key
///    has no other transactional writer — e.g. keys only the reading
///    transaction itself writes, or keys never written at all, whose
///    sole justifying write is t0's initial state) gets no φchoice
///    atom: the equality is substituted as a constant at every use.
///
/// Downstream, the strategy and isolation passes fold those constants
/// out of their justification terms, drop rank guards on derivations
/// grounded in constant pco edges, and inline the definitional ww
/// relation variables of the B.3 embeddings. The pruned encoding is
/// deliberately *not* bit-identical to the default one — it is
/// validated as sat/unsat-equivalent against the golden fixtures, with
/// replay validation of every Sat model (tests/encode_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENCODE_PRUNE_H
#define ISOPREDICT_ENCODE_PRUNE_H

#include "history/BitRel.h"
#include "history/History.h"

#include <unordered_map>

namespace isopredict {
namespace encode {

/// What the relevance analysis decided for one observed history. Plain
/// data: EncodingContext owns one when pruning is on, and the passes
/// read it. Query-invariant by construction (it depends only on the
/// history), so a PredictSession computes it once and shares it across
/// every query's solver scope.
struct EncodingPlan {
  size_t N = 0;

  /// Observed session order: so(A,B) pair variables are substituted by
  /// constants (FeasibilityPass asserts them verbatim anyway).
  BitRel So;

  /// Pairs (A,B) for which some φwr_k(A,B) variable exists — A writes a
  /// key B reads. Everywhere else φwr(A,B) is constant false.
  BitRel WrPossible;

  /// Reachability in the hb skeleton (transitive closure of
  /// So ∪ WrPossible): an upper bound on φhb. This is the
  /// *specification* of what the constant-folded hb closure
  /// (defineClosure's Fold mode) produces — unreachable pairs fold to
  /// constant false, so-ordered pairs to constant true — and
  /// FeasibilityPass cross-checks the fold against it in debug builds;
  /// the unit tests pin the rule on hand-built histories.
  BitRel HbReach;

  /// Reads whose choice domain is a single feasible writer, keyed by
  /// packed (session, position): no φchoice atom is declared, and
  /// choiceIs()/extraction substitute the constant.
  std::unordered_map<uint64_t, TxnId> Fixed;

  static uint64_t packSP(SessionId S, uint32_t Pos) {
    return (static_cast<uint64_t>(S) << 32) | Pos;
  }

  bool soPair(TxnId A, TxnId B) const { return So.test(A, B); }
  bool wrPossible(TxnId A, TxnId B) const { return WrPossible.test(A, B); }
  bool hbPossible(TxnId A, TxnId B) const { return HbReach.test(A, B); }

  /// The fixed writer of the read at (\p S, \p Pos), or nullptr when
  /// the read's choice is free.
  const TxnId *fixedChoice(SessionId S, uint32_t Pos) const {
    auto It = Fixed.find(packSP(S, Pos));
    return It == Fixed.end() ? nullptr : &It->second;
  }
};

/// Runs the relevance analysis on \p H. Cheap relative to encoding: two
/// dense relations, one Warshall closure, and one sweep over the per-key
/// read/write indexes. \p FixedChoices off (streaming contexts) skips
/// the single-writer rule: it is the one rule that is not monotone
/// under history extension — a later transaction writing the key would
/// un-fix a read whose constant is already baked into asserted clauses.
EncodingPlan computeEncodingPlan(const History &H, bool FixedChoices = true);

/// Extends \p Plan in place for transactions appended to \p H since the
/// plan was (last) computed. So and WrPossible are monotone under
/// extension — committed transactions never gain events, so no existing
/// pair changes value and only pairs involving new transactions are
/// added (debug-asserted); HbReach is re-closed over the grown skeleton
/// (old pairs may newly connect through new transactions, which is why
/// streaming encodes hb per causal query, not in the base prefix).
/// Streaming plans carry no Fixed entries, so there is nothing to
/// invalidate.
void extendEncodingPlan(EncodingPlan &Plan, const History &H);

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_PRUNE_H
