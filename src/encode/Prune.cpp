//===- Prune.cpp - The relevance plan every encoding pass reads ----------===//

#include "encode/Prune.h"

using namespace isopredict;
using namespace isopredict::encode;

EncodingPlan isopredict::encode::computeEncodingPlan(const History &H,
                                                     PlanKind Kind,
                                                     bool FixedChoices) {
  EncodingPlan Plan;
  size_t N = H.numTxns();
  Plan.N = N;
  Plan.Kind = Kind;
  Plan.So = BitRel(N);
  Plan.WrPossible = BitRel(N);

  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B)
      if (A != B && H.so(A, B))
        Plan.So.set(A, B);

  if (Kind == PlanKind::Identity) {
    // Only so is substituted: every other pair stays possible.
    for (TxnId A = 0; A < N; ++A)
      for (TxnId B = 0; B < N; ++B)
        if (A != B)
          Plan.WrPossible.set(A, B);
    Plan.HbReach = Plan.WrPossible;
    return Plan;
  }

  // φwr_k existence, in the same (keysRead, writersOf, readsOf)
  // enumeration DeclarePass uses to build the variable table: a pair
  // without any φwr_k variable can never be wr-related.
  for (KeyId K : H.keysRead())
    for (TxnId Writer : H.writersOf(K))
      for (const ReadRef &R : H.readsOf(K))
        if (Writer != R.Reader)
          Plan.WrPossible.set(Writer, R.Reader);

  Plan.HbReach = Plan.So;
  Plan.HbReach.unionWith(Plan.WrPossible);
  Plan.HbReach.closeTransitively();

  if (!FixedChoices)
    return Plan;

  // Single-writer reads: the choice domain of a read of k by R is
  // writersOf(k) \ {R}, and t0 is always a writer, so the domain is a
  // singleton exactly when no transaction other than R itself writes k
  // (keys never written keep only t0; read-modify-write keys private to
  // R keep only t0 as a *foreign* writer). The read's choice is then
  // forced — and it necessarily equals the observed writer, because the
  // observed writer lies in the domain too.
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &R : H.readsOf(K)) {
      TxnId Single = InitTxn;
      unsigned Domain = 0;
      for (TxnId W : Writers)
        if (W != R.Reader) {
          Single = W;
          ++Domain;
        }
      if (Domain == 1) {
        // t0 is always feasible, so the singleton can only be t0.
        assert(Single == InitTxn && "singleton choice domain is not {t0}");
        Plan.Fixed.emplace(
            EncodingPlan::packSP(H.txn(R.Reader).Session, R.Pos), Single);
      }
    }
  }

  return Plan;
}

void isopredict::encode::extendEncodingPlan(EncodingPlan &Plan,
                                            const History &H) {
  assert(Plan.Fixed.empty() &&
         "extendEncodingPlan is for streaming plans (no fixed choices)");
  assert(H.numTxns() >= Plan.N && "history shrank under the plan");
#ifndef NDEBUG
  EncodingPlan Old = Plan;
#endif
  Plan = computeEncodingPlan(H, Plan.Kind, /*FixedChoices=*/false);
#ifndef NDEBUG
  // So and WrPossible must be monotone over the already-encoded prefix:
  // the delta passes rely on existing pair constants/variables staying
  // valid and only ever *add* pairs.
  for (TxnId A = 0; A < Old.N; ++A)
    for (TxnId B = 0; B < Old.N; ++B) {
      assert(Old.So.test(A, B) == Plan.So.test(A, B) &&
             "so changed for an already-encoded pair");
      assert(Old.WrPossible.test(A, B) == Plan.WrPossible.test(A, B) &&
             "wr-possible changed for an already-encoded pair");
    }
#endif
}
