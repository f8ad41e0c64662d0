//===- Serializable.cpp - ∃co serializability encoding -------------------===//

#include "encode/Serializable.h"

#include "checker/Checkers.h"
#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::encode;

void isopredict::encode::encodeSerializableCo(const History &H,
                                              SmtContext &Ctx,
                                              SmtSolver &Solver) {
  size_t N = H.numTxns();
  // Verdict-only query: no model is extracted, so the whole system goes
  // to Z3 as a single batched assert (SmtSolver::addAll).
  std::vector<SmtExpr> Asserts;

  std::vector<SmtExpr> Co;
  Co.reserve(N);
  for (TxnId T = 0; T < N; ++T)
    Co.push_back(Ctx.intVar(formatString("co_%u", T)));

  if (N >= 2)
    Asserts.push_back(Ctx.mkDistinct(Co));

  // hb ⊆ co: it suffices to order the so ∪ wr generators.
  BitRel So = soRel(H);
  BitRel Wr = wrRel(H);
  for (TxnId A = 0; A < N; ++A)
    for (TxnId B = 0; B < N; ++B)
      if (A != B && (So.test(A, B) || Wr.test(A, B)))
        Asserts.push_back(Ctx.internLt(Co[A], Co[B]));

  // Arbitration (Eq. 1): for writers t1,t2 of k and wr_k(t2,t3):
  // co(t1) < co(t3) ⇒ co(t1) < co(t2). The same (t1,t3)/(t1,t2)
  // comparison atoms recur across keys and reads, hence the interned
  // constructors.
  for (KeyId K : H.keysRead()) {
    for (const ReadRef &Read : H.readsOf(K)) {
      TxnId T2 = Read.Writer;
      TxnId T3 = Read.Reader;
      for (TxnId T1 : H.writersOf(K)) {
        if (T1 == T2 || T1 == T3)
          continue;
        Asserts.push_back(Ctx.mkImplies(Ctx.internLt(Co[T1], Co[T3]),
                                        Ctx.internLt(Co[T1], Co[T2])));
      }
    }
  }

  Solver.addAll(Asserts);
}
