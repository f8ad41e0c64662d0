//===- Checkers.cpp - Isolation-level checkers ----------------*- C++ -*-===//

#include "checker/Checkers.h"

#include "encode/Serializable.h"
#include "smt/Smt.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <string>

using namespace isopredict;

const char *isopredict::toString(IsolationLevel Level) {
  switch (Level) {
  case IsolationLevel::Serializable:
    return "serializable";
  case IsolationLevel::Causal:
    return "causal";
  case IsolationLevel::ReadAtomic:
    return "read-atomic";
  case IsolationLevel::ReadCommitted:
    return "rc";
  }
  return "?";
}

std::optional<IsolationLevel>
isopredict::isolationLevelFromString(std::string_view Name) {
  std::string N = toLowerAscii(Name);
  if (N == "causal")
    return IsolationLevel::Causal;
  if (N == "rc" || N == "read-committed")
    return IsolationLevel::ReadCommitted;
  if (N == "ra" || N == "read-atomic")
    return IsolationLevel::ReadAtomic;
  if (N == "serializable")
    return IsolationLevel::Serializable;
  return std::nullopt;
}

const char *isopredict::isolationLevelValidNames() {
  return "causal, rc, ra";
}

const char *isopredict::toString(SerResult R) {
  switch (R) {
  case SerResult::Serializable:
    return "serializable";
  case SerResult::Unserializable:
    return "unserializable";
  case SerResult::Unknown:
    return "unknown";
  }
  return "unknown";
}

std::optional<SerResult>
isopredict::serResultFromString(std::string_view Name) {
  std::string N = toLowerAscii(Name);
  if (N == "serializable")
    return SerResult::Serializable;
  if (N == "unserializable")
    return SerResult::Unserializable;
  if (N == "unknown")
    return SerResult::Unknown;
  return std::nullopt;
}

//===----------------------------------------------------------------------===
// Concrete relations
//===----------------------------------------------------------------------===

BitRel isopredict::soRel(const History &H) {
  size_t N = H.numTxns();
  BitRel R(N);
  for (TxnId T = 1; T < N; ++T)
    R.set(InitTxn, T);
  for (SessionId S = 0; S < H.numSessions(); ++S) {
    const std::vector<TxnId> &Txns = H.sessionTxns(S);
    for (size_t I = 0; I < Txns.size(); ++I)
      for (size_t J = I + 1; J < Txns.size(); ++J)
        R.set(Txns[I], Txns[J]);
  }
  return R;
}

BitRel isopredict::wrRel(const History &H) {
  BitRel R(H.numTxns());
  for (TxnId T = 1; T < H.numTxns(); ++T)
    for (const Event &E : H.txn(T).Events)
      if (E.Kind == EventKind::Read && E.Writer != T)
        R.set(E.Writer, T);
  return R;
}

BitRel isopredict::hbRel(const History &H) {
  BitRel R = soRel(H);
  R.unionWith(wrRel(H));
  R.closeTransitively();
  return R;
}

BitRel isopredict::wwCausalRel(const History &H, const BitRel &Hb) {
  // wwcausal(t1,t2): ∃k, t1 and t2 write k, ∃t3 ∉ {t1,t2} with
  // wr_k(t2,t3) ∧ hb(t1,t3).   (Eq. 2)
  size_t N = H.numTxns();
  BitRel Ww(N);
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &Read : H.readsOf(K)) {
      TxnId T2 = Read.Writer;
      TxnId T3 = Read.Reader;
      for (TxnId T1 : Writers) {
        if (T1 == T2 || T1 == T3)
          continue;
        if (Hb.test(T1, T3))
          Ww.set(T1, T2);
      }
    }
  }
  return Ww;
}

BitRel isopredict::wwRcRel(const History &H) {
  // wwrc(t1,t2): ∃k, t1 and t2 write k, ∃ events β before α in a reader
  // transaction t3 with α reading k from t2 and β reading any key from
  // t1.   (Eq. 4)
  size_t N = H.numTxns();
  BitRel Ww(N);
  for (TxnId T3 = 1; T3 < N; ++T3) {
    const Transaction &Reader = H.txn(T3);
    for (size_t AI = 0; AI < Reader.Events.size(); ++AI) {
      const Event &Alpha = Reader.Events[AI];
      if (Alpha.Kind != EventKind::Read)
        continue;
      TxnId T2 = Alpha.Writer;
      for (size_t BI = 0; BI < AI; ++BI) {
        const Event &Beta = Reader.Events[BI];
        if (Beta.Kind != EventKind::Read)
          continue;
        TxnId T1 = Beta.Writer;
        if (T1 == T2 || T1 == T3 || T2 == T3)
          continue;
        if (H.writesKey(T1, Alpha.Key))
          Ww.set(T1, T2);
      }
    }
  }
  return Ww;
}

BitRel isopredict::wwRaRel(const History &H) {
  // wwra(t1,t2): ∃k, t1 and t2 write k, ∃t3 ∉ {t1,t2} with wr_k(t2,t3)
  // and t1 directly visible to t3 (so or wr).
  size_t N = H.numTxns();
  BitRel So = soRel(H);
  BitRel Wr = wrRel(H);
  BitRel Ww(N);
  for (KeyId K : H.keysRead()) {
    const std::vector<TxnId> &Writers = H.writersOf(K);
    for (const ReadRef &Read : H.readsOf(K)) {
      TxnId T2 = Read.Writer;
      TxnId T3 = Read.Reader;
      for (TxnId T1 : Writers) {
        if (T1 == T2 || T1 == T3)
          continue;
        if (So.test(T1, T3) || Wr.test(T1, T3))
          Ww.set(T1, T2);
      }
    }
  }
  return Ww;
}

//===----------------------------------------------------------------------===
// Level checks
//===----------------------------------------------------------------------===

bool isopredict::isReadAtomic(const History &H) {
  BitRel Hb = hbRel(H);
  if (Hb.hasCycleClosed())
    return false;
  BitRel G = Hb;
  G.unionWith(wwRaRel(H));
  return !G.isCyclic();
}

bool isopredict::isCausal(const History &H) {
  BitRel Hb = hbRel(H);
  if (Hb.hasCycleClosed())
    return false;
  BitRel G = Hb;
  G.unionWith(wwCausalRel(H, Hb));
  return !G.isCyclic();
}

bool isopredict::isReadCommitted(const History &H) {
  BitRel Hb = hbRel(H);
  if (Hb.hasCycleClosed())
    return false;
  BitRel G = Hb;
  G.unionWith(wwRcRel(H));
  return !G.isCyclic();
}

SerResult isopredict::checkSerializableSmt(const History &H,
                                           unsigned TimeoutMs) {
  // The constraint system lives in src/encode/Serializable.cpp, on the
  // same interning/batching utilities as the prediction pipeline. The
  // query is small and quantifier-free, so it runs on the plain SMT
  // kernel: the combined solver's tactic set-up would cost more than
  // the search.
  SmtContext Ctx;
  SmtSolver Solver(Ctx, SolverKind::Kernel);
  Solver.setTimeoutMs(TimeoutMs);
  encode::encodeSerializableCo(H, Ctx, Solver);

  switch (Solver.check()) {
  case SmtResult::Sat:
    return SerResult::Serializable;
  case SmtResult::Unsat:
    return SerResult::Unserializable;
  case SmtResult::Unknown:
    return SerResult::Unknown;
  }
  return SerResult::Unknown;
}

/// Saturates pco = so ∪ wr ∪ ww ∪ rw to its least fixpoint and returns
/// the *unclosed* edge relation (so cycle witnesses are real paths, not
/// closure self-loops).
static BitRel saturatePco(const History &H) {
  // Least fixpoint: start from so ∪ wr and add ww/rw edges justified by
  // the current closure until nothing changes.
  BitRel R = soRel(H);
  R.unionWith(wrRel(H));

  while (true) {
    BitRel Closed = R;
    Closed.closeTransitively();
    bool Added = false;

    for (KeyId K : H.keysRead()) {
      const std::vector<TxnId> &Writers = H.writersOf(K);
      for (const ReadRef &Read : H.readsOf(K)) {
        TxnId Tw = Read.Writer;  // The read's writer.
        TxnId Tr = Read.Reader;  // The reading transaction.
        for (TxnId Other : Writers) {
          // ww(Other, Tw): Other writes k, wr_k(Tw, Tr), pco(Other, Tr).
          if (Other != Tw && Other != Tr && Closed.test(Other, Tr) &&
              !R.test(Other, Tw)) {
            R.set(Other, Tw);
            Added = true;
          }
          // rw(Tr, Other): Tr reads k from Tw, Other writes k,
          // pco(Tw, Other).
          if (Other != Tr && Other != Tw && Closed.test(Tw, Other) &&
              !R.test(Tr, Other)) {
            R.set(Tr, Other);
            Added = true;
          }
        }
      }
    }
    if (!Added)
      return R;
  }
}

BitRel isopredict::pcoRel(const History &H) {
  BitRel R = saturatePco(H);
  R.closeTransitively();
  return R;
}

std::optional<std::vector<TxnId>> isopredict::pcoCycle(const History &H) {
  // Prefer a cycle avoiding t0: arbitration cycles through the initial
  // state are correct but less readable than the paper's figures.
  BitRel R = saturatePco(H);
  BitRel NoInit = R;
  for (TxnId T = 1; T < H.numTxns(); ++T) {
    NoInit.clear(InitTxn, T);
    NoInit.clear(T, InitTxn);
  }
  if (auto Cycle = NoInit.findCycle())
    return Cycle;
  return R.findCycle();
}

std::optional<bool> isopredict::bruteForceSerializable(const History &H) {
  size_t N = H.numTxns();
  if (N - 1 > 9)
    return std::nullopt;

  std::vector<TxnId> Order;
  for (TxnId T = 1; T < N; ++T)
    Order.push_back(T);
  std::sort(Order.begin(), Order.end());

  BitRel So = soRel(H);
  do {
    // Commit order = t0, Order[0], Order[1], ...
    std::vector<uint32_t> PosOf(N, 0);
    for (size_t I = 0; I < Order.size(); ++I)
      PosOf[Order[I]] = static_cast<uint32_t>(I + 1);

    bool Ok = true;
    // Session order must be respected.
    for (TxnId A = 1; A < N && Ok; ++A)
      for (TxnId B = 1; B < N && Ok; ++B)
        if (A != B && So.test(A, B) && PosOf[A] > PosOf[B])
          Ok = false;
    // Every read observes the most recent preceding write to its key.
    for (TxnId T = 1; T < N && Ok; ++T) {
      for (const Event &E : H.txn(T).Events) {
        if (E.Kind != EventKind::Read)
          continue;
        if (PosOf[E.Writer] >= PosOf[T]) {
          Ok = false;
          break;
        }
        for (TxnId W : H.writersOf(E.Key)) {
          if (W != E.Writer && W != T && PosOf[W] > PosOf[E.Writer] &&
              PosOf[W] < PosOf[T]) {
            Ok = false;
            break;
          }
        }
        if (!Ok)
          break;
      }
    }
    if (Ok)
      return true;
  } while (std::next_permutation(Order.begin(), Order.end()));
  return false;
}

bool isopredict::satisfiesLevel(const History &H, IsolationLevel Level,
                                unsigned TimeoutMs) {
  switch (Level) {
  case IsolationLevel::Serializable:
    return checkSerializableSmt(H, TimeoutMs) == SerResult::Serializable;
  case IsolationLevel::Causal:
    return isCausal(H);
  case IsolationLevel::ReadAtomic:
    return isReadAtomic(H);
  case IsolationLevel::ReadCommitted:
    return isReadCommitted(H);
  }
  return false;
}
