//===- streaming_test.cpp - Streaming prediction tests --------*- C++ -*-===//
//
// The streaming contract (PredictSession::Options::Streaming):
//  - with a window covering the whole trace, streaming query outcomes
//    equal one-shot predict() on the full history (the soundness
//    anchor);
//  - extending by deltas and re-observing from scratch encode the same
//    window and produce the same outcomes, eviction included;
//  - the window sub-history is a deterministic function of the final
//    history (byte-identical traces either way).
// Streaming encodings are sat-equivalent, never bit-identical: these
// tests compare outcomes, not literals or models.
//
//===----------------------------------------------------------------------===//

#include "predict/PredictSession.h"

#include "apps/AppFramework.h"
#include "checker/Checkers.h"
#include "engine/Executor.h"
#include "history/TraceIO.h"
#include "obs/Metrics.h"
#include "predict/Predict.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace isopredict;
using namespace isopredict::testutil;

namespace {

/// Shared replay helpers (History.h): prefixOf/deltaOf are the
/// library's historyPrefix/historyDelta under the test's older names.
History prefixOf(const History &Full, TxnId Last) {
  return historyPrefix(Full, Last);
}

History deltaOf(const History &Base, const History &Full, TxnId First) {
  return historyDelta(Base, Full, First);
}

History observeApp(const char *Name, const WorkloadConfig &Cfg,
                   uint64_t StoreSeed) {
  auto App = makeApplication(Name);
  EXPECT_NE(App, nullptr);
  DataStore::Options O;
  O.Mode = StoreMode::RandomWeak;
  O.Level = IsolationLevel::Causal;
  O.Seed = StoreSeed;
  DataStore Store(O);
  return WorkloadRunner::run(*App, Store, Cfg).Hist;
}

PredictSession::QueryOptions queryOpts(IsolationLevel L, Strategy S) {
  PredictSession::QueryOptions Q;
  Q.Level = L;
  Q.Strat = S;
  Q.TimeoutMs = 60000;
  return Q;
}

PredictOptions oneShotOpts(IsolationLevel L, Strategy S) {
  PredictOptions O;
  O.Level = L;
  O.Strat = S;
  O.TimeoutMs = 60000;
  return O;
}

const IsolationLevel Levels[] = {IsolationLevel::Causal,
                                 IsolationLevel::ReadAtomic,
                                 IsolationLevel::ReadCommitted};
const Strategy Strats[] = {Strategy::ApproxRelaxed, Strategy::ApproxStrict,
                           Strategy::ExactStrict};

struct Canned {
  const char *Name;
  History H;
};

std::vector<Canned> cannedHistories() {
  return {{"deposit", depositObserved()},
          {"depositUnser", depositUnserializable()},
          {"crossRead", crossReadObserved()},
          {"bankDivergence", bankDivergenceObserved()},
          {"selfJustify", selfJustifyTrap()}};
}

} // namespace

// W >= trace length: streaming outcomes must equal one-shot predict()
// on the full history, across the fixture grid, under the default
// (relevance) plan and the identity plan.
TEST(Streaming, FullWindowMatchesPredict) {
  for (const Canned &C : cannedHistories()) {
    for (bool Prune : {false, true}) {
      PredictSession::Options SO;
      SO.Streaming = true;
      SO.Window = 0; // Unbounded: always covers the trace.
      SO.PruneFormula = Prune;
      PredictSession S(C.H, SO);
      for (IsolationLevel L : Levels)
        for (Strategy St : Strats) {
          Prediction Ref = predict(C.H, oneShotOpts(L, St));
          Prediction Got = S.query(queryOpts(L, St));
          EXPECT_EQ(Got.Result, Ref.Result)
              << C.Name << " level=" << toString(L)
              << " strat=" << toString(St) << " prune=" << Prune;
        }
    }
  }
}

// Extending by deltas answers the same queries as a fresh streaming
// session observing the same prefix from scratch — with a window small
// enough to force evictions and epoch rebuilds along the way.
TEST(Streaming, ExtendMatchesFromScratch) {
  // Small workloads: the point is outcome equivalence across many
  // (app, seed, window, step) combinations, and read-committed solves
  // on large histories run multi-second each (WindowBoundsEncodedTxns
  // covers long traces, causal-only).
  const char *Apps[] = {"smallbank", "tpcc"};
  for (const char *App : Apps)
    for (uint64_t Seed : {1u, 2u}) {
      WorkloadConfig Cfg = WorkloadConfig::small(Seed);
      History Full = observeApp(App, Cfg, Seed * 31 + 5);
      size_t N = Full.numTxns();
      ASSERT_GT(N, 6u);
      for (unsigned W : {0u, 3u}) {
        PredictSession::Options SO;
        SO.Streaming = true;
        SO.Window = W;

        // Extend path: base third, then two delta chunks.
        TxnId CutA = static_cast<TxnId>(N / 3 + 1);
        TxnId CutB = static_cast<TxnId>(2 * N / 3 + 1);
        History Base = prefixOf(Full, CutA);
        PredictSession S(Base, SO);
        std::vector<Prediction> Got;
        std::vector<TxnId> Steps = {CutA, CutB, static_cast<TxnId>(N)};
        History Grown = Base;
        for (size_t I = 0; I < Steps.size(); ++I) {
          if (I > 0) {
            TxnId From = Steps[I - 1], To = Steps[I];
            History Mid = prefixOf(Full, To);
            History Delta = deltaOf(Grown, Mid, From);
            S.extend(Delta);
            Grown.append(Delta);
          }
          Got.push_back(S.query(
              queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed)));
          Got.push_back(S.query(queryOpts(IsolationLevel::ReadCommitted,
                                          Strategy::ApproxRelaxed)));
        }

        // From-scratch path: a fresh streaming session per step.
        size_t GI = 0;
        for (TxnId Step : Steps) {
          History Pfx = prefixOf(Full, Step);
          PredictSession Fresh(Pfx, SO);
          Prediction RefC = Fresh.query(
              queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
          Prediction RefRc = Fresh.query(queryOpts(
              IsolationLevel::ReadCommitted, Strategy::ApproxRelaxed));
          EXPECT_EQ(Got[GI++].Result, RefC.Result)
              << App << " seed=" << Seed << " W=" << W << " step=" << Step;
          EXPECT_EQ(Got[GI++].Result, RefRc.Result)
              << App << " seed=" << Seed << " W=" << W << " step=" << Step;
        }
        // The two paths must also agree on the encoded window itself:
        // eviction is a pure function of the final history.
        EXPECT_EQ(writeTrace(S.window()),
                  writeTrace(PredictSession(prefixOf(Full, N), SO).window()))
            << App << " seed=" << Seed << " W=" << W;
      }
    }
}

// With the window covering the trace, the encoded sub-history is the
// observed history, byte for byte.
TEST(Streaming, FullWindowSubHistoryIsByteIdentical) {
  History Full = observeApp("smallbank", WorkloadConfig::large(7), 99);
  for (unsigned W : {0u, 1000u}) {
    PredictSession::Options SO;
    SO.Streaming = true;
    SO.Window = W;
    PredictSession S(Full, SO);
    EXPECT_EQ(writeTrace(S.window()), writeTrace(Full)) << "W=" << W;
  }
}

// The window bounds the encoded size: kept transactions per session
// never exceed Window + hysteresis, no matter how long the trace grows.
TEST(Streaming, WindowBoundsEncodedTxns) {
  History Full = observeApp("tpcc", WorkloadConfig::large(3), 11);
  unsigned W = 2;
  PredictSession::Options SO;
  SO.Streaming = true;
  SO.Window = W;
  History Base = prefixOf(Full, 4);
  PredictSession S(Base, SO);
  S.query(queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  History Grown = Base;
  bool SawRebuild = false;
  for (TxnId Step = 4; Step < Full.numTxns(); ++Step) {
    History Mid = prefixOf(Full, Step + 1);
    History Delta = deltaOf(Grown, Mid, Step);
    PredictSession::ExtendStats ES = S.extend(Delta);
    Grown.append(Delta);
    SawRebuild |= ES.EpochRebuild;
    unsigned Hyst = std::max(1u, W / 2);
    size_t MaxKept = 1 + Grown.numSessions() * (W + Hyst);
    EXPECT_LE(ES.WindowTxns, MaxKept) << "step=" << Step;
    S.query(queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  }
  EXPECT_TRUE(SawRebuild) << "window never evicted on a long trace";
  EXPECT_EQ(S.numExtends(), Full.numTxns() - 4);
}

// A window on which Z3's incremental solver stalls: the rc Exact-Strict
// query over smallbank's 131-transaction prefix (the trace the
// stream_window benchmark monitors, window 4) runs out a 5 s budget on
// the session's push/pop solver, while the one-shot solver decides it
// in a fraction of a second. The scoped check's capped attempt gives up
// and the fallback answers, the same way in every fresh session.
TEST(Streaming, IncrementalStallFallsBackToOneShot) {
  auto App = makeApplication("smallbank");
  ASSERT_NE(App, nullptr);
  History Trace = engine::observe(*App, WorkloadConfig{3, 115, 11100}).Hist;
  History Prefix = prefixOf(Trace, 131);
  PredictSession::Options SO;
  SO.Streaming = true;
  SO.Window = 4;
  PredictSession::QueryOptions Q;
  Q.Level = IsolationLevel::ReadCommitted;
  Q.Strat = Strategy::ExactStrict;
  Q.TimeoutMs = 5000;

  obs::Counter &Fallbacks = obs::Metrics::global().counter("solver.fallbacks");
  std::vector<Prediction> Runs;
  for (int Run = 0; Run < 2; ++Run) {
    uint64_t Before = Fallbacks.value();
    PredictSession S(Prefix, SO);
    Prediction P = S.query(Q);
    ASSERT_EQ(P.Result, SmtResult::Sat) << "run " << Run;
    EXPECT_GE(Fallbacks.value() - Before, 1u) << "run " << Run;
    EXPECT_TRUE(satisfiesLevel(P.Predicted, IsolationLevel::ReadCommitted));
    EXPECT_EQ(checkSerializableSmt(P.Predicted), SerResult::Unserializable);
    Runs.push_back(std::move(P));
  }
  EXPECT_EQ(writeTrace(Runs[0].Predicted), writeTrace(Runs[1].Predicted));
  EXPECT_EQ(Runs[0].BoundaryPos, Runs[1].BoundaryPos);
}

// Extending flips a serializable observation into a predictable one:
// the new transaction both defeats the causal fast-path (a second
// writer) and creates the Figure-3 write-skew the analysis must find.
TEST(Streaming, ExtendTurnsPredictionSat) {
  HistoryBuilder B(2);
  B.beginTxn(0);
  B.read("acct", InitTxn, 0);
  B.write("acct", 50);
  B.commit();
  History Base = B.finish();

  PredictSession::Options SO;
  SO.Streaming = true;
  PredictSession S(Base, SO);
  Prediction P0 =
      S.query(queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  EXPECT_EQ(P0.Result, SmtResult::Unsat); // One writer: fast-pathed.

  HistoryBuilder D = HistoryBuilder::extending(S.observed());
  D.beginTxn(1);
  D.read("acct", InitTxn, 0);
  D.write("acct", 60);
  D.commit();
  S.extend(D.finish());

  Prediction P1 =
      S.query(queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  ASSERT_EQ(P1.Result, SmtResult::Sat);
  // The witness speaks full-history ids (remapped from the window).
  ASSERT_FALSE(P1.Witness.empty());
  for (TxnId T : P1.Witness)
    EXPECT_LT(T, S.observed().numTxns());
  EXPECT_EQ(S.observed().numTxns(), 3u);
  EXPECT_EQ(S.numExtends(), 1u);
}

// Deltas arriving before the first query take the cheap path (nothing
// encoded yet) and still answer correctly.
TEST(Streaming, ExtendBeforeFirstQuery) {
  History Full = depositUnserializable();
  History Base = prefixOf(Full, 2);
  PredictSession::Options SO;
  SO.Streaming = true;
  PredictSession S(Base, SO);
  History Delta = deltaOf(Base, Full, 2);
  PredictSession::ExtendStats ES = S.extend(Delta);
  EXPECT_EQ(ES.NumLiterals, 0u); // Base not encoded yet.
  Prediction Got =
      S.query(queryOpts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  Prediction Ref = predict(Full, oneShotOpts(IsolationLevel::Causal,
                                             Strategy::ApproxRelaxed));
  EXPECT_EQ(Got.Result, Ref.Result);
  EXPECT_EQ(writeTrace(S.window()), writeTrace(Full));
}

// Streaming under the default (relevance) plan and the identity plan
// agree on outcomes after extends; each plan keeps its kind when the
// extend grows it.
TEST(Streaming, PruneParityAcrossExtends) {
  History Full = observeApp("smallbank", WorkloadConfig::small(5), 17);
  size_t N = Full.numTxns();
  ASSERT_GT(N, 4u);
  TxnId Cut = static_cast<TxnId>(N / 2 + 1);
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadCommitted}) {
    SmtResult Results[2];
    for (bool Prune : {false, true}) {
      PredictSession::Options SO;
      SO.Streaming = true;
      SO.PruneFormula = Prune;
      History Base = prefixOf(Full, Cut);
      PredictSession S(Base, SO);
      S.query(queryOpts(L, Strategy::ApproxRelaxed));
      S.extend(deltaOf(Base, Full, Cut));
      Results[Prune] =
          S.query(queryOpts(L, Strategy::ApproxRelaxed)).Result;
    }
    EXPECT_EQ(Results[0], Results[1]) << "level=" << toString(L);
  }
}
