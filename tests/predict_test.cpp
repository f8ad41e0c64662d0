//===- predict_test.cpp - Predictive analysis tests -----------*- C++ -*-===//

#include "predict/Predict.h"

#include "apps/AppFramework.h"
#include "encode/Pipeline.h"
#include "history/TraceIO.h"
#include "obs/Metrics.h"
#include "predict/PredictSession.h"
#include "support/StrUtil.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace isopredict;
using namespace isopredict::testutil;

namespace {

PredictOptions opts(IsolationLevel L, Strategy S) {
  PredictOptions O;
  O.Level = L;
  O.Strat = S;
  O.TimeoutMs = 60000;
  return O;
}

/// Checks the structural soundness guarantees every Sat prediction must
/// carry: the predicted prefix is valid under the target level,
/// genuinely unserializable, preserves session order, and only changed
/// the writers of reads at-or-after the session's boundary.
void expectWellFormedPrediction(const History &Observed, const Prediction &P,
                                IsolationLevel Level) {
  ASSERT_EQ(P.Result, SmtResult::Sat);
  const History &Pred = P.Predicted;
  ASSERT_EQ(Pred.numTxns(), Observed.numTxns());

  if (Level == IsolationLevel::Causal)
    EXPECT_TRUE(isCausal(Pred));
  else
    EXPECT_TRUE(isReadCommitted(Pred));

  EXPECT_EQ(checkSerializableSmt(Pred), SerResult::Unserializable);

  for (TxnId T = 1; T < Pred.numTxns(); ++T) {
    const Transaction &PT = Pred.txn(T);
    const Transaction &OT = Observed.txn(T);
    EXPECT_EQ(PT.Session, OT.Session);
    uint32_t Boundary = P.BoundaryPos[OT.Session];
    uint32_t Cut = P.CutPos[OT.Session];
    size_t PI = 0;
    for (const Event &OE : OT.Events) {
      if (Cut != InfPos && OE.Pos > Cut) {
        // Excluded from the prediction; nothing to compare.
        continue;
      }
      ASSERT_LT(PI, PT.Events.size());
      const Event &PE = PT.Events[PI++];
      EXPECT_EQ(PE.Kind, OE.Kind);
      EXPECT_EQ(PE.Key, OE.Key);
      EXPECT_EQ(PE.Pos, OE.Pos);
      if (OE.Kind == EventKind::Read && OE.Pos < Boundary) {
        EXPECT_EQ(PE.Writer, OE.Writer)
            << "read before the boundary changed writer";
      }
    }
    EXPECT_EQ(PI, PT.Events.size());
  }
}

/// Figure 7a (Wikipedia shape): t1 writes x and y; a second session
/// reads y; a third reads and writes x. Flipping the third session's
/// read of x to t0 gives the rw cycle of Figure 7b.
History wikipediaParallelReader() {
  HistoryBuilder B(3);
  TxnId T1 = B.beginTxn(0);
  B.read("x", InitTxn, 0);
  B.write("x", 1);
  B.write("y", 1);
  B.commit();
  B.beginTxn(1);
  B.read("y", T1, 1);
  B.commit();
  B.beginTxn(2);
  B.read("x", T1, 1);
  B.write("x", 2);
  B.commit();
  return B.finish();
}

/// Figure 7c: as above, but the x reader follows the y reader in one
/// session, so it happens after t1. Reading the initial x would break
/// causal consistency (Figure 7d).
History wikipediaChainedReader() {
  HistoryBuilder B(2);
  TxnId T1 = B.beginTxn(0);
  B.read("x", InitTxn, 0);
  B.write("x", 1);
  B.write("y", 1);
  B.commit();
  B.beginTxn(1);
  B.read("y", T1, 1);
  B.commit();
  B.beginTxn(1);
  B.read("x", T1, 1);
  B.write("x", 2);
  B.commit();
  return B.finish();
}

/// Figure 10 (lost-update family): a read of k chained through two
/// writers across three sessions; the prediction flips the chained read
/// to the other branch, a mixed wr/rw cycle.
History chainedLostUpdate() {
  HistoryBuilder B(3);
  TxnId T1 = B.beginTxn(0);
  B.read("k", InitTxn, 0);
  B.write("k", 1);
  B.write("x", 1);
  B.commit();
  TxnId T2 = B.beginTxn(1);
  B.read("k", T1, 1);
  B.write("k", 2);
  B.commit();
  B.beginTxn(2);
  B.read("k", T2, 2);
  B.read("x", T1, 1);
  B.commit();
  return B.finish();
}

} // namespace

//===----------------------------------------------------------------------===
// The paper's running examples
//===----------------------------------------------------------------------===

TEST(Predict, DepositRelaxedFindsFigure3a) {
  // §3: from the observed Figure 2a, IsoPredict predicts the causal,
  // unserializable Figure 3a. The divergent deposit keeps its write, so
  // this needs the relaxed boundary.
  History H = depositObserved();
  Prediction P = predict(H, opts(IsolationLevel::Causal,
                                 Strategy::ApproxRelaxed));
  expectWellFormedPrediction(H, P, IsolationLevel::Causal);
  EXPECT_FALSE(P.Witness.empty()) << "approx predictions carry a pco cycle";
}

TEST(Predict, DepositRcRelaxedPredicts) {
  // Figures 1-3 under rc, which is weaker than causal: the same lost
  // deposit is predicted.
  History H = depositObserved();
  Prediction P = predict(H, opts(IsolationLevel::ReadCommitted,
                                 Strategy::ApproxRelaxed));
  expectWellFormedPrediction(H, P, IsolationLevel::ReadCommitted);
}

TEST(Predict, DepositStrictHasNoPrediction) {
  // Under the strict boundary the diverging deposit loses its write, and
  // the remaining prefix is serializable — no prediction exists.
  History H = depositObserved();
  EXPECT_EQ(predict(H, opts(IsolationLevel::Causal, Strategy::ApproxStrict))
                .Result,
            SmtResult::Unsat);
  EXPECT_EQ(predict(H, opts(IsolationLevel::Causal, Strategy::ExactStrict))
                .Result,
            SmtResult::Unsat);
}

TEST(Predict, CrossReadAllStrategiesPredict) {
  // Figure 8: the divergent reads are the last events of their
  // transactions, so even the strict boundary predicts.
  History H = crossReadObserved();
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                     Strategy::ApproxRelaxed}) {
    Prediction P = predict(H, opts(IsolationLevel::Causal, S));
    EXPECT_EQ(P.Result, SmtResult::Sat) << toString(S);
    if (S != Strategy::ExactStrict && P.Result == SmtResult::Sat)
      expectWellFormedPrediction(H, P, IsolationLevel::Causal);
  }
}

TEST(Predict, CrossReadRcAlsoPredicts) {
  History H = crossReadObserved();
  Prediction P =
      predict(H, opts(IsolationLevel::ReadCommitted, Strategy::ApproxStrict));
  expectWellFormedPrediction(H, P, IsolationLevel::ReadCommitted);
}

TEST(Predict, BankDivergenceRelaxedOnly) {
  // Figure 9: the strict boundary excludes the withdraw's write and the
  // remaining prefix is serializable (Fig. 9e); the relaxed boundary
  // keeps the whole transaction and predicts (Fig. 9f).
  History H = bankDivergenceObserved();
  EXPECT_EQ(predict(H, opts(IsolationLevel::Causal, Strategy::ApproxStrict))
                .Result,
            SmtResult::Unsat);
  Prediction P =
      predict(H, opts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  expectWellFormedPrediction(H, P, IsolationLevel::Causal);
}

TEST(Predict, WikipediaParallelReaderPredictsFigure7b) {
  History H = wikipediaParallelReader();
  Prediction P =
      predict(H, opts(IsolationLevel::Causal, Strategy::ApproxRelaxed));
  expectWellFormedPrediction(H, P, IsolationLevel::Causal);
}

TEST(Predict, WikipediaChainedReaderHasNoCausalPrediction) {
  // Figure 7d, the only candidate divergence, is not causal.
  EXPECT_EQ(predict(wikipediaChainedReader(),
                    opts(IsolationLevel::Causal, Strategy::ApproxRelaxed))
                .Result,
            SmtResult::Unsat);
}

TEST(Predict, ChainedLostUpdatePredictsFigure10) {
  History H = chainedLostUpdate();
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadCommitted}) {
    Prediction P = predict(H, opts(L, Strategy::ApproxRelaxed));
    expectWellFormedPrediction(H, P, L);
  }
}

TEST(Predict, RankPreventsSelfJustifyingCycles) {
  // Figure 6: without the rank constraints the solver could justify
  // ww(t1,t2) and pco(t1,t3) from each other and report a spurious
  // cycle. Every feasible execution of this history is serializable.
  History H = selfJustifyTrap();
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
    for (Strategy S : {Strategy::ApproxStrict, Strategy::ApproxRelaxed})
      EXPECT_EQ(predict(H, opts(L, S)).Result, SmtResult::Unsat)
          << toString(L) << "/" << toString(S);
}

TEST(Predict, SingleWriterMeansNoCausalPrediction) {
  // Footnote 5 (the Voter result): with a single writing transaction,
  // no causal unserializable prediction exists — but rc predictions do
  // when some session reads the writer and a later read can flip to t0.
  HistoryBuilder B(2);
  TxnId TW = B.beginTxn(0);
  B.write("v", 1);
  B.commit();
  B.beginTxn(1);
  B.read("v", TW, 1);
  B.commit();
  B.beginTxn(1);
  B.read("v", TW, 1);
  B.commit();
  History H = B.finish();

  EXPECT_EQ(
      predict(H, opts(IsolationLevel::Causal, Strategy::ApproxRelaxed)).Result,
      SmtResult::Unsat);
  Prediction P =
      predict(H, opts(IsolationLevel::ReadCommitted, Strategy::ApproxStrict));
  expectWellFormedPrediction(H, P, IsolationLevel::ReadCommitted);
}

TEST(Predict, ObservedUnserializableNeedsNoDivergence) {
  // If the observed execution is already unserializable, the boundary
  // can stay at infinity everywhere.
  History H = depositUnserializable();
  Prediction P =
      predict(H, opts(IsolationLevel::Causal, Strategy::ApproxStrict));
  ASSERT_EQ(P.Result, SmtResult::Sat);
  expectWellFormedPrediction(H, P, IsolationLevel::Causal);
}

TEST(Predict, EmptyHistoryIsUnsat) {
  HistoryBuilder B(2);
  History H = B.finish();
  EXPECT_EQ(
      predict(H, opts(IsolationLevel::Causal, Strategy::ApproxRelaxed)).Result,
      SmtResult::Unsat);
}

TEST(Predict, DisablingRwLosesTheFigure5Prediction) {
  // Ablation: Figure 5's cycle consists purely of rw edges; without them
  // the approx encoding cannot justify any cycle for the deposit
  // example.
  History H = depositObserved();
  PredictOptions O = opts(IsolationLevel::Causal, Strategy::ApproxRelaxed);
  O.EnableRw = false;
  EXPECT_EQ(predict(H, O).Result, SmtResult::Unsat);
  O.EnableRw = true;
  EXPECT_EQ(predict(H, O).Result, SmtResult::Sat);
}

TEST(Predict, StatsArePopulated) {
  History H = crossReadObserved();
  Prediction P =
      predict(H, opts(IsolationLevel::Causal, Strategy::ApproxStrict));
  EXPECT_GT(P.Stats.NumLiterals, 0u);
  EXPECT_GE(P.Stats.GenSeconds, 0.0);
  EXPECT_GE(P.Stats.SolveSeconds, 0.0);
}

//===----------------------------------------------------------------------===
// PredictSession: incremental multi-query behaviour on the canned
// histories (the golden suite sweeps the full fixture grid).
//===----------------------------------------------------------------------===

TEST(PredictSession, MatchesOneShotResultsAcrossQueries) {
  History H = crossReadObserved();
  PredictSession Session(H);
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
    for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                       Strategy::ApproxRelaxed}) {
      PredictSession::QueryOptions Q;
      Q.Level = L;
      Q.Strat = S;
      Q.TimeoutMs = 60000;
      Prediction Incremental = Session.query(Q);
      Prediction OneShot = predict(H, opts(L, S));
      EXPECT_EQ(Incremental.Result, OneShot.Result)
          << toString(L) << " " << toString(S);
      if (Incremental.Result == SmtResult::Sat &&
          S != Strategy::ExactStrict)
        expectWellFormedPrediction(H, Incremental, L);
    }
  EXPECT_EQ(Session.numQueries(), 6u);
}

// Mixed levels on one non-streaming session: the hb closure is added
// at root scope by the first causal query, after rc queries have
// already pushed and popped scopes, and later rc/ra queries run on top
// of it. Every answer must still match the one-shot predict().
TEST(PredictSession, LazyHbClosureMatchesOneShotAcrossLevels) {
  const IsolationLevel Levels[] = {
      IsolationLevel::ReadCommitted, IsolationLevel::Causal,
      IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic};
  for (bool Prune : {false, true})
    for (const History &H : {crossReadObserved(), depositUnserializable(),
                             bankDivergenceObserved(), selfJustifyTrap()})
      for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                         Strategy::ApproxRelaxed}) {
        PredictSession::Options SO;
        SO.PruneFormula = Prune;
        PredictSession Session(H, SO);
        for (size_t I = 0; I < std::size(Levels); ++I) {
          IsolationLevel L = Levels[I];
          SCOPED_TRACE(std::string(toString(L)) + " " + toString(S) +
                       (Prune ? "" : " identity plan") + " query " +
                       std::to_string(I));
          uint64_t BaseBefore = Session.baseLiterals();
          PredictSession::QueryOptions Q;
          Q.Level = L;
          Q.Strat = S;
          Q.TimeoutMs = 60000;
          Prediction Incremental = Session.query(Q);
          PredictOptions O = opts(L, S);
          O.PruneFormula = Prune;
          EXPECT_EQ(Incremental.Result, predict(H, O).Result);

          // Only the causal query builds the closure, below the scopes:
          // it pays for it, and the base books grow by exactly that.
          uint64_t HbLits = 0;
          bool HasHb = false;
          for (const PassStats &P : Incremental.Stats.Passes)
            if (P.Name == "hb") {
              HasHb = true;
              HbLits = P.Literals;
            }
          EXPECT_EQ(HasHb, L == IsolationLevel::Causal);
          if (I > 0) {
            EXPECT_EQ(Session.baseLiterals(), BaseBefore + HbLits);
          }
        }
      }
}

TEST(PredictSession, BasePrefixEncodedOnceAndReused) {
  History H = crossReadObserved();
  PredictSession Session(H);
  EXPECT_FALSE(Session.baseEncoded()); // lazy: nothing until a query

  PredictSession::QueryOptions Q;
  Q.Level = IsolationLevel::Causal;
  Q.Strat = Strategy::ApproxStrict;
  Q.TimeoutMs = 60000;
  Prediction First = Session.query(Q);
  ASSERT_TRUE(Session.baseEncoded());
  uint64_t BaseLits = Session.baseLiterals();
  EXPECT_GT(BaseLits, 0u);
  EXPECT_FALSE(First.Stats.BasePrefixReused);
  EXPECT_GT(First.Stats.NumLiterals, BaseLits); // base folded in

  // The acceptance criterion made checkable: a reused query's literal
  // count excludes the base prefix entirely.
  Prediction Second = Session.query(Q);
  EXPECT_TRUE(Second.Stats.BasePrefixReused);
  EXPECT_EQ(Second.Result, First.Result);
  EXPECT_EQ(Second.Stats.NumLiterals, First.Stats.NumLiterals - BaseLits);
  EXPECT_EQ(Session.baseLiterals(), BaseLits); // not re-encoded

  // And the per-query pass list starts after the shared prefix.
  ASSERT_FALSE(Second.Stats.Passes.empty());
  EXPECT_EQ(Second.Stats.Passes.front().Name, "boundary-link");
  for (const PassStats &P : Second.Stats.Passes) {
    EXPECT_NE(P.Name, "declare");
    EXPECT_NE(P.Name, "feasibility");
    EXPECT_NE(P.Name, "window");
  }
}

TEST(PredictSession, CausalFastPathSkipsTheSolver) {
  // depositObserved has two writers, so causal queries encode; a
  // single-writer history (Voter's shape) must fast-path to Unsat
  // without ever touching Z3.
  HistoryBuilder B(2);
  B.beginTxn(0);
  B.write("x", 1);
  B.commit();
  B.beginTxn(1);
  B.read("x", 1, 1);
  B.commit();
  History H = B.finish();

  PredictSession Session(H);
  PredictSession::QueryOptions Q;
  Q.Level = IsolationLevel::Causal;
  Q.Strat = Strategy::ApproxRelaxed;
  EXPECT_EQ(Session.query(Q).Result, SmtResult::Unsat);
  EXPECT_EQ(Session.numQueries(), 1u);
  EXPECT_FALSE(Session.baseEncoded());
  EXPECT_EQ(predict(H, opts(IsolationLevel::Causal,
                            Strategy::ApproxRelaxed))
                .Result,
            SmtResult::Unsat);
}

TEST(PredictSession, StrategyNamesRoundTrip) {
  // The fromString parsers accept both CLI short forms and canonical
  // spellings, case-insensitively.
  EXPECT_EQ(strategyFromString("exact"), Strategy::ExactStrict);
  EXPECT_EQ(strategyFromString("Exact-Strict"), Strategy::ExactStrict);
  EXPECT_EQ(strategyFromString("strict"), Strategy::ApproxStrict);
  EXPECT_EQ(strategyFromString("relaxed"), Strategy::ApproxRelaxed);
  EXPECT_EQ(strategyFromString("APPROX-RELAXED"), Strategy::ApproxRelaxed);
  EXPECT_FALSE(strategyFromString("bogus").has_value());
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                     Strategy::ApproxRelaxed})
    EXPECT_EQ(strategyFromString(toString(S)), S);

  EXPECT_EQ(pcoEncodingFromString("rank"), PcoEncoding::Rank);
  EXPECT_EQ(pcoEncodingFromString("RANK"), PcoEncoding::Rank);
  EXPECT_EQ(pcoEncodingFromString(toString(PcoEncoding::Rank)),
            PcoEncoding::Rank);
  // "rank" is the only pco encoding; "layered" is rejected like any
  // other unknown spelling.
  EXPECT_FALSE(pcoEncodingFromString("layered").has_value());
  EXPECT_FALSE(pcoEncodingFromString("").has_value());
  EXPECT_STREQ(pcoEncodingValidNames(), "rank");

  EXPECT_EQ(isolationLevelFromString("causal"), IsolationLevel::Causal);
  EXPECT_EQ(isolationLevelFromString("rc"), IsolationLevel::ReadCommitted);
  EXPECT_EQ(isolationLevelFromString("read-committed"),
            IsolationLevel::ReadCommitted);
  EXPECT_EQ(isolationLevelFromString("ra"), IsolationLevel::ReadAtomic);
  EXPECT_EQ(isolationLevelFromString("serializable"),
            IsolationLevel::Serializable);
  EXPECT_FALSE(isolationLevelFromString("snapshot").has_value());
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadAtomic,
        IsolationLevel::ReadCommitted, IsolationLevel::Serializable})
    EXPECT_EQ(isolationLevelFromString(toString(L)), L);
}

//===----------------------------------------------------------------------===
// Exact vs approximate agreement (paper §7.2: approx found every
// prediction exact found; here we check the stronger empirical property
// that their sat/unsat verdicts coincide on small histories).
//===----------------------------------------------------------------------===

namespace {
class StrategyAgreement
    : public ::testing::TestWithParam<std::tuple<int, int>> {};
} // namespace

TEST_P(StrategyAgreement, ExactAndApproxAgreeOnCannedHistories) {
  auto [HistIdx, LevelIdx] = GetParam();
  History H;
  switch (HistIdx) {
  case 0:
    H = depositObserved();
    break;
  case 1:
    H = crossReadObserved();
    break;
  case 2:
    H = bankDivergenceObserved();
    break;
  case 3:
    H = selfJustifyTrap();
    break;
  default:
    H = depositUnserializable();
    break;
  }
  IsolationLevel L = LevelIdx == 0 ? IsolationLevel::Causal
                                   : IsolationLevel::ReadCommitted;
  SmtResult Exact = predict(H, opts(L, Strategy::ExactStrict)).Result;
  SmtResult Approx = predict(H, opts(L, Strategy::ApproxStrict)).Result;
  ASSERT_NE(Exact, SmtResult::Unknown);
  ASSERT_NE(Approx, SmtResult::Unknown);
  EXPECT_EQ(Exact, Approx);
}

INSTANTIATE_TEST_SUITE_P(Grid, StrategyAgreement,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Range(0, 2)));

//===----------------------------------------------------------------------===
// Staged Approx queries: the exact formula first, the rank encoding as
// the fallback (PredictSession::runQuery). Each staged answer must be
// the answer of the rank encoding solved alone.
//===----------------------------------------------------------------------===

namespace {

/// The golden fixtures' observed histories (tests/golden_predictions.inc
/// covers these app/seed pairs).
History fixtureHistory(const std::string &App, uint64_t Seed) {
  auto Application = makeApplication(App);
  DataStore::Options O;
  O.Mode = StoreMode::SerialObserved;
  O.Level = IsolationLevel::Serializable;
  O.Seed = Seed;
  DataStore Store(O);
  return WorkloadRunner::run(*Application, Store, WorkloadConfig::small(Seed))
      .Hist;
}

const std::pair<const char *, uint64_t> FixtureHistories[] = {
    {"smallbank", 1}, {"smallbank", 2}, {"voter", 1},
    {"voter", 2},     {"tpcc", 1},      {"wikipedia", 1}};

/// The rank encoding alone, built through the pipeline on a fresh
/// solver: base, the hb closure for causal, then boundary-link →
/// approx-rank → isolation.
struct RankEncoding {
  SmtContext Ctx;
  SmtSolver Solver{Ctx};
  PredictOptions O;
  std::unique_ptr<encode::EncodingContext> EC;

  RankEncoding(const History &H, const PredictOptions &Opts) : O(Opts) {
    EC = std::make_unique<encode::EncodingContext>(H, O, Ctx, Solver);
    EncodingStats Stats;
    encode::EncoderPipeline::forSessionBase(false).run(*EC, Stats);
    if (O.Level == IsolationLevel::Causal)
      encode::EncoderPipeline::forClosure().run(*EC, Stats);
    EC->beginQuery(O.Strat);
    encode::EncoderPipeline::forQuery(O).run(*EC, Stats);
    Solver.setTimeoutMs(O.TimeoutMs);
  }

  /// Pins every boundary and read choice of \p P's prediction, and pco
  /// to the saturated pco of its predicted history (so the solver only
  /// has to find the ranks).
  void fix(const Prediction &P) {
    for (SessionId S = 0; S < P.BoundaryPos.size(); ++S)
      Solver.add(Ctx.mkEq(EC->Boundary[S],
                          Ctx.internIntVal(P.BoundaryPos[S] == InfPos
                                               ? EC->Inf
                                               : P.BoundaryPos[S])));
    for (TxnId T = 1; T < P.Predicted.numTxns(); ++T)
      for (const Event &E : P.Predicted.txn(T).Events)
        if (E.Kind == EventKind::Read)
          Solver.add(EC->choiceIs(P.Predicted.txn(T).Session, E.Pos,
                                  E.Writer));
    BitRel Pco = pcoRel(P.Predicted);
    for (TxnId A = 0; A < EC->N; ++A)
      for (TxnId B = 0; B < EC->N; ++B)
        if (A != B && !Ctx.isTrue(EC->Pco[A][B]))
          Solver.add(Pco.test(A, B) ? EC->Pco[A][B]
                                    : Ctx.mkNot(EC->Pco[A][B]));
  }
};

bool ranPass(const Prediction &P, const char *Name) {
  for (const PassStats &PS : P.Stats.Passes)
    if (PS.Name == Name)
      return true;
  return false;
}

} // namespace

// Of the 18 encoded queries (the causal fast path answers voter and
// wikipedia causal without encoding), three run past 120 s in the rank
// encoding alone (tpcc seed 1 causal Approx-Strict, wikipedia seed 1 rc
// Approx-Strict and Approx-Relaxed) and the rest decide in under 5 s.
// The alone-solve gets a budget between the two; where it runs out,
// the staged answer is checked by its own evidence only.
constexpr unsigned RankAloneBudgetMs = 15000;

TEST(StagedApprox, AgreesWithTheRankEncoding) {
  unsigned Compared = 0;
  for (const auto &[App, Seed] : FixtureHistories) {
    History H = fixtureHistory(App, Seed);
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
      for (Strategy S : {Strategy::ApproxStrict, Strategy::ApproxRelaxed}) {
        SCOPED_TRACE(formatString("%s seed=%llu %s %s", App,
                                  static_cast<unsigned long long>(Seed),
                                  toString(L), toString(S)));
        PredictOptions O = opts(L, S);
        O.TimeoutMs = 300000;
        Prediction Staged = predict(H, O);
        ASSERT_NE(Staged.Result, SmtResult::Unknown);
        if (Staged.Stats.Passes.empty())
          continue; // The causal fast path: nothing was encoded.
        EXPECT_TRUE(ranPass(Staged, "exact-strict"));

        O.TimeoutMs = RankAloneBudgetMs;
        SmtResult Alone = RankEncoding(H, O).Solver.check();
        if (Alone != SmtResult::Unknown) {
          EXPECT_EQ(Staged.Result, Alone);
          ++Compared;
        }
        if (Staged.Result != SmtResult::Sat)
          continue;

        EXPECT_FALSE(Staged.Witness.empty());
        EXPECT_TRUE(satisfiesLevel(Staged.Predicted, L));
        EXPECT_EQ(checkSerializableSmt(Staged.Predicted),
                  SerResult::Unserializable);
        // The staged model is a model of the rank formula.
        RankEncoding Fixed(H, O);
        Fixed.fix(Staged);
        EXPECT_EQ(Fixed.Solver.check(), SmtResult::Sat);
      }
  }
  EXPECT_GE(Compared, 15u);
}

// pcoCycle always uses rw edges, so with the ablation on a stage-1 sat
// is never accepted: both stages run and the rank encoding (without rw)
// decides. Only a stage-1 unsat skips the fallback.
TEST(StagedApprox, RwAblationFallsBackToTheRankEncoding) {
  std::vector<History> Histories = {depositObserved(), crossReadObserved(),
                                    bankDivergenceObserved(),
                                    depositUnserializable()};
  unsigned BothStages = 0;
  for (size_t I = 0; I < Histories.size(); ++I)
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
      for (Strategy S : {Strategy::ApproxStrict, Strategy::ApproxRelaxed}) {
        SCOPED_TRACE(formatString("history %zu %s %s", I, toString(L),
                                  toString(S)));
        PredictOptions O = opts(L, S);
        O.EnableRw = false;
        Prediction Staged = predict(Histories[I], O);
        SmtResult Alone = RankEncoding(Histories[I], O).Solver.check();
        ASSERT_NE(Alone, SmtResult::Unknown);
        EXPECT_EQ(Staged.Result, Alone);
        EXPECT_TRUE(ranPass(Staged, "exact-strict"));
        // NumLiterals is the exact stage's whether or not the fallback
        // ran (a query canceled in stage 1 reports it too);
        // the fallback's literals are counted apart. Under the strict
        // boundary the exact stage is Exact-Strict's formula.
        if (S == Strategy::ApproxStrict) {
          PredictOptions Gen = O;
          Gen.Strat = Strategy::ExactStrict;
          Gen.GenerateOnly = true;
          EXPECT_EQ(Staged.Stats.NumLiterals,
                    predict(Histories[I], Gen).Stats.NumLiterals);
        }
        uint64_t PassSum = 0;
        for (const PassStats &PS : Staged.Stats.Passes)
          PassSum += PS.Literals;
        EXPECT_EQ(PassSum,
                  Staged.Stats.NumLiterals + Staged.Stats.FallbackLiterals);
        if (ranPass(Staged, "approx-rank")) {
          ++BothStages;
          EXPECT_GT(Staged.Stats.FallbackLiterals, 0u);
        } else {
          EXPECT_EQ(Staged.Result, SmtResult::Unsat);
          EXPECT_EQ(Staged.Stats.FallbackLiterals, 0u);
        }
      }
  // Figure 5's deposit prediction is a pure rw cycle: the exact stage
  // finds it, the rw-less rank encoding refutes it.
  EXPECT_GT(BothStages, 0u);
}

// An Approx-Strict query's exact stage is the Exact-Strict formula, so
// a campaign hands it the Exact-Strict answer on the same history
// instead of solving it twice (predict()'s ExactStage). Everything
// reports carry must equal the query solved from scratch.
TEST(StagedApprox, SuppliedExactStageMatchesTheSolvedOne) {
  obs::Counter &Reuses =
      obs::Metrics::global().counter("predict.exact_stage_reuses");
  unsigned Settled = 0;
  for (const auto &[App, Seed] : FixtureHistories) {
    History H = fixtureHistory(App, Seed);
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadCommitted}) {
      SCOPED_TRACE(formatString("%s seed=%llu %s", App,
                                static_cast<unsigned long long>(Seed),
                                toString(L)));
      Prediction Exact = predict(H, opts(L, Strategy::ExactStrict));
      ASSERT_NE(Exact.Result, SmtResult::Unknown);
      PredictOptions O = opts(L, Strategy::ApproxStrict);
      Prediction Solved = predict(H, O);
      uint64_t Before = Reuses.value();
      Prediction Taken = predict(H, O, &Exact);
      EXPECT_EQ(Taken.Result, Solved.Result);
      EXPECT_EQ(Taken.Witness, Solved.Witness);
      EXPECT_EQ(writeTrace(Taken.Predicted), writeTrace(Solved.Predicted));
      EXPECT_EQ(Taken.BoundaryPos, Solved.BoundaryPos);
      EXPECT_EQ(Taken.CutPos, Solved.CutPos);
      EXPECT_EQ(Taken.Stats.NumLiterals, Solved.Stats.NumLiterals);
      EXPECT_EQ(Taken.Stats.FallbackLiterals, Solved.Stats.FallbackLiterals);
      if (Solved.Stats.Passes.empty()) {
        // The causal fast path answers before any stage.
        EXPECT_EQ(Reuses.value(), Before);
        continue;
      }
      EXPECT_EQ(Reuses.value(), Before + 1);
      if (Taken.Stats.FallbackLiterals)
        continue;
      // Settled by the supplied stage: this query encoded and solved
      // nothing.
      ++Settled;
      EXPECT_TRUE(Taken.Stats.Passes.empty());
      EXPECT_EQ(Taken.Stats.GenSeconds, 0);
      EXPECT_EQ(Taken.Stats.SolveSeconds, 0);
      EXPECT_FALSE(Taken.SolverStats.Collected);
    }
  }
  EXPECT_GE(Settled, 6u);
}

// Under the rw ablation a supplied sat is never accepted (pcoCycle
// always uses rw edges): the query still falls back, and the rank
// encoding decides as if stage 1 had been solved here.
TEST(StagedApprox, SuppliedSatStageStillFallsBackWithoutRw) {
  std::vector<History> Histories = {depositObserved(), crossReadObserved(),
                                    bankDivergenceObserved(),
                                    depositUnserializable()};
  unsigned FellBack = 0;
  for (size_t I = 0; I < Histories.size(); ++I)
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadCommitted}) {
      SCOPED_TRACE(formatString("history %zu %s", I, toString(L)));
      PredictOptions O = opts(L, Strategy::ExactStrict);
      O.EnableRw = false;
      Prediction Exact = predict(Histories[I], O);
      ASSERT_NE(Exact.Result, SmtResult::Unknown);
      O.Strat = Strategy::ApproxStrict;
      Prediction Solved = predict(Histories[I], O);
      Prediction Taken = predict(Histories[I], O, &Exact);
      EXPECT_EQ(Taken.Result, RankEncoding(Histories[I], O).Solver.check());
      EXPECT_EQ(Taken.Result, Solved.Result);
      EXPECT_EQ(Taken.Stats.NumLiterals, Solved.Stats.NumLiterals);
      EXPECT_EQ(Taken.Stats.FallbackLiterals, Solved.Stats.FallbackLiterals);
      EXPECT_FALSE(ranPass(Taken, "exact-strict"));
      if (Exact.Result != SmtResult::Sat)
        continue;
      ++FellBack;
      EXPECT_TRUE(ranPass(Taken, "approx-rank"));
      EXPECT_GT(Taken.Stats.FallbackLiterals, 0u);
      EXPECT_TRUE(Taken.SolverStats.Collected);
    }
  EXPECT_GT(FellBack, 0u);
}
