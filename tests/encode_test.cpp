//===- encode_test.cpp - Encoding-pipeline layer tests --------*- C++ -*-===//

#include "apps/AppFramework.h"
#include "encode/EncodingContext.h"
#include "encode/Passes.h"
#include "encode/Pipeline.h"
#include "encode/Prune.h"
#include "engine/ReportDiff.h"
#include "history/BitRel.h"
#include "predict/Predict.h"
#include "predict/PredictSession.h"
#include "support/Rng.h"
#include "support/StrUtil.h"
#include "validate/Validate.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>

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

} // namespace

//===----------------------------------------------------------------------===
// Transitive closure by repeated squaring
//===----------------------------------------------------------------------===

TEST(Encode, ClosureBySquaringMatchesNaiveClosure) {
  // Fix the base relation as boolean constants; the closure variables'
  // model values must equal the word-parallel Warshall closure.
  Rng Rand(42);
  for (size_t N : {2, 3, 5, 9, 12}) {
    for (int Round = 0; Round < 3; ++Round) {
      BitRel R(N);
      for (size_t I = 0; I < 2 * N; ++I)
        R.set(Rand.below(N), Rand.below(N));

      SmtContext Ctx;
      SmtSolver Solver(Ctx);
      encode::PairMatrix Base(N, std::vector<SmtExpr>(N));
      for (size_t A = 0; A < N; ++A)
        for (size_t B = 0; B < N; ++B)
          if (A != B)
            Base[A][B] = Ctx.boolVal(R.test(A, B));
      encode::PairMatrix Closed =
          encode::defineClosure(Ctx, Solver, Base, "t");

      BitRel Expect = R;
      // Warshall produces reflexive pairs only on cycles; the squaring
      // closure never defines diagonal entries, so compare off-diagonal.
      Expect.closeTransitively();

      ASSERT_EQ(Solver.check(), SmtResult::Sat);
      for (size_t A = 0; A < N; ++A)
        for (size_t B = 0; B < N; ++B) {
          if (A == B)
            continue;
          EXPECT_EQ(Solver.modelBool(Closed[A][B]), Expect.test(A, B))
              << "N=" << N << " edge " << A << "->" << B;
        }
    }
  }
}

//===----------------------------------------------------------------------===
// Atom interning
//===----------------------------------------------------------------------===

TEST(Encode, SmtContextInterningReturnsIdenticalAsts) {
  SmtContext Ctx;
  SmtExpr X = Ctx.intVar("x");
  SmtExpr Y = Ctx.intVar("y");

  SmtExpr Five1 = Ctx.internIntVal(5);
  SmtExpr Five2 = Ctx.internIntVal(5);
  EXPECT_EQ(Five1.Ast, Five2.Ast);

  SmtExpr Lt1 = Ctx.internLt(X, Y);
  SmtExpr Lt2 = Ctx.internLt(X, Y);
  EXPECT_EQ(Lt1.Ast, Lt2.Ast);
  EXPECT_EQ(Lt1.Lits, Lt2.Lits);

  // Distinct operators over the same operands are distinct atoms.
  EXPECT_NE(Ctx.internLt(X, Y).Ast, Ctx.internLe(X, Y).Ast);
  EXPECT_NE(Ctx.internEq(X, Y).Ast, Ctx.internLe(X, Y).Ast);

  // The cache observed the repeats.
  EXPECT_GT(Ctx.internHits(), 0u);
  EXPECT_GT(Ctx.internLookups(), Ctx.internHits());

  // Interned and plain construction agree (Z3 hash-conses ASTs).
  EXPECT_EQ(Ctx.internLt(X, Y).Ast, Ctx.mkLt(X, Y).Ast);
}

TEST(Encode, ContextAtomsAreInterned) {
  History H = depositObserved();
  PredictOptions O = opts(IsolationLevel::Causal, Strategy::ApproxRelaxed);
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  encode::EncodingContext EC(H, O, Ctx, Solver);
  encode::DeclarePass().run(EC);

  SessionId S = H.txn(1).Session;
  uint32_t Pos = H.txn(1).Events.at(0).Pos;

  EXPECT_EQ(EC.choiceIs(S, Pos, InitTxn).Ast,
            EC.choiceIs(S, Pos, InitTxn).Ast);
  EXPECT_EQ(EC.eventIncluded(S, Pos).Ast, EC.eventIncluded(S, Pos).Ast);
  EXPECT_EQ(EC.beforeBoundary(S, Pos).Ast, EC.beforeBoundary(S, Pos).Ast);

  KeyId K = H.keysRead().at(0);
  ASSERT_TRUE(H.writesKey(1, K));
  EXPECT_EQ(EC.writeIncluded(1, K).Ast, EC.writeIncluded(1, K).Ast);
}

//===----------------------------------------------------------------------===
// Per-pass accounting
//===----------------------------------------------------------------------===

TEST(Encode, PassLiteralsSumToTotal) {
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                     Strategy::ApproxRelaxed})
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadAtomic,
          IsolationLevel::ReadCommitted}) {
      History H = crossReadObserved();
      PredictOptions O = opts(L, S);
      O.GenerateOnly = true;
      Prediction P = predict(H, O);

      // Causal queries add the hb closure right after the base.
      size_t Hb = L == IsolationLevel::Causal;
      ASSERT_EQ(P.Stats.Passes.size(), 5u + Hb) << toString(S);
      EXPECT_EQ(P.Stats.Passes[0].Name, "declare");
      EXPECT_EQ(P.Stats.Passes[0].Literals, 0u)
          << "declaration asserts nothing";
      EXPECT_EQ(P.Stats.Passes[1].Name, "feasibility");
      if (Hb) {
        EXPECT_EQ(P.Stats.Passes[2].Name, "hb");
      }
      EXPECT_EQ(P.Stats.Passes[2 + Hb].Name, "boundary-link");
      EXPECT_GT(P.Stats.Passes[2 + Hb].Literals, 0u)
          << "the cut is linked to the boundary under every strategy";

      uint64_t Sum = 0;
      for (const PassStats &PS : P.Stats.Passes) {
        EXPECT_GE(PS.Seconds, 0.0);
        Sum += PS.Literals;
      }
      EXPECT_EQ(Sum, P.Stats.NumLiterals)
          << toString(S) << "/" << toString(L);
    }
}

TEST(Encode, PipelineSelectsPassesFromOptions) {
  PredictOptions O = opts(IsolationLevel::ReadCommitted,
                          Strategy::ApproxStrict);
  O.GenerateOnly = true;
  Prediction P = predict(crossReadObserved(), O);
  // The one-shot pipeline is the session one: declare → feasibility →
  // boundary-link → strategy → isolation (causal adds hb after the
  // base).
  const char *Expect[] = {"declare", "feasibility", "boundary-link",
                          "approx-rank", "read-committed"};
  ASSERT_EQ(P.Stats.Passes.size(), std::size(Expect));
  for (size_t I = 0; I < std::size(Expect); ++I)
    EXPECT_EQ(P.Stats.Passes[I].Name, Expect[I]) << I;

  O.Strat = Strategy::ExactStrict;
  O.Level = IsolationLevel::Causal;
  P = predict(crossReadObserved(), O);
  ASSERT_EQ(P.Stats.Passes.size(), 6u);
  EXPECT_EQ(P.Stats.Passes[2].Name, "hb");
  EXPECT_EQ(P.Stats.Passes[3].Name, "boundary-link");
  EXPECT_EQ(P.Stats.Passes[4].Name, "exact-strict");
  EXPECT_EQ(P.Stats.Passes[5].Name, "causal");
}

TEST(Encode, AddAllAccountsLiteralsLikeAdd) {
  SmtContext C1, C2;
  auto build = [](SmtContext &Ctx) {
    std::vector<SmtExpr> Es;
    SmtExpr X = Ctx.intVar("x");
    Es.push_back(Ctx.mkLt(Ctx.intVal(0), X));
    Es.push_back(Ctx.mkOr({Ctx.boolVar("a"), Ctx.boolVar("b")}));
    Es.push_back(Ctx.mkEq(X, Ctx.intVal(7)));
    return Es;
  };
  SmtSolver S1(C1), S2(C2);
  for (SmtExpr E : build(C1))
    S1.add(E);
  S2.addAll(build(C2));
  EXPECT_EQ(C1.literalCount(), C2.literalCount());
  EXPECT_EQ(S1.check(), S2.check());
}

//===----------------------------------------------------------------------===
// Report diffing (the regression-gate tool)
//===----------------------------------------------------------------------===

namespace {

std::string jobJson(const char *Seed, const char *Result, const char *Val) {
  return std::string("{\"kind\": \"predict\", \"app\": \"smallbank\", "
                     "\"workload\": \"3x4\", \"seed\": ") +
         Seed + ", \"level\": \"causal\", \"strategy\": \"Approx-Relaxed\", "
                "\"pco\": \"rank\", \"ok\": true, \"result\": \"" +
         Result + "\", \"validation\": \"" + Val + "\"}";
}

std::string reportJson(const std::vector<std::string> &Jobs) {
  std::string Out = "{\"schema\": \"isopredict-campaign-report/1\", "
                    "\"campaign\": \"t\", \"jobs\": [";
  for (size_t I = 0; I < Jobs.size(); ++I)
    Out += (I ? ", " : "") + Jobs[I];
  return Out + "]}";
}

} // namespace

TEST(ReportDiff, FlagsOutcomeRegressions) {
  using namespace isopredict::engine;
  std::string A = reportJson({jobJson("1", "sat", "validated-unserializable"),
                              jobJson("2", "unsat", "no-prediction")});
  std::string B = reportJson({jobJson("1", "unsat", "no-prediction"),
                              jobJson("2", "unsat", "no-prediction")});
  std::string Error;
  auto D = diffReports(A, B, &Error);
  ASSERT_TRUE(D.has_value()) << Error;
  EXPECT_EQ(D->MatchedJobs, 2u);
  EXPECT_TRUE(D->hasRegressions());
  EXPECT_EQ(D->numRegressions(), 2u); // result + validation on seed 1.

  // The reverse direction is a change, not a regression.
  auto Rev = diffReports(B, A, &Error);
  ASSERT_TRUE(Rev.has_value()) << Error;
  EXPECT_FALSE(Rev->hasRegressions());
  EXPECT_EQ(Rev->Deltas.size(), 2u);
}

TEST(ReportDiff, MatchesJobsByIdentityNotOrder) {
  using namespace isopredict::engine;
  std::string A = reportJson({jobJson("1", "sat", "validated-unserializable"),
                              jobJson("2", "unsat", "no-prediction")});
  std::string B = reportJson({jobJson("2", "unsat", "no-prediction"),
                              jobJson("1", "sat",
                                      "validated-unserializable")});
  auto D = diffReports(A, B);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->MatchedJobs, 2u);
  EXPECT_TRUE(D->Deltas.empty());
  EXPECT_TRUE(D->OnlyInA.empty());
  EXPECT_TRUE(D->OnlyInB.empty());
}

TEST(ReportDiff, RejectsNonReports) {
  using namespace isopredict::engine;
  std::string Error;
  EXPECT_FALSE(diffReports("not json", "{}", &Error).has_value());
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(diffReports("{\"jobs\": 3}", "{\"jobs\": []}", &Error)
                   .has_value());
}

TEST(ReportDiff, MatchesBySpecHashWhenBothReportsCarryIt) {
  using namespace isopredict::engine;
  auto hashed = [](const char *Hash, const char *Seed, const char *Result) {
    return std::string("{\"spec_hash\": \"") + Hash + "\", " +
           jobJson(Seed, Result, "no-prediction").substr(1);
  };
  // Reordered jobs match by hash, independent of position.
  std::string A = reportJson({hashed("00000000000000aa", "1", "sat"),
                              hashed("00000000000000bb", "2", "unsat")});
  std::string B = reportJson({hashed("00000000000000bb", "2", "unsat"),
                              hashed("00000000000000aa", "1", "sat")});
  auto D = diffReports(A, B);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->MatchedJobs, 2u);
  EXPECT_TRUE(D->Deltas.empty());

  // Hashes are the ground truth: identical identity fields but distinct
  // hashes (a spec field jobKey omits changed) do not match.
  std::string C1 = reportJson({hashed("00000000000000aa", "1", "sat")});
  std::string C2 = reportJson({hashed("00000000000000cc", "1", "sat")});
  auto D2 = diffReports(C1, C2);
  ASSERT_TRUE(D2.has_value());
  EXPECT_EQ(D2->MatchedJobs, 0u);
  EXPECT_EQ(D2->OnlyInA.size(), 1u);
  EXPECT_EQ(D2->OnlyInB.size(), 1u);

  // A report from before the field falls back to identity-key matching.
  std::string Old = reportJson({jobJson("1", "unsat", "no-prediction")});
  auto D3 = diffReports(C1, Old);
  ASSERT_TRUE(D3.has_value());
  EXPECT_EQ(D3->MatchedJobs, 1u);
  EXPECT_EQ(D3->Deltas.size(), 1u); // sat -> unsat, matched by key
  EXPECT_TRUE(D3->hasRegressions());
}

TEST(ReportDiff, MatchByKeyOverridesHashMatching) {
  using namespace isopredict::engine;
  auto hashed = [](const char *Hash, const char *Seed, const char *Result) {
    return std::string("{\"spec_hash\": \"") + Hash + "\", " +
           jobJson(Seed, Result, "no-prediction").substr(1);
  };
  // Same identity key, different hashes (a spec knob like prune
  // changed): hash matching finds nothing, key matching pairs them —
  // the CI prune gate depends on this.
  std::string A = reportJson({hashed("00000000000000aa", "1", "sat")});
  std::string B = reportJson({hashed("00000000000000cc", "1", "unsat")});
  auto ByHash = diffReports(A, B);
  ASSERT_TRUE(ByHash.has_value());
  EXPECT_EQ(ByHash->MatchedJobs, 0u);

  auto ByKey = diffReports(A, B, nullptr, /*MatchByKey=*/true);
  ASSERT_TRUE(ByKey.has_value());
  EXPECT_EQ(ByKey->MatchedJobs, 1u);
  EXPECT_TRUE(ByKey->hasRegressions()); // sat -> unsat, now visible
}

TEST(ReportDiff, UnmatchedJobsAreReportedNotRegressions) {
  using namespace isopredict::engine;
  std::string A = reportJson({jobJson("1", "sat", "validated-unserializable")});
  std::string B = reportJson({jobJson("2", "unsat", "no-prediction")});
  auto D = diffReports(A, B);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->MatchedJobs, 0u);
  EXPECT_EQ(D->OnlyInA.size(), 1u);
  EXPECT_EQ(D->OnlyInB.size(), 1u);
  EXPECT_FALSE(D->hasRegressions());
}

//===----------------------------------------------------------------------===
// Formula minimization (PredictOptions::PruneFormula)
//===----------------------------------------------------------------------===

namespace {

/// A history with fixed single-writer reads. t0 implicitly writes every
/// key, so a read's choice domain (writersOf(k) minus the reader) is a
/// singleton only when no transaction other than the reader itself
/// writes k: t1 read-modify-writes priv (the key's only transactional
/// writer is t1, so its own pre-write read can only observe t0), and t3
/// reads a key nobody ever writes. t2's read of priv has domain
/// {t0, t1} and stays free. The second session works disjoint keys,
/// making every cross-session pair unreachable in the hb skeleton.
History privateKeyObserved() {
  HistoryBuilder B(2);
  B.beginTxn(0); // t1: RMW of priv — its read is fixed to t0.
  B.read("priv", InitTxn, 0);
  B.write("priv", 2);
  B.commit();
  B.beginTxn(0); // t2: reads priv from t1 — domain {t0, t1}, free.
  B.read("priv", 1, 2);
  B.commit();
  B.beginTxn(1); // t3: reads a never-written key — fixed to t0.
  B.read("other", InitTxn, 0);
  B.write("other2", 7);
  B.commit();
  return B.finish();
}

PredictOptions prunedOpts(IsolationLevel L, Strategy S) {
  PredictOptions O = opts(L, S);
  O.PruneFormula = true;
  return O;
}

} // namespace

TEST(Prune, PlanSubstitutesObservedSessionOrder) {
  History H = crossReadObserved();
  encode::EncodingPlan Plan = encode::computeEncodingPlan(H);
  ASSERT_EQ(Plan.N, H.numTxns());
  for (TxnId A = 0; A < H.numTxns(); ++A)
    for (TxnId B = 0; B < H.numTxns(); ++B)
      if (A != B)
        EXPECT_EQ(Plan.soPair(A, B), H.so(A, B))
            << A << "->" << B;
}

TEST(Prune, PlanMarksWrImpossiblePairs) {
  // crossReadObserved: t1 writes x (read by t4), t2 writes y (read by
  // t3); t3/t4 write nothing, so nothing can ever wr-follow them.
  History H = crossReadObserved();
  encode::EncodingPlan Plan = encode::computeEncodingPlan(H);
  EXPECT_TRUE(Plan.wrPossible(1, 4));  // t1 -> t4 via x
  EXPECT_TRUE(Plan.wrPossible(2, 3));  // t2 -> t3 via y
  EXPECT_FALSE(Plan.wrPossible(3, 1)); // t3 writes nothing
  EXPECT_FALSE(Plan.wrPossible(4, 2));
  EXPECT_FALSE(Plan.wrPossible(1, 3)); // t3 never reads x
  // t0 implicitly writes every key, so it can justify any reader.
  EXPECT_TRUE(Plan.wrPossible(InitTxn, 3));
  EXPECT_TRUE(Plan.wrPossible(InitTxn, 4));
}

TEST(Prune, PlanFixesSingleWriterReads) {
  History H = privateKeyObserved();
  encode::EncodingPlan Plan = encode::computeEncodingPlan(H);

  // t1's pre-write read of priv: t1 is priv's only transactional
  // writer, so the domain is {t0} — fixed.
  const Transaction &T1 = H.txn(1);
  ASSERT_EQ(T1.Events.at(0).Kind, EventKind::Read);
  const TxnId *Fixed = Plan.fixedChoice(T1.Session, T1.Events.at(0).Pos);
  ASSERT_NE(Fixed, nullptr);
  EXPECT_EQ(*Fixed, InitTxn);

  // t3's read of other (a key nobody writes): fixed to t0 as well.
  const Transaction &T3 = H.txn(3);
  const TxnId *Fixed3 = Plan.fixedChoice(T3.Session, T3.Events.at(0).Pos);
  ASSERT_NE(Fixed3, nullptr);
  EXPECT_EQ(*Fixed3, InitTxn);

  // t2's read of priv has domain {t0, t1}: free. So is every
  // multi-writer read (both deposit transactions write acct).
  const Transaction &T2 = H.txn(2);
  EXPECT_EQ(Plan.fixedChoice(T2.Session, T2.Events.at(0).Pos), nullptr);
  History D = depositObserved();
  encode::EncodingPlan DPlan = encode::computeEncodingPlan(D);
  const Transaction &DT2 = D.txn(2);
  EXPECT_EQ(DPlan.fixedChoice(DT2.Session, DT2.Events.at(0).Pos), nullptr);
}

TEST(Prune, PlanMarksHbUnreachablePairs) {
  // privateKeyObserved: the sessions touch disjoint keys, so no hb path
  // can cross between them; t0 still reaches everything through so.
  History H = privateKeyObserved();
  encode::EncodingPlan Plan = encode::computeEncodingPlan(H);
  EXPECT_FALSE(Plan.hbPossible(1, 3));
  EXPECT_FALSE(Plan.hbPossible(3, 1));
  EXPECT_FALSE(Plan.hbPossible(2, 3));
  EXPECT_TRUE(Plan.hbPossible(InitTxn, 3));
  EXPECT_TRUE(Plan.hbPossible(1, 2)); // so within s0
}

TEST(Prune, PrunedEncodingShrinksAndCounts) {
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                     Strategy::ApproxRelaxed})
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadAtomic,
          IsolationLevel::ReadCommitted}) {
      SCOPED_TRACE(std::string(toString(S)) + "/" + toString(L));
      History H = crossReadObserved();
      PredictOptions O = opts(L, S);
      O.GenerateOnly = true;
      Prediction Plain = predict(H, O);
      O.PruneFormula = true;
      Prediction Pruned = predict(H, O);

      // The plain encoding reports no pruning; the pruned one reports
      // some and emits strictly fewer literals.
      EXPECT_EQ(Plain.Stats.PrunedVars, 0u);
      EXPECT_EQ(Plain.Stats.PrunedLits, 0u);
      EXPECT_GT(Pruned.Stats.PrunedVars, 0u);
      EXPECT_GT(Pruned.Stats.PrunedLits, 0u);
      EXPECT_LT(Pruned.Stats.NumLiterals, Plain.Stats.NumLiterals);

      // Per-pass counters sum to the totals (same contract as
      // PassStats literals vs NumLiterals).
      uint64_t Lits = 0, PV = 0, PL = 0;
      for (const PassStats &PS : Pruned.Stats.Passes) {
        Lits += PS.Literals;
        PV += PS.PrunedVars;
        PL += PS.PrunedLits;
      }
      EXPECT_EQ(Lits, Pruned.Stats.NumLiterals);
      EXPECT_EQ(PV, Pruned.Stats.PrunedVars);
      EXPECT_EQ(PL, Pruned.Stats.PrunedLits);
    }
}

TEST(Prune, PrunedVerdictsMatchOnHandBuiltHistories) {
  // Every canned history, every strategy/level: the pruned encoding
  // must agree with the default on sat/unsat.
  for (int HistIdx = 0; HistIdx < 5; ++HistIdx) {
    History H = HistIdx == 0   ? depositObserved()
                : HistIdx == 1 ? depositUnserializable()
                : HistIdx == 2 ? crossReadObserved()
                : HistIdx == 3 ? selfJustifyTrap()
                               : privateKeyObserved();
    for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                       Strategy::ApproxRelaxed})
      for (IsolationLevel L :
           {IsolationLevel::Causal, IsolationLevel::ReadAtomic,
            IsolationLevel::ReadCommitted}) {
        SCOPED_TRACE(formatString("hist=%d %s %s", HistIdx, toString(S),
                                  toString(L)));
        PredictOptions O = opts(L, S);
        Prediction Plain = predict(H, O);
        O.PruneFormula = true;
        Prediction Pruned = predict(H, O);
        EXPECT_EQ(Plain.Result, Pruned.Result);
      }
  }
}

//===----------------------------------------------------------------------===
// Pruning-equivalence sweep over the golden fixtures
//===----------------------------------------------------------------------===

namespace {

struct PruneGoldenCase {
  const char *App;
  IsolationLevel Level;
  Strategy Strat;
  uint64_t Seed;
  const char *Result;
  const char *Boundary;
  const char *Cut;
  const char *Witness;
};

const PruneGoldenCase PruneGoldenCases[] = {
#include "golden_predictions.inc"
};

History fixtureHistory(const std::string &App, uint64_t Seed) {
  auto Application = makeApplication(App);
  DataStore::Options O;
  O.Mode = StoreMode::SerialObserved;
  O.Level = IsolationLevel::Serializable;
  O.Seed = Seed;
  DataStore Store(O);
  return WorkloadRunner::run(*Application, Store,
                             WorkloadConfig::small(Seed))
      .Hist;
}

} // namespace

// The pruned encoding's correctness contract: sat/unsat-equivalence
// with the default encoding on every golden fixture, and every pruned
// Sat model must replay-validate — a non-diverged validating execution
// follows the predicted reads exactly and is therefore unserializable,
// so a "serializable" verdict without divergence would expose an
// unsound pruning rule. (Bit-identity is deliberately NOT part of the
// contract; boundaries, cuts, and witnesses may differ.)
TEST(Prune, PrunedPredictionsMatchGoldenVerdictsAndValidate) {
  constexpr unsigned TimeoutMs = 300000;
  for (const PruneGoldenCase &C : PruneGoldenCases) {
    SCOPED_TRACE(formatString("%s %s %s seed=%llu", C.App,
                              toString(C.Level), toString(C.Strat),
                              static_cast<unsigned long long>(C.Seed)));
    History H = fixtureHistory(C.App, C.Seed);
    PredictOptions O;
    O.Level = C.Level;
    O.Strat = C.Strat;
    O.TimeoutMs = TimeoutMs;
    O.PruneFormula = true;
    Prediction P = predict(H, O);
    EXPECT_STREQ(toString(P.Result), C.Result);

    if (P.Result == SmtResult::Sat) {
      auto Replay = makeApplication(C.App);
      ValidationResult V =
          validatePrediction(*Replay, WorkloadConfig::small(C.Seed), H, P,
                             C.Level, TimeoutMs);
      EXPECT_TRUE(V.St ==
                      ValidationResult::Status::ValidatedUnserializable ||
                  V.Diverged)
          << "non-diverged replay of a pruned prediction was "
             "serializable (validation: "
          << toString(V.St) << ")";
    }
  }
}

// Pruned sessions: the plan is computed once per session and shared by
// every query scope; verdicts must still match the fixtures.
TEST(Prune, PrunedSessionMatchesFixtures) {
  constexpr unsigned TimeoutMs = 300000;
  History H = fixtureHistory("smallbank", 1);
  PredictSession::Options SO;
  SO.PruneFormula = true;
  PredictSession Session(H, SO);
  for (const PruneGoldenCase &C : PruneGoldenCases) {
    if (std::string(C.App) != "smallbank" || C.Seed != 1)
      continue;
    SCOPED_TRACE(formatString("%s %s", toString(C.Level),
                              toString(C.Strat)));
    PredictSession::QueryOptions Q;
    Q.Level = C.Level;
    Q.Strat = C.Strat;
    Q.TimeoutMs = TimeoutMs;
    Prediction P = Session.query(Q);
    EXPECT_STREQ(toString(P.Result), C.Result);
  }
  EXPECT_GT(Session.numQueries(), 0u);
}

//===----------------------------------------------------------------------===
// The hb closure: causal queries only
//===----------------------------------------------------------------------===

namespace {

/// Generate-only query on a fixture history in one of the three
/// encodings: plain one-shot, pruned one-shot, or unbounded streaming.
enum class EncodeMode { Plain, Pruned, Streaming };

Prediction generate(const History &H, IsolationLevel L, Strategy S,
                    EncodeMode M) {
  if (M == EncodeMode::Streaming) {
    PredictSession::Options SO;
    SO.Streaming = true;
    PredictSession Session(H, SO);
    PredictSession::QueryOptions Q;
    Q.Level = L;
    Q.Strat = S;
    Q.GenerateOnly = true;
    return Session.query(Q);
  }
  PredictOptions O = opts(L, S);
  O.GenerateOnly = true;
  O.PruneFormula = M == EncodeMode::Pruned;
  return predict(H, O);
}

const char *toString(EncodeMode M) {
  switch (M) {
  case EncodeMode::Plain:
    return "plain";
  case EncodeMode::Pruned:
    return "pruned";
  case EncodeMode::Streaming:
    return "streaming";
  }
  return "?";
}

uint64_t passLiterals(const Prediction &P, const std::string &Name) {
  for (const PassStats &PS : P.Stats.Passes)
    if (PS.Name == Name)
      return PS.Literals;
  return 0;
}

bool hasPass(const Prediction &P, const std::string &Name) {
  for (const PassStats &PS : P.Stats.Passes)
    if (PS.Name == Name)
      return true;
  return false;
}

} // namespace

// Causal formulas are unchanged by moving the closure out of the
// feasibility and window passes: these totals were measured before the
// move, on smallbank seed 2 (only the per-pass attribution moved).
// Exact-Strict's row then grew by its observed-order instance: +200
// plain, +91 pruned and +119 streaming, where so and the off-plan wr
// fold to constants.
TEST(HbClosure, CausalLiteralCountsArePinned) {
  struct Pin {
    Strategy Strat;
    uint64_t Plain, Pruned, Streaming;
  };
  const Pin Pins[] = {{Strategy::ExactStrict, 11402, 4767, 7481},
                      {Strategy::ApproxStrict, 15778, 7630, 11938},
                      {Strategy::ApproxRelaxed, 15845, 7697, 12005}};
  History H = fixtureHistory("smallbank", 2);
  for (const Pin &P : Pins) {
    SCOPED_TRACE(toString(P.Strat));
    EXPECT_EQ(generate(H, IsolationLevel::Causal, P.Strat, EncodeMode::Plain)
                  .Stats.NumLiterals,
              P.Plain);
    EXPECT_EQ(
        generate(H, IsolationLevel::Causal, P.Strat, EncodeMode::Pruned)
            .Stats.NumLiterals,
        P.Pruned);
    EXPECT_EQ(
        generate(H, IsolationLevel::Causal, P.Strat, EncodeMode::Streaming)
            .Stats.NumLiterals,
        P.Streaming);
  }
}

// rc and ra embed so ∪ wr: no hb pass, and the passes they share with a
// causal query (the base, the window, the boundary link) carry exactly
// the causal query's literals — the closure is not hiding in them.
TEST(HbClosure, OnlyCausalQueriesBuildIt) {
  History H = fixtureHistory("smallbank", 2);
  for (EncodeMode M :
       {EncodeMode::Plain, EncodeMode::Pruned, EncodeMode::Streaming}) {
    Prediction Causal = generate(H, IsolationLevel::Causal,
                                 Strategy::ExactStrict, M);
    EXPECT_GT(passLiterals(Causal, "hb"), 0u) << toString(M);
    for (IsolationLevel L :
         {IsolationLevel::ReadCommitted, IsolationLevel::ReadAtomic}) {
      SCOPED_TRACE(std::string(toString(M)) + " " + toString(L));
      Prediction P = generate(H, L, Strategy::ExactStrict, M);
      EXPECT_FALSE(hasPass(P, "hb"));
      for (const char *Shared :
           {"feasibility", "window", "boundary-link", "exact-strict"})
        EXPECT_EQ(passLiterals(P, Shared), passLiterals(Causal, Shared))
            << Shared;
      uint64_t Sum = 0;
      for (const PassStats &PS : P.Stats.Passes)
        Sum += PS.Literals;
      EXPECT_EQ(Sum, P.Stats.NumLiterals);
    }
  }
}

//===----------------------------------------------------------------------===
// Exact-Strict's observed-order instance
//===----------------------------------------------------------------------===

namespace {

/// Feasibility with every boundary pinned to ∞ — the observed execution
/// itself — in one of the three encodings, on a fresh solver.
struct ObservedEncoding {
  SmtContext Ctx;
  SmtSolver Solver{Ctx};
  PredictOptions O = opts(IsolationLevel::ReadCommitted,
                          Strategy::ExactStrict);
  std::unique_ptr<encode::EncodingContext> EC;

  ObservedEncoding(const History &H, EncodeMode M) {
    O.PruneFormula = M == EncodeMode::Pruned;
    EC = std::make_unique<encode::EncodingContext>(
        H, O, Ctx, Solver, M == EncodeMode::Streaming);
    EncodingStats Stats;
    encode::EncoderPipeline::forSessionBase(O).run(*EC, Stats);
    EC->beginQuery(Strategy::ExactStrict);
    if (M == EncodeMode::Streaming)
      encode::WindowPass().run(*EC);
    encode::BoundaryLinkPass().run(*EC);
    for (const SmtExpr &B : EC->Boundary)
      Solver.add(Ctx.mkEq(B, Ctx.internIntVal(EC->Inf)));
  }
};

} // namespace

// The observed execution is serial in TxnId order, so no edge of it
// points backwards: feasibility plus every boundary at ∞ is sat, and
// adding the instance alone (without the ∀ it instantiates) makes it
// unsat. In every encoding, on every fixture history.
TEST(ObservedOrder, InstanceRulesOutTheObservedExecution) {
  std::set<std::pair<std::string, uint64_t>> Fixtures;
  for (const PruneGoldenCase &C : PruneGoldenCases)
    Fixtures.emplace(C.App, C.Seed);
  for (const auto &[App, Seed] : Fixtures) {
    History H = fixtureHistory(App, Seed);
    for (EncodeMode M :
         {EncodeMode::Plain, EncodeMode::Pruned, EncodeMode::Streaming}) {
      SCOPED_TRACE(formatString("%s seed=%llu %s", App.c_str(),
                                static_cast<unsigned long long>(Seed),
                                toString(M)));
      ObservedEncoding E(H, M);
      EXPECT_EQ(E.Solver.check(), SmtResult::Sat);
      SmtExpr Instance =
          encode::ExactStrictPass::observedOrderInstance(*E.EC);
      ASSERT_FALSE(E.Ctx.isTrue(Instance));
      E.Solver.add(Instance);
      EXPECT_EQ(E.Solver.check(), SmtResult::Unsat);
    }
  }
}

// The instance's literals are counted in the exact-strict pass: the
// pinned causal totals above grew by exactly these counts (the instance
// does not depend on the isolation level), and the per-pass literals
// still sum to the total.
TEST(ObservedOrder, InstanceLiteralsAreCountedInExactStrict) {
  History H = fixtureHistory("smallbank", 2);
  const std::pair<EncodeMode, uint64_t> Growth[] = {
      {EncodeMode::Plain, 200},
      {EncodeMode::Pruned, 91},
      {EncodeMode::Streaming, 119}};
  for (const auto &[M, Lits] : Growth) {
    SCOPED_TRACE(toString(M));
    ObservedEncoding E(H, M);
    EXPECT_EQ(encode::ExactStrictPass::observedOrderInstance(*E.EC).Lits,
              Lits);
    Prediction P = generate(H, IsolationLevel::ReadCommitted,
                            Strategy::ExactStrict, M);
    EXPECT_GT(passLiterals(P, "exact-strict"), Lits);
    uint64_t Sum = 0;
    for (const PassStats &PS : P.Stats.Passes)
      Sum += PS.Literals;
    EXPECT_EQ(Sum, P.Stats.NumLiterals);
  }
}
