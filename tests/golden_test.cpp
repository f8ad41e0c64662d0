//===- golden_test.cpp - Golden-equivalence fixtures for predict() -------===//
//
// Pins predict()'s observable behaviour — Result, BoundaryPos, CutPos,
// and the witness cycle — on the seed workloads. The verdicts are the
// contract: every Sat model must also replay-validate. Boundary, cut,
// and witness pin the current encoding's models, so an encoding change
// that moves them regenerates the fixtures (Result must not move).
//
// The fixture grid only contains configurations whose solver time is far
// below the 300 s timeout, so outcomes are machine-independent.
//
// Regenerate fixtures (writes the .inc and exits without asserting):
//   ISOPREDICT_GOLDEN_REGEN=tests/golden_predictions.inc ./golden_test
//
//===----------------------------------------------------------------------===//

#include "apps/AppFramework.h"
#include "predict/Predict.h"
#include "predict/PredictSession.h"
#include "support/Env.h"
#include "support/StrUtil.h"
#include "validate/Validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace isopredict;

namespace {

struct GoldenCase {
  const char *App;
  IsolationLevel Level;
  Strategy Strat;
  uint64_t Seed;
  const char *Result;   ///< Expected toString(Prediction::Result).
  const char *Boundary; ///< Comma-joined BoundaryPos, "inf" = InfPos.
  const char *Cut;      ///< Comma-joined CutPos, "inf" = InfPos.
  const char *Witness;  ///< Comma-joined witness cycle txn ids.
};

const GoldenCase GoldenCases[] = {
#include "golden_predictions.inc"
};

/// Per-query solver timeout. Fixture configurations solve in seconds, so
/// this margin keeps outcomes deterministic across machines.
constexpr unsigned GoldenTimeoutMs = 300000;

History observedHistory(const std::string &App, uint64_t Seed) {
  auto Application = makeApplication(App);
  DataStore::Options O;
  O.Mode = StoreMode::SerialObserved;
  O.Level = IsolationLevel::Serializable;
  O.Seed = Seed;
  DataStore Store(O);
  return WorkloadRunner::run(*Application, Store, WorkloadConfig::small(Seed))
      .Hist;
}

std::string joinPositions(const std::vector<uint32_t> &Ps) {
  std::string Out;
  for (size_t I = 0; I < Ps.size(); ++I) {
    if (I)
      Out += ',';
    Out += Ps[I] == InfPos ? "inf" : formatString("%u", Ps[I]);
  }
  return Out;
}

std::string joinTxns(const std::vector<TxnId> &Ts) {
  std::string Out;
  for (size_t I = 0; I < Ts.size(); ++I) {
    if (I)
      Out += ',';
    Out += formatString("%u", Ts[I]);
  }
  return Out;
}

/// A non-diverged validating execution follows the predicted reads
/// exactly and is therefore unserializable, so a "serializable" verdict
/// without divergence would expose an unsound encoding.
void expectReplayValidates(const std::string &App, uint64_t Seed,
                           const Prediction &P, IsolationLevel Level) {
  History H = observedHistory(App, Seed);
  auto Replay = makeApplication(App);
  ValidationResult V = validatePrediction(*Replay, WorkloadConfig::small(Seed),
                                          H, P, Level, GoldenTimeoutMs);
  EXPECT_TRUE(V.St == ValidationResult::Status::ValidatedUnserializable ||
              V.Diverged)
      << "non-diverged replay of a Sat prediction was serializable "
         "(validation: "
      << toString(V.St) << ")";
}

Prediction runCase(const char *App, IsolationLevel Level, Strategy Strat,
                   uint64_t Seed) {
  History H = observedHistory(App, Seed);
  PredictOptions Opts;
  Opts.Level = Level;
  Opts.Strat = Strat;
  Opts.TimeoutMs = GoldenTimeoutMs;
  return predict(H, Opts);
}

const char *levelLiteral(IsolationLevel L) {
  switch (L) {
  case IsolationLevel::Causal:
    return "IsolationLevel::Causal";
  case IsolationLevel::ReadAtomic:
    return "IsolationLevel::ReadAtomic";
  case IsolationLevel::ReadCommitted:
    return "IsolationLevel::ReadCommitted";
  case IsolationLevel::Serializable:
    break;
  }
  return "IsolationLevel::Serializable";
}

const char *strategyLiteral(Strategy S) {
  switch (S) {
  case Strategy::ExactStrict:
    return "Strategy::ExactStrict";
  case Strategy::ApproxStrict:
    return "Strategy::ApproxStrict";
  case Strategy::ApproxRelaxed:
    return "Strategy::ApproxRelaxed";
  }
  return "Strategy::ApproxRelaxed";
}

/// The fixture grid; used only by regeneration. Fast, deterministic
/// configurations only (see file comment).
std::vector<GoldenCase> fixtureGrid() {
  std::vector<GoldenCase> Grid;
  for (const char *App : {"smallbank", "voter"})
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadAtomic,
          IsolationLevel::ReadCommitted})
      for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                         Strategy::ApproxRelaxed})
        for (uint64_t Seed : {1, 2})
          Grid.push_back({App, L, S, Seed, "", "", "", ""});
  for (IsolationLevel L :
       {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
    Grid.push_back(
        {"tpcc", L, Strategy::ApproxRelaxed, 1, "", "", "", ""});
  Grid.push_back({"wikipedia", IsolationLevel::Causal,
                  Strategy::ApproxRelaxed, 1, "", "", "", ""});
  return Grid;
}

int regenerate(const std::string &Path) {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", Path.c_str());
    return 1;
  }
  std::fprintf(Out, "// Generated by: ISOPREDICT_GOLDEN_REGEN=%s "
                    "./golden_test\n// clang-format off\n",
               Path.c_str());
  for (const GoldenCase &C : fixtureGrid()) {
    Prediction P = runCase(C.App, C.Level, C.Strat, C.Seed);
    std::fprintf(
        Out,
        "{\"%s\", %s, %s, %llu,\n \"%s\", \"%s\", \"%s\", \"%s\"},\n",
        C.App, levelLiteral(C.Level), strategyLiteral(C.Strat),
        static_cast<unsigned long long>(C.Seed), toString(P.Result),
        joinPositions(P.BoundaryPos).c_str(),
        joinPositions(P.CutPos).c_str(), joinTxns(P.Witness).c_str());
    std::fprintf(stderr, "regen: %s %s %s seed=%llu: %s\n", C.App,
                 toString(C.Level), toString(C.Strat),
                 static_cast<unsigned long long>(C.Seed),
                 toString(P.Result));
  }
  std::fprintf(Out, "// clang-format on\n");
  std::fclose(Out);
  return 0;
}

class Golden : public ::testing::TestWithParam<size_t> {};

} // namespace

TEST_P(Golden, PredictionMatchesFixture) {
  const GoldenCase &C = GoldenCases[GetParam()];
  SCOPED_TRACE(formatString("%s %s %s seed=%llu", C.App, toString(C.Level),
                            toString(C.Strat),
                            static_cast<unsigned long long>(C.Seed)));
  Prediction P = runCase(C.App, C.Level, C.Strat, C.Seed);
  EXPECT_STREQ(toString(P.Result), C.Result);
  EXPECT_EQ(joinPositions(P.BoundaryPos), C.Boundary);
  EXPECT_EQ(joinPositions(P.CutPos), C.Cut);
  EXPECT_EQ(joinTxns(P.Witness), C.Witness);
  if (P.Result == SmtResult::Sat)
    expectReplayValidates(C.App, C.Seed, P, C.Level);
}

// One encoding per query: predict() and a fresh session's first query()
// build the same constraint system — same passes, same literals per
// pass.
TEST_P(Golden, OneShotEncodingMatchesFirstSessionQuery) {
  const GoldenCase &C = GoldenCases[GetParam()];
  History H = observedHistory(C.App, C.Seed);
  PredictOptions Opts;
  Opts.Level = C.Level;
  Opts.Strat = C.Strat;
  Opts.GenerateOnly = true;
  Prediction OneShot = predict(H, Opts);

  PredictSession Session(H);
  PredictSession::QueryOptions Q;
  Q.Level = C.Level;
  Q.Strat = C.Strat;
  Q.GenerateOnly = true;
  Prediction First = Session.query(Q);

  EXPECT_EQ(OneShot.Stats.NumLiterals, First.Stats.NumLiterals);
  EXPECT_EQ(OneShot.Stats.BasePrefixReused, First.Stats.BasePrefixReused);
  ASSERT_EQ(OneShot.Stats.Passes.size(), First.Stats.Passes.size());
  for (size_t I = 0; I < OneShot.Stats.Passes.size(); ++I) {
    EXPECT_EQ(OneShot.Stats.Passes[I].Name, First.Stats.Passes[I].Name);
    EXPECT_EQ(OneShot.Stats.Passes[I].Literals,
              First.Stats.Passes[I].Literals)
        << OneShot.Stats.Passes[I].Name;
  }
}

// One solver discipline: predict() is a fresh session's first query(),
// scopes included, so the two return the same answer and the same model.
TEST_P(Golden, OneShotAnswerMatchesFirstSessionQuery) {
  const GoldenCase &C = GoldenCases[GetParam()];
  History H = observedHistory(C.App, C.Seed);
  Prediction OneShot = runCase(C.App, C.Level, C.Strat, C.Seed);

  PredictSession Session(H);
  PredictSession::QueryOptions Q;
  Q.Level = C.Level;
  Q.Strat = C.Strat;
  Q.TimeoutMs = GoldenTimeoutMs;
  Prediction First = Session.query(Q);

  EXPECT_EQ(OneShot.Result, First.Result);
  EXPECT_EQ(joinPositions(OneShot.BoundaryPos),
            joinPositions(First.BoundaryPos));
  EXPECT_EQ(joinPositions(OneShot.CutPos), joinPositions(First.CutPos));
  EXPECT_EQ(joinTxns(OneShot.Witness), joinTxns(First.Witness));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Golden,
    ::testing::Range<size_t>(0, std::size(GoldenCases)),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      const GoldenCase &C = GoldenCases[Info.param];
      std::string Name =
          formatString("%s_%s_%s_s%llu", C.App, toString(C.Level),
                       toString(C.Strat),
                       static_cast<unsigned long long>(C.Seed));
      for (char &Ch : Name)
        if (!std::isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

// Session sweep over the same fixture grid: one PredictSession per
// observed history answers every (level × strategy) fixture on it. A
// session's first query is predict() and matches its whole fixture row.
// Later queries reuse a solver that answered earlier scopes, which
// legitimately moves *models*, so only their Result is pinned — and
// every Sat prediction must still replay-validate.
TEST(SessionEquivalence, ResultsMatchFixturesAcrossSharedSessions) {
  // Group fixtures by observed history, preserving fixture order.
  std::vector<std::pair<std::pair<std::string, uint64_t>,
                        std::vector<const GoldenCase *>>>
      Groups;
  for (const GoldenCase &C : GoldenCases) {
    std::pair<std::string, uint64_t> Key{C.App, C.Seed};
    auto It = std::find_if(Groups.begin(), Groups.end(),
                           [&](const auto &G) { return G.first == Key; });
    if (It == Groups.end()) {
      Groups.push_back({Key, {}});
      It = std::prev(Groups.end());
    }
    It->second.push_back(&C);
  }

  for (const auto &[Key, Cases] : Groups) {
    const auto &[App, Seed] = Key;
    History H = observedHistory(App, Seed);
    PredictSession Session(H);
    size_t Encoded = 0;

    for (const GoldenCase *C : Cases) {
      SCOPED_TRACE(formatString("%s %s %s seed=%llu (session query %zu)",
                                C->App, toString(C->Level),
                                toString(C->Strat),
                                static_cast<unsigned long long>(C->Seed),
                                Session.numQueries()));
      PredictSession::QueryOptions Q;
      Q.Level = C->Level;
      Q.Strat = C->Strat;
      Q.TimeoutMs = GoldenTimeoutMs;
      Prediction P = Session.query(Q);
      EXPECT_STREQ(toString(P.Result), C->Result);
      if (Session.numQueries() == 1) {
        EXPECT_EQ(joinPositions(P.BoundaryPos), C->Boundary);
        EXPECT_EQ(joinPositions(P.CutPos), C->Cut);
        EXPECT_EQ(joinTxns(P.Witness), C->Witness);
      }

      // The shared prefix is encoded at most once per session: every
      // encoded query after the first reuses it.
      if (Session.baseEncoded()) {
        EXPECT_EQ(P.Stats.BasePrefixReused, ++Encoded > 1);
        EXPECT_GT(Session.baseLiterals(), 0u);
      }

      if (P.Result == SmtResult::Sat)
        expectReplayValidates(App, Seed, P, C->Level);
    }
    EXPECT_EQ(Session.numQueries(), Cases.size());
  }
}

int main(int argc, char **argv) {
  std::string Regen = envString("ISOPREDICT_GOLDEN_REGEN", "");
  if (!Regen.empty())
    return regenerate(Regen);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
