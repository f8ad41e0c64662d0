//===- end2end_test.cpp - Full pipeline tests over the benchmarks -*- C++ -*-===//
//
// Runs the paper's complete pipeline — observed execution -> predictive
// analysis -> validation — over the four OLTP benchmarks and checks the
// structural guarantees that must hold for every prediction, plus the
// headline per-benchmark results (Voter-causal unsat, rc >= causal,
// relaxed >= strict).
//
//===----------------------------------------------------------------------===//

#include "validate/Validate.h"

#include <gtest/gtest.h>
#include <map>

using namespace isopredict;

namespace {

History observedRun(Application &App, const WorkloadConfig &Cfg) {
  DataStore::Options O;
  O.Mode = StoreMode::SerialObserved;
  O.Level = IsolationLevel::Serializable;
  O.Seed = Cfg.Seed;
  DataStore Store(O);
  return WorkloadRunner::run(App, Store, Cfg).Hist;
}

PredictOptions opts(IsolationLevel L, Strategy S) {
  PredictOptions O;
  O.Level = L;
  O.Strat = S;
  // Solver timeouts surface as Unknown and are treated like the paper's
  // T/O entries; keep the suite fast.
  O.TimeoutMs = 15000;
  return O;
}

struct PipelineCase {
  std::string AppName;
  uint64_t Seed;
  IsolationLevel Level;
  Strategy Strat;
};

class PipelineTest
    : public ::testing::TestWithParam<
          std::tuple<const char *, uint64_t, int, int>> {
public:
  PipelineCase param() const {
    auto [Name, Seed, L, S] = GetParam();
    return {Name, Seed,
            L == 0 ? IsolationLevel::Causal : IsolationLevel::ReadCommitted,
            S == 0 ? Strategy::ApproxStrict : Strategy::ApproxRelaxed};
  }
};

} // namespace

TEST_P(PipelineTest, PredictionsAreSoundAndMostlyValidate) {
  PipelineCase C = param();
  auto App = makeApplication(C.AppName);
  ASSERT_NE(App, nullptr);
  WorkloadConfig Cfg = WorkloadConfig::small(C.Seed);
  History Observed = observedRun(*App, Cfg);

  Prediction P = predict(Observed, opts(C.Level, C.Strat));
  if (P.Result == SmtResult::Unknown)
    GTEST_SKIP() << "solver timeout (the paper reports these as T/O)";
  if (P.Result == SmtResult::Unsat)
    return;

  // Soundness of the prediction itself.
  EXPECT_TRUE(satisfiesLevel(P.Predicted, C.Level))
      << "prediction violates " << toString(C.Level);
  EXPECT_EQ(checkSerializableSmt(P.Predicted, 60000),
            SerResult::Unserializable)
      << "prediction is not actually unserializable";
  EXPECT_FALSE(P.Witness.empty());

  // Validation must produce a level-conforming execution; it may diverge
  // and occasionally come out serializable (the paper's <1% case).
  auto AppForReplay = makeApplication(C.AppName);
  ValidationResult V = validatePrediction(*AppForReplay, Cfg, Observed, P,
                                          C.Level, 60000);
  ASSERT_NE(V.St, ValidationResult::Status::NoPrediction);
  EXPECT_TRUE(satisfiesLevel(V.Validating, C.Level));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineTest,
    ::testing::Combine(::testing::Values("smallbank", "voter", "tpcc",
                                         "wikipedia"),
                       ::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Range(0, 2), ::testing::Range(0, 2)));

//===----------------------------------------------------------------------===
// Headline aggregate results (deterministic: fixed seeds)
//===----------------------------------------------------------------------===

namespace {

unsigned countSat(const std::string &AppName, IsolationLevel L, Strategy S,
                  unsigned Seeds) {
  unsigned Sat = 0;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    auto App = makeApplication(AppName);
    WorkloadConfig Cfg = WorkloadConfig::small(Seed);
    History Observed = observedRun(*App, Cfg);
    if (predict(Observed, opts(L, S)).Result == SmtResult::Sat)
      ++Sat;
  }
  return Sat;
}

} // namespace

TEST(Headline, VoterHasNoCausalPredictions) {
  // Footnote 5: a single writing transaction cannot yield a causal
  // unserializable prediction.
  EXPECT_EQ(countSat("voter", IsolationLevel::Causal,
                     Strategy::ApproxRelaxed, 5),
            0u);
}

TEST(Headline, VoterAlwaysPredictsUnderRc) {
  EXPECT_EQ(countSat("voter", IsolationLevel::ReadCommitted,
                     Strategy::ApproxStrict, 5),
            5u);
}

TEST(Headline, SmallbankPredictsUnderCausal) {
  EXPECT_GT(countSat("smallbank", IsolationLevel::Causal,
                     Strategy::ApproxRelaxed, 5),
            0u);
}

TEST(Headline, RcPredictsAtLeastAsOftenAsCausal) {
  for (const char *Name : {"smallbank", "voter", "wikipedia"}) {
    unsigned Causal =
        countSat(Name, IsolationLevel::Causal, Strategy::ApproxRelaxed, 3);
    unsigned Rc = countSat(Name, IsolationLevel::ReadCommitted,
                           Strategy::ApproxRelaxed, 3);
    EXPECT_LE(Causal, Rc) << Name;
  }
}

TEST(Headline, RelaxedPredictsAtLeastAsOftenAsStrict) {
  for (const char *Name : {"smallbank", "tpcc"}) {
    unsigned Strict =
        countSat(Name, IsolationLevel::Causal, Strategy::ApproxStrict, 3);
    unsigned Relaxed =
        countSat(Name, IsolationLevel::Causal, Strategy::ApproxRelaxed, 3);
    EXPECT_LE(Strict, Relaxed) << Name;
  }
}

TEST(Headline, DisablingRwOnlyLosesPredictions) {
  // The rw ablation (§4.2.2, Fig. 5): without anti-dependency edges pco
  // has fewer edges, so no seed gains a prediction, and Sat without rw
  // <= Sat with rw per app. Only the seeds that have no prediction with
  // rw can break that, so only they are solved again without it. (The
  // seeds that lose their prediction at this scale lose it to the
  // timeout: without rw the rank encoding runs past 15 s on tpcc and
  // wikipedia, so a decided loss is asserted on the deposit example
  // instead, predict_test `Predict.DisablingRwLosesTheFigure5Prediction`.)
  for (const std::string &Name : applicationNames())
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      auto App = makeApplication(Name);
      History Observed = observedRun(*App, WorkloadConfig::small(Seed));
      PredictOptions O = opts(IsolationLevel::Causal, Strategy::ApproxRelaxed);
      if (predict(Observed, O).Result == SmtResult::Sat)
        continue;
      O.EnableRw = false;
      EXPECT_NE(predict(Observed, O).Result, SmtResult::Sat)
          << Name << " seed " << Seed;
    }
}
