//===- portfolio_test.cpp - Lane racing and its engine integration ------===//
//
// The portfolio's contract is sat/unsat-equivalence with the single-lane
// pipeline: whichever lane wins the race, the committed outcome must be
// the one predict() would have produced alone. The golden fixture grid
// (tests/golden_predictions.inc) pins exactly that surface, so the sweep
// below races every fixture and holds the winner to the fixture result —
// and replay-validates every winning Sat model.
//
//===----------------------------------------------------------------------===//

#include "apps/AppFramework.h"
#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "portfolio/Portfolio.h"
#include "support/Fs.h"
#include "support/Json.h"
#include "support/StrUtil.h"
#include "validate/Validate.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace isopredict;
using namespace isopredict::engine;
using namespace isopredict::portfolio;

namespace {

struct GoldenCase {
  const char *App;
  IsolationLevel Level;
  Strategy Strat;
  uint64_t Seed;
  const char *Result;
  const char *Boundary;
  const char *Cut;
  const char *Witness;
};

const GoldenCase GoldenCases[] = {
#include "golden_predictions.inc"
};

/// Same margin as golden_test: fixture configurations solve in seconds.
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

std::string scratchDir(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  std::string Dir =
      pathJoin(testing::TempDir(),
               formatString("isopredict-%s-%ld-%u", Tag,
                            static_cast<long>(::getpid()),
                            Counter.fetch_add(1)));
  EXPECT_TRUE(createDirectories(Dir));
  return Dir;
}

class PortfolioGolden : public ::testing::TestWithParam<size_t> {};

} // namespace

//===----------------------------------------------------------------------===
// Golden sweep: every fixture, raced, must commit the fixture outcome
//===----------------------------------------------------------------------===

TEST_P(PortfolioGolden, RaceCommitsFixtureOutcome) {
  const GoldenCase &C = GoldenCases[GetParam()];
  SCOPED_TRACE(formatString("%s %s %s seed=%llu", C.App, toString(C.Level),
                            toString(C.Strat),
                            static_cast<unsigned long long>(C.Seed)));
  History H = observedHistory(C.App, C.Seed);

  PredictOptions Base;
  Base.Level = C.Level;
  Base.Strat = C.Strat;
  Base.TimeoutMs = GoldenTimeoutMs;

  std::vector<LaneSpec> Lanes = buildLanes(Base, 4);
  ASSERT_GE(Lanes.size(), 2u);
  EXPECT_EQ(Lanes[0].Name, "reference");

  Validator Validate = [&](const Prediction &P) {
    auto Replay = makeApplication(C.App);
    return validatePrediction(*Replay, WorkloadConfig::small(C.Seed), H, P,
                              C.Level, GoldenTimeoutMs);
  };

  RaceResult R = race(H, Base, Lanes, Validate);

  // Every fixture decides well within the timeout, so some lane must
  // have committed — and committed the single-lane answer.
  ASSERT_GE(R.Winner, 0);
  const LaneRun &W = R.Lanes[static_cast<size_t>(R.Winner)];
  EXPECT_FALSE(W.P.Canceled);
  EXPECT_STREQ(toString(W.P.Result), C.Result);

  // The reference lane's generation is never interrupted (only the
  // solver check is): even when another lane wins first, it carries
  // exactly the single-lane literal count. (A canceled Approx query may
  // skip its rank-encoding fallback; FallbackLiterals counts that part.)
  Prediction Solo = predict(H, Base);
  EXPECT_EQ(R.Lanes[0].P.Stats.NumLiterals, Solo.Stats.NumLiterals);

  // A winning Sat model must be a concrete unserializability proof: a
  // non-diverged validating replay follows the predicted reads exactly
  // and is therefore unserializable.
  if (W.P.Result == SmtResult::Sat) {
    ASSERT_TRUE(W.Val.has_value());
    EXPECT_TRUE(W.Val->St ==
                    ValidationResult::Status::ValidatedUnserializable ||
                W.Val->Diverged)
        << "non-diverged replay of a winning lane's model was "
           "serializable (validation: "
        << toString(W.Val->St) << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PortfolioGolden,
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

//===----------------------------------------------------------------------===
// Lane taxonomy
//===----------------------------------------------------------------------===

TEST(PortfolioLanes, ReferenceLaneIsTheQueryConfiguration) {
  PredictOptions Q;
  Q.Strat = Strategy::ApproxStrict;
  Q.PruneFormula = true;
  std::vector<LaneSpec> Lanes = buildLanes(Q, 8);
  ASSERT_FALSE(Lanes.empty());
  EXPECT_EQ(Lanes[0].Name, "reference");
  EXPECT_TRUE(Lanes[0].Prune);
  EXPECT_TRUE(Lanes[0].SolverParams.empty());
  // MaxLanes caps the taxonomy; 1 degenerates to the reference lane.
  EXPECT_EQ(buildLanes(Q, 1).size(), 1u);
  EXPECT_LE(buildLanes(Q, 3).size(), 3u);
}

// Every lane answers the query's own strategy, so the taxonomy is the
// same for all three: the reference, the prune toggle and the Z3
// presets.
TEST(PortfolioLanes, EveryStrategyGetsTheWholeTaxonomy) {
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                     Strategy::ApproxRelaxed}) {
    SCOPED_TRACE(toString(S));
    PredictOptions Q;
    Q.Strat = S;
    std::vector<LaneSpec> Lanes = buildLanes(Q, 100);
    ASSERT_EQ(Lanes.size(), TaxonomySize);
    std::vector<std::string> Names;
    for (const LaneSpec &L : Lanes)
      Names.push_back(L.Name);
    EXPECT_EQ(Names, (std::vector<std::string>{"reference", "unpruned",
                                               "arith2", "seed7",
                                               "relevancy0"}));
  }
}

//===----------------------------------------------------------------------===
// JobResult wire format: lanes, winning_lane, canceled
//===----------------------------------------------------------------------===

namespace {

JobSpec predictSpec() {
  JobSpec S;
  S.Kind = JobKind::Predict;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(1);
  S.Level = IsolationLevel::Causal;
  S.Strat = Strategy::ApproxStrict;
  return S;
}

} // namespace

TEST(PortfolioJobIo, LaneRecordsRoundTrip) {
  JobResult R;
  R.Spec = predictSpec();
  R.Ok = true;
  R.Outcome = SmtResult::Sat;
  R.WinningLane = "pruned";
  R.Stats.NumLiterals = 1234;
  R.Stats.FallbackLiterals = 567;
  LaneResult Ref;
  Ref.Name = "reference";
  Ref.Outcome = SmtResult::Unknown;
  Ref.Canceled = true;
  Ref.GenSeconds = 0.25;
  Ref.SolveSeconds = 1.5;
  Ref.Literals = 1234;
  Ref.Seconds = 1.8;
  LaneResult Win;
  Win.Name = "pruned";
  Win.Prune = true;
  Win.Outcome = SmtResult::Sat;
  Win.Seconds = 0.9;
  Win.Stats.Collected = true;
  Win.Stats.Conflicts = 42;
  LaneResult Slow;
  Slow.Name = "arith2";
  Slow.TimedOut = true;
  R.Lanes = {Ref, Win, Slow};

  ReportOptions Timed;
  Timed.IncludeTimings = true;
  JsonWriter J;
  J.openObject();
  writeJobFields(J, R, Timed);
  J.closeObject();
  std::string Json = J.take();

  std::string Error;
  std::optional<JsonValue> Doc = parseJson(Json, &Error);
  ASSERT_TRUE(Doc) << Error;
  std::optional<JobResult> Back = jobResultFromJson(*Doc, &Error);
  ASSERT_TRUE(Back) << Error;

  EXPECT_EQ(Back->WinningLane, "pruned");
  EXPECT_EQ(Back->Stats.NumLiterals, 1234u);
  EXPECT_EQ(Back->Stats.FallbackLiterals, 567u);
  ASSERT_EQ(Back->Lanes.size(), 3u);
  EXPECT_EQ(Back->Lanes[0].Name, "reference");
  EXPECT_TRUE(Back->Lanes[0].Canceled);
  EXPECT_FALSE(Back->Lanes[0].TimedOut);
  EXPECT_EQ(Back->Lanes[0].Literals, 1234u);
  EXPECT_NEAR(Back->Lanes[0].SolveSeconds, 1.5, 1e-9);
  EXPECT_EQ(Back->Lanes[1].Name, "pruned");
  EXPECT_TRUE(Back->Lanes[1].Prune);
  EXPECT_EQ(Back->Lanes[1].Outcome, SmtResult::Sat);
  EXPECT_TRUE(Back->Lanes[1].Stats.Collected);
  EXPECT_EQ(Back->Lanes[1].Stats.Conflicts, 42u);
  EXPECT_TRUE(Back->Lanes[2].TimedOut);
  EXPECT_FALSE(Back->Lanes[2].Canceled);

  // Re-emitting the parsed result reproduces the original bytes — the
  // JobIo invariant the cache and shard merger stand on.
  JsonWriter J2;
  J2.openObject();
  writeJobFields(J2, *Back, Timed);
  J2.closeObject();
  EXPECT_EQ(J2.take(), Json);

  // Lane records are run-dependent (which lane wins is a race): the
  // deterministic default format must not carry them.
  JsonWriter J3;
  J3.openObject();
  writeJobFields(J3, R, ReportOptions{});
  J3.closeObject();
  std::string Plain = J3.take();
  EXPECT_EQ(Plain.find("winning_lane"), std::string::npos);
  EXPECT_EQ(Plain.find("\"lanes\""), std::string::npos);
}

TEST(PortfolioJobIo, CanceledIsDistinctFromTimeout) {
  // "canceled" mirrors "timeout": outcome-shaped (not timing-gated),
  // emitted only when set, and round-trips exactly.
  JobResult R;
  R.Spec = predictSpec();
  R.Ok = true;
  R.Outcome = SmtResult::Unknown;
  R.Canceled = true;

  JsonWriter J;
  J.openObject();
  writeJobFields(J, R, ReportOptions{});
  J.closeObject();
  std::string Json = J.take();
  EXPECT_NE(Json.find("\"canceled\": true"), std::string::npos);
  EXPECT_EQ(Json.find("\"timeout\""), std::string::npos);

  std::string Error;
  std::optional<JsonValue> Doc = parseJson(Json, &Error);
  ASSERT_TRUE(Doc) << Error;
  std::optional<JobResult> Back = jobResultFromJson(*Doc, &Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_TRUE(Back->Canceled);
  EXPECT_FALSE(Back->TimedOut);
}

//===----------------------------------------------------------------------===
// Engine integration: determinism across worker counts and vs single-lane
//===----------------------------------------------------------------------===

namespace {

/// Unsat-heavy grid (voter under causal is unsat on both seeds): no
/// witnesses or models in the report, so portfolio and single-lane
/// default bytes must be *identical*, not merely outcome-equivalent.
Campaign voterCausalCampaign() {
  Campaign C;
  C.Name = "portfolio-test";
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict,
                     Strategy::ApproxRelaxed})
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      JobSpec J;
      J.Kind = JobKind::Predict;
      J.App = "voter";
      J.Cfg = WorkloadConfig::small(Seed);
      J.Level = IsolationLevel::Causal;
      J.Strat = S;
      J.TimeoutMs = GoldenTimeoutMs;
      C.Jobs.push_back(std::move(J));
    }
  return C;
}

Report runEngine(const Campaign &C, unsigned Workers, unsigned Lanes,
                 const std::string &CacheDir = {}) {
  EngineOptions O;
  O.NumWorkers = Workers;
  O.PortfolioLanes = Lanes;
  O.CacheDir = CacheDir;
  return Engine(O).run(C);
}

} // namespace

TEST(PortfolioEngine, ReportBytesAreWorkerCountAndLaneInvariant) {
  Campaign C = voterCausalCampaign();
  std::string J1 = runEngine(C, 1, 4).toJson();
  std::string J4 = runEngine(C, 4, 4).toJson();
  EXPECT_EQ(J1, J4) << "portfolio report bytes depend on worker count";

  std::string Single = runEngine(C, 2, 0).toJson();
  EXPECT_EQ(Single, J1)
      << "unsat outcomes must serialize identically with and without "
         "the portfolio";
}

TEST(PortfolioEngine, CacheDirHoldsOnlyResultEntries) {
  std::string Dir = scratchDir("engine-portfolio-cache");
  Campaign C = voterCausalCampaign();
  Report R = runEngine(C, 2, 4, Dir);

  ASSERT_EQ(R.size(), C.size());
  for (const JobResult &Job : R.results()) {
    EXPECT_TRUE(Job.Ok);
    EXPECT_EQ(Job.Outcome, SmtResult::Unsat);
    EXPECT_FALSE(Job.Canceled) << "engine results never surface an "
                                  "interrupted lane as the job outcome";
    EXPECT_FALSE(Job.WinningLane.empty());
    ASSERT_FALSE(Job.Lanes.empty());
    EXPECT_EQ(Job.Lanes[0].Name, "reference");
    bool WinnerListed = false;
    for (const LaneResult &L : Job.Lanes)
      WinnerListed |= L.Name == Job.WinningLane;
    EXPECT_TRUE(WinnerListed);
  }

  // Races leave no state behind but their results: the cache's version
  // directory holds one entry file per job and nothing else (no lane
  // tallies that a later race would read).
  std::string VersionDir = pathJoin(Dir, toolVersion());
  EXPECT_FALSE(pathExists(pathJoin(VersionDir, "lanes")));
  size_t Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(VersionDir)) {
    EXPECT_TRUE(E.is_regular_file()) << E.path();
    EXPECT_EQ(E.path().extension(), ".json") << E.path();
    ++Entries;
  }
  EXPECT_EQ(Entries, C.size());

  // A second run over the same directory commits the same outcomes.
  Report R2 = runEngine(C, 2, 4, Dir);
  EXPECT_EQ(R2.toJson(), R.toJson());
}
