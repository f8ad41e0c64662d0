//===- engine_test.cpp - Campaign engine tests ----------------*- C++ -*-===//

#include "engine/Engine.h"

#include "TestUtil.h"
#include "engine/Executor.h"
#include "engine/JobIo.h"
#include "engine/ReportDiff.h"
#include "server/Protocol.h"
#include "smt/Smt.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// A campaign covering every job kind whose outcomes are all decided
/// well within the timeout, so results are solver-schedule-independent.
Campaign mixedCampaign() {
  Campaign C;
  C.Name = "engine-test";
  for (const std::string &App : applicationNames())
    for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
      JobSpec J;
      J.Kind = JobKind::Observe;
      J.App = App;
      J.Cfg = WorkloadConfig::small(Seed);
      C.Jobs.push_back(std::move(J));
    }
  {
    JobSpec J; // A Sat prediction that validates (fast).
    J.Kind = JobKind::Predict;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(2);
    J.Level = IsolationLevel::Causal;
    J.Strat = Strategy::ApproxRelaxed;
    J.TimeoutMs = 60000;
    C.Jobs.push_back(std::move(J));
  }
  for (uint64_t R = 1; R <= 3; ++R) {
    JobSpec J;
    J.Kind = JobKind::RandomWeak;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(1);
    J.Level = IsolationLevel::Causal;
    J.StoreSeed = R * 1000 + 7;
    J.TimeoutMs = 60000;
    C.Jobs.push_back(std::move(J));
  }
  {
    JobSpec J;
    J.Kind = JobKind::LockingRc;
    J.App = "voter";
    J.Cfg = WorkloadConfig::small(1);
    J.StoreSeed = 99;
    C.Jobs.push_back(std::move(J));
  }
  return C;
}

Report runWith(const Campaign &C, unsigned Workers) {
  EngineOptions O;
  O.NumWorkers = Workers;
  return Engine(O).run(C);
}

/// smallbank and voter x causal, rc x \p Strategies x seeds 1-2: the
/// grid that shared encodings, the identity plan and streaming must
/// answer as the default one-shot jobs do.
Campaign twoAppGrid(const char *Name, std::vector<Strategy> Strategies) {
  return Campaign::predictGrid(
      Name, {"smallbank", "voter"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted}, Strategies,
      {false}, 2, 60000);
}

} // namespace

TEST(Engine, DeterministicAcrossWorkerCounts) {
  Campaign C = mixedCampaign();
  std::string Json1 = runWith(C, 1).toJson();
  std::string Json2 = runWith(C, 2).toJson();
  std::string Json4 = runWith(C, 4).toJson();
  // Byte-identical reports regardless of parallelism: results land in
  // campaign order and timings are excluded by default.
  EXPECT_EQ(Json1, Json2);
  EXPECT_EQ(Json1, Json4);
  EXPECT_NE(Json1.find("\"validation\": \"validated-unserializable\""),
            std::string::npos);
}

TEST(Engine, ResultsLandInCampaignOrder) {
  Campaign C = mixedCampaign();
  Report R = runWith(C, 3);
  ASSERT_EQ(R.size(), C.size());
  for (size_t I = 0; I < C.size(); ++I) {
    EXPECT_EQ(R.results()[I].Spec.Kind, C.Jobs[I].Kind);
    EXPECT_EQ(R.results()[I].Spec.App, C.Jobs[I].App);
    EXPECT_EQ(R.results()[I].Spec.Cfg.Seed, C.Jobs[I].Cfg.Seed);
    EXPECT_TRUE(R.results()[I].Ok);
  }
}

TEST(Engine, QueueDrainsWithMoreJobsThanWorkers) {
  // Many cheap jobs on few workers: every job completes exactly once
  // and the progress callback sees a contiguous completion count.
  Campaign C;
  C.Name = "drain";
  for (uint64_t Seed = 1; Seed <= 23; ++Seed) {
    JobSpec J;
    J.Kind = JobKind::Observe;
    J.App = "voter";
    J.Cfg = WorkloadConfig::small(Seed);
    C.Jobs.push_back(std::move(J));
  }

  std::set<uint64_t> SeenSeeds;
  size_t Calls = 0, MaxDone = 0;
  EngineOptions O;
  O.NumWorkers = 4;
  O.OnJobDone = [&](size_t Done, size_t Total, const JobResult &R) {
    ++Calls;
    MaxDone = std::max(MaxDone, Done);
    EXPECT_EQ(Total, 23u);
    SeenSeeds.insert(R.Spec.Cfg.Seed);
  };
  Report R = Engine(O).run(C);

  ASSERT_EQ(R.size(), 23u);
  EXPECT_EQ(Calls, 23u);
  EXPECT_EQ(MaxDone, 23u);
  EXPECT_EQ(SeenSeeds.size(), 23u); // every job ran exactly once
  for (const JobResult &Res : R.results())
    EXPECT_TRUE(Res.Ok);
}

TEST(Engine, EmptyCampaign) {
  Campaign C;
  C.Name = "empty";
  Report R = runWith(C, 4);
  EXPECT_EQ(R.size(), 0u);
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"num_jobs\": 0"), std::string::npos);
  EXPECT_NE(Json.find("\"jobs\": []"), std::string::npos);
}

TEST(Engine, UnknownApplicationReportsError) {
  Campaign C;
  C.Name = "bad";
  JobSpec J;
  J.App = "no-such-app";
  C.Jobs.push_back(J);
  Report R = runWith(C, 2);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_FALSE(R.results()[0].Ok);
  EXPECT_NE(R.results()[0].Error.find("no-such-app"), std::string::npos);
  EXPECT_NE(R.toJson().find("\"ok\": false"), std::string::npos);
}

TEST(Engine, PredictGridCrossProduct) {
  Campaign C = Campaign::predictGrid(
      "grid", {"smallbank", "voter"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false, true}, 3,
      1234);
  EXPECT_EQ(C.size(), 2u * 2 * 2 * 2 * 3);
  for (const JobSpec &J : C.Jobs) {
    EXPECT_EQ(J.Kind, JobKind::Predict);
    EXPECT_EQ(J.TimeoutMs, 1234u);
    EXPECT_GE(J.Cfg.Seed, 1u);
    EXPECT_LE(J.Cfg.Seed, 3u);
  }
}

TEST(Engine, SharedEncodingsDeterministicAcrossWorkerCounts) {
  // One share-group per (app, seed), each spanning levels × strategies:
  // the group is the scheduling unit, so shared-mode reports must stay
  // byte-identical no matter how many workers execute the groups.
  Campaign C =
      twoAppGrid("shared", {Strategy::ApproxStrict, Strategy::ApproxRelaxed});

  auto runShared = [&](unsigned Workers) {
    EngineOptions O;
    O.NumWorkers = Workers;
    O.ShareEncodings = true;
    return Engine(O).run(C);
  };
  std::string Json1 = runShared(1).toJson();
  std::string Json2 = runShared(2).toJson();
  std::string Json4 = runShared(4).toJson();
  EXPECT_EQ(Json1, Json2);
  EXPECT_EQ(Json1, Json4);
  // At least one query per group reused the shared prefix.
  EXPECT_NE(Json1.find("\"base_prefix_reused\": true"), std::string::npos);
}

TEST(Engine, SharedEncodingsPreserveOutcomes) {
  // Sat/unsat outcomes are part of the session sat-equivalence
  // contract; models (witnesses, validation) may differ, so only the
  // outcome fields are compared against the share-nothing engine.
  Campaign C = twoAppGrid("shared-vs-oneshot",
                          {Strategy::ApproxStrict, Strategy::ApproxRelaxed});

  EngineOptions Off;
  Off.NumWorkers = 2;
  Report Baseline = Engine(Off).run(C);
  EngineOptions On = Off;
  On.ShareEncodings = true;
  Report Shared = Engine(On).run(C);

  ASSERT_EQ(Baseline.size(), Shared.size());
  for (size_t I = 0; I < Baseline.size(); ++I) {
    const JobResult &A = Baseline.results()[I];
    const JobResult &B = Shared.results()[I];
    EXPECT_EQ(specHash(A.Spec), specHash(B.Spec));
    EXPECT_TRUE(B.Ok);
    EXPECT_EQ(A.Outcome, B.Outcome)
        << "outcome changed under --share-encodings for "
        << canonicalSpec(A.Spec);
  }
}

// The relevance plan answers the grid as the identity plan does. Spec
// hashes differ by design (prune is part of the canonical spec), so
// report diffing pairs the jobs by identity key.
TEST(Engine, RelevancePlanPreservesGridOutcomes) {
  Campaign On =
      twoAppGrid("prune", {Strategy::ApproxStrict, Strategy::ApproxRelaxed});
  Campaign Off = On;
  for (JobSpec &J : Off.Jobs)
    J.Prune = false;
  Report Identity = runWith(Off, 2), Relevance = runWith(On, 2);
  ASSERT_EQ(Relevance.size(), 16u);
  for (size_t I = 0; I < Relevance.size(); ++I) {
    const JobResult &A = Identity.results()[I], &B = Relevance.results()[I];
    EXPECT_NE(specHash(A.Spec), specHash(B.Spec));
    EXPECT_TRUE(B.Ok);
    EXPECT_EQ(A.Outcome, B.Outcome) << canonicalSpec(B.Spec);
  }
  std::optional<ReportDiffResult> D =
      diffReports(Identity.toJson(), Relevance.toJson(), nullptr,
                  /*MatchByKey=*/true);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->MatchedJobs, 16u);
  // The plan is a pure function of the history: default reports are
  // deterministic across worker counts.
  EXPECT_EQ(runWith(On, 1).toJson(), Relevance.toJson());
}

//===----------------------------------------------------------------------===
// Strict pairs: one Exact-Strict solve per strict formula
//===----------------------------------------------------------------------===

namespace {

/// Exact-Strict, Approx-Strict and Approx-Relaxed on smallbank and voter
/// (voter causal is the fast path: its pairs reuse nothing), in reverse
/// grid order so an Approx-Strict job precedes its Exact-Strict partner.
Campaign strictPairCampaign() {
  Campaign C = Campaign::predictGrid(
      "strict-pairs", {"smallbank", "voter"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ExactStrict, Strategy::ApproxStrict,
       Strategy::ApproxRelaxed},
      {false}, 1, 60000);
  std::reverse(C.Jobs.begin(), C.Jobs.end());
  return C;
}

} // namespace

TEST(Engine, StrictPairsGroupExactWithApproxStrict) {
  Campaign C = strictPairCampaign();
  // A second copy of the first pair member, while its pair is open.
  auto First = std::find_if(C.Jobs.begin(), C.Jobs.end(), [](const JobSpec &J) {
    return J.Strat != Strategy::ApproxRelaxed;
  });
  C.Jobs.insert(First + 1, JobSpec(*First));
  std::vector<std::vector<size_t>> Groups = Engine::planGroups(C, false);
  size_t Pairs = 0, Jobs = 0;
  for (const std::vector<size_t> &G : Groups) {
    Jobs += G.size();
    ASSERT_LE(G.size(), 2u);
    if (G.size() == 1)
      continue;
    ++Pairs;
    const JobSpec &A = C.Jobs[G[0]], &B = C.Jobs[G[1]];
    EXPECT_LT(G[0], G[1]);
    EXPECT_NE(A.Strat, B.Strat);
    EXPECT_NE(A.Strat, Strategy::ApproxRelaxed);
    EXPECT_NE(B.Strat, Strategy::ApproxRelaxed);
    JobSpec Key = B;
    Key.Strat = A.Strat;
    EXPECT_EQ(canonicalSpec(A), canonicalSpec(Key));
  }
  EXPECT_EQ(Jobs, C.size());
  EXPECT_EQ(Pairs, 4u); // 2 apps x 2 levels; the copy is alone.
  // Encoding-share groups are unchanged: one per observed execution.
  EXPECT_EQ(Engine::planGroups(C, true).size(), 2u);
}

// The pair answers exactly what each job answers alone, across worker
// counts, and it saves one solver check per pair whose exact stage the
// Approx-Strict job took over.
TEST(Engine, StrictPairReportMatchesJobsRunAlone) {
  Campaign C = strictPairCampaign();
  obs::Counter &Checks = obs::Metrics::global().counter("solver.checks");
  uint64_t ChecksAlone = 0;
  std::vector<JobResult> Alone;
  for (const JobSpec &J : C.Jobs) {
    uint64_t Before = Checks.value();
    Alone.push_back(Engine::runJob(J));
    ChecksAlone += Checks.value() - Before;
  }
  Report One = runWith(C, 1);
  Report Four = runWith(C, 4);
  EXPECT_EQ(One.toJson(), Report(C.Name, Alone, 1, 0).toJson());
  EXPECT_EQ(One.toJson(), Four.toJson());
  EXPECT_NE(One.toJson().find("\"validation\": \"validated-unserializable\""),
            std::string::npos);

  // Replay validation runs solver checks too; a taken-over stage also
  // takes over its validation, so count without it.
  for (JobSpec &J : C.Jobs)
    J.Validate = false;
  ChecksAlone = 0;
  for (const JobSpec &J : C.Jobs) {
    uint64_t Before = Checks.value();
    Engine::runJob(J);
    ChecksAlone += Checks.value() - Before;
  }
  Report Unvalidated = runWith(C, 2);
  uint64_t Reuses = Unvalidated.metrics().counter("predict.exact_stage_reuses");
  // Every pair but voter causal's (the fast path encodes nothing).
  EXPECT_EQ(Reuses, 3u);
  EXPECT_EQ(Unvalidated.metrics().counter("solver.checks"),
            ChecksAlone - Reuses);
}

// A canceled exact stage says nothing about the formula: the
// Approx-Strict job of the pair solves its own.
TEST(Engine, CanceledExactStageIsNotReused) {
  Campaign C;
  C.Name = "canceled-pair";
  for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict}) {
    JobSpec J;
    J.Kind = JobKind::Predict;
    J.App = "tpcc";
    J.Cfg = WorkloadConfig::small(1);
    J.Level = IsolationLevel::Causal;
    J.Strat = S;
    J.TimeoutMs = 0; // Seconds of solving: only the interrupt ends it early.
    C.Jobs.push_back(J);
  }
  ASSERT_EQ(Engine::planGroups(C, false).size(), 1u);
  std::atomic<bool> Done{false};
  Report R;
  std::thread Worker([&] {
    R = runWith(C, 1);
    Done.store(true);
  });
  while (!Done.load()) {
    SmtSolver::interruptAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Worker.join();
  ASSERT_EQ(R.size(), 2u);
  EXPECT_TRUE(R.results()[0].Canceled);
  EXPECT_EQ(R.metrics().counter("predict.exact_stage_reuses"), 0u);
  // The Approx-Strict job ran its own exact stage (and was interrupted
  // in it too).
  EXPECT_TRUE(R.results()[1].Canceled);
}

TEST(Campaign, SpecHashIsStableAndDiscriminating) {
  JobSpec A;
  A.Kind = JobKind::Predict;
  A.App = "smallbank";
  A.Cfg = WorkloadConfig::small(3);
  A.Level = IsolationLevel::Causal;
  A.Strat = Strategy::ApproxRelaxed;

  // Equal specs hash equally (the map key property result caching and
  // report matching rely on).
  JobSpec B = A;
  EXPECT_EQ(specHash(A), specHash(B));
  EXPECT_EQ(canonicalSpec(A), canonicalSpec(B));

  // Every outcome-determining field perturbs the hash.
  B = A;
  B.App = "voter";
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.Cfg.Seed = 4;
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.Level = IsolationLevel::ReadCommitted;
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.Strat = Strategy::ExactStrict;
  EXPECT_NE(specHash(A), specHash(B));
  B = A;
  B.StoreSeed = 7;
  EXPECT_NE(specHash(A), specHash(B));
  // Runs under the relevance and identity plans have different
  // default-report bytes (literal counts, possibly models), so the flag
  // must discriminate: neither may answer the other's cache lookup.
  B = A;
  B.Prune = !A.Prune;
  EXPECT_NE(specHash(A), specHash(B));
}

// Campaign files and report entries name the pco encoding; the removed
// "layered" spelling must be rejected with an error that names the field
// and the accepted spelling, not silently mapped to rank.
TEST(JobIo, OnlyRankPcoIsAccepted) {
  JobSpec S;
  S.Kind = JobKind::Predict;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(1);
  JobResult R;
  R.Spec = S;
  R.Ok = true;
  R.Outcome = SmtResult::Unsat;
  JsonWriter J;
  J.openObject();
  writeJobFields(J, R, ReportOptions{});
  J.closeObject();
  std::string Json = J.take();

  std::string Error;
  std::optional<JsonValue> Doc = parseJson(Json, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  ASSERT_TRUE(jobSpecFromJson(*Doc, &Error).has_value()) << Error;
  ASSERT_TRUE(jobResultFromJson(*Doc, &Error).has_value()) << Error;

  const std::string Rank = "\"pco\": \"rank\"";
  size_t Pos = Json.find(Rank);
  ASSERT_NE(Pos, std::string::npos) << Json;
  Json.replace(Pos, Rank.size(), "\"pco\": \"layered\"");
  Doc = parseJson(Json, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  for (bool AsReport : {false, true}) {
    Error.clear();
    bool Parsed = AsReport ? jobResultFromJson(*Doc, &Error).has_value()
                           : jobSpecFromJson(*Doc, &Error).has_value();
    EXPECT_FALSE(Parsed);
    EXPECT_NE(Error.find("unknown pco 'layered'"), std::string::npos)
        << Error;
    EXPECT_NE(Error.find("(field \"pco\"; accepted: rank)"),
              std::string::npos)
        << Error;
  }
}

// A job entry or campaign file that omits "prune" means JobSpec's
// default (the relevance plan), exactly as the server's lenient query
// form does; only an explicit false selects the identity plan.
TEST(JobIo, OmittedPruneParsesToTheJobSpecDefault) {
  JobSpec S;
  S.Kind = JobKind::Predict;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(1);
  ASSERT_TRUE(S.Prune);
  JobResult R;
  R.Spec = S;
  R.Ok = true;
  R.Outcome = SmtResult::Unsat;
  JsonWriter J;
  J.openObject();
  writeJobFields(J, R, ReportOptions{});
  J.closeObject();
  std::string Json = J.take();

  // Drop the field (up to the next member's opening quote).
  const std::string Field = "\"prune\": true";
  size_t Pos = Json.find(Field);
  ASSERT_NE(Pos, std::string::npos) << Json;
  Json.erase(Pos, Json.find('"', Pos + Field.size()) - Pos);
  ASSERT_EQ(Json.find("\"prune\""), std::string::npos) << Json;

  std::string Error;
  std::optional<JsonValue> Doc = parseJson(Json, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  std::optional<JobSpec> Back = jobSpecFromJson(*Doc, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_TRUE(Back->Prune);
  EXPECT_EQ(specHash(*Back), specHash(S));
  std::optional<JobResult> BackR = jobResultFromJson(*Doc, &Error);
  ASSERT_TRUE(BackR.has_value()) << Error;
  EXPECT_TRUE(BackR->Spec.Prune);
  // The server reads the JobIo form through the same parser.
  std::optional<JobSpec> Wire = server::parseQuerySpec(*Doc, &Error);
  ASSERT_TRUE(Wire.has_value()) << Error;
  EXPECT_TRUE(Wire->Prune);

  // An explicit false still round-trips.
  R.Spec.Prune = false;
  JsonWriter J2;
  J2.openObject();
  writeJobFields(J2, R, ReportOptions{});
  J2.closeObject();
  Doc = parseJson(J2.take(), &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  Back = jobSpecFromJson(*Doc, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_FALSE(Back->Prune);

  // The lenient hand-written query form defaults as JobSpec does.
  for (const char *Text : {"{\"app\": \"smallbank\"}",
                           "{\"app\": \"smallbank\", \"prune\": false}"}) {
    Doc = parseJson(Text, &Error);
    ASSERT_TRUE(Doc.has_value()) << Error;
    Wire = server::parseQuerySpec(*Doc, &Error);
    ASSERT_TRUE(Wire.has_value()) << Error;
    EXPECT_EQ(Wire->Prune, std::string(Text).find("false") ==
                               std::string::npos)
        << Text;
  }
}

TEST(Report, EmitsSpecHashPerJob) {
  Campaign C;
  C.Name = "hash";
  JobSpec J;
  J.Kind = JobKind::Observe;
  J.App = "voter";
  J.Cfg = WorkloadConfig::small(1);
  C.Jobs.push_back(J);
  Report R = runWith(C, 1);
  std::string Expected =
      "\"spec_hash\": \"" +
      formatString("%016llx",
                   static_cast<unsigned long long>(specHash(J))) +
      "\"";
  EXPECT_NE(R.toJson().find(Expected), std::string::npos);
}

TEST(Report, EmitsToolVersionAndSchema) {
  Campaign C;
  C.Name = "version";
  Report R = runWith(C, 1);
  std::string Json = R.toJson();
  EXPECT_NE(Json.find("\"schema\": \"isopredict-campaign-report/2\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"tool_version\": \"" + std::string(toolVersion()) +
                      "\""),
            std::string::npos);
  // Unsharded reports carry no shard coordinates: byte-identity with
  // merged and 1/1-shard reports depends on their absence.
  EXPECT_EQ(Json.find("\"shard_index\""), std::string::npos);
}

// Golden spec hashes: these exact values are persisted in JSON reports,
// name result-cache entries (<cache>/<tool_version>/<hash>.json), and
// key cross-report job matching. If this test fails, a change to
// canonicalSpec (or the hash) has silently invalidated every existing
// cache and broken report_diff against historical reports — either
// revert the change or bump engine::toolVersion() *and* regenerate
// these constants deliberately.
TEST(Campaign, GoldenSpecHashes) {
  auto hash = [](const JobSpec &S) {
    return formatString("%016llx",
                        static_cast<unsigned long long>(specHash(S)));
  };

  JobSpec Predict; // The all-defaults Predict job.
  Predict.Kind = JobKind::Predict;
  Predict.App = "smallbank";
  Predict.Cfg = WorkloadConfig::small(1);
  EXPECT_EQ(canonicalSpec(Predict),
            "kind=predict;app=smallbank;sessions=3;txns=4;seed=1;"
            "level=causal;strat=Approx-Relaxed;pco=rank;store_seed=1;"
            "timeout_ms=0;validate=1;check_ser=1;prune=1");
  EXPECT_EQ(hash(Predict), "0cc7abb949e15b39");

  JobSpec Tpcc;
  Tpcc.Kind = JobKind::Predict;
  Tpcc.App = "tpcc";
  Tpcc.Cfg = WorkloadConfig::large(3);
  Tpcc.Level = IsolationLevel::ReadCommitted;
  Tpcc.Strat = Strategy::ApproxStrict;
  Tpcc.TimeoutMs = 5000;
  EXPECT_EQ(hash(Tpcc), "b0797f50953e0797");

  JobSpec Exact = Predict;
  Exact.Strat = Strategy::ExactStrict;
  Exact.Validate = false;
  EXPECT_EQ(hash(Exact), "387af20b618099a3");

  JobSpec Observe;
  Observe.Kind = JobKind::Observe;
  Observe.App = "voter";
  Observe.Cfg = WorkloadConfig::small(2);
  EXPECT_EQ(hash(Observe), "e12e0c590a12dbaa");

  JobSpec Weak;
  Weak.Kind = JobKind::RandomWeak;
  Weak.App = "wikipedia";
  Weak.Cfg = WorkloadConfig::small(1);
  Weak.Level = IsolationLevel::ReadAtomic;
  Weak.StoreSeed = 1007;
  EXPECT_EQ(hash(Weak), "6437d08955e736e2");

  JobSpec Locking;
  Locking.Kind = JobKind::LockingRc;
  Locking.App = "smallbank";
  Locking.Cfg = WorkloadConfig::small(5);
  Locking.StoreSeed = 99;
  Locking.CheckSerializability = false;
  EXPECT_EQ(hash(Locking), "bfb4b8a047b9d4e9");
}

//===----------------------------------------------------------------------===
// Streaming job kind (JobKind::Stream)
//===----------------------------------------------------------------------===

// Window/chunk are Stream-only spec fields: on every other kind they
// must not perturb the canonical spec, so every pre-streaming hash —
// including the golden ones above — stays valid.
TEST(Campaign, StreamSpecFieldsAreConditional) {
  JobSpec P;
  P.Kind = JobKind::Predict;
  P.App = "smallbank";
  P.Cfg = WorkloadConfig::small(1);
  JobSpec P2 = P;
  P2.Window = 9;
  P2.StreamChunk = 4;
  EXPECT_EQ(canonicalSpec(P), canonicalSpec(P2));
  EXPECT_EQ(specHash(P), specHash(P2));

  JobSpec S = P;
  S.Kind = JobKind::Stream;
  S.Window = 9;
  S.StreamChunk = 4;
  EXPECT_EQ(canonicalSpec(S),
            "kind=stream;app=smallbank;sessions=3;txns=4;seed=1;"
            "level=causal;strat=Approx-Relaxed;pco=rank;store_seed=1;"
            "timeout_ms=0;validate=1;check_ser=1;prune=1;window=9;chunk=4");
  JobSpec S2 = S;
  S2.Window = 10;
  EXPECT_NE(specHash(S), specHash(S2));
  S2 = S;
  S2.StreamChunk = 5;
  EXPECT_NE(specHash(S), specHash(S2));
}

// The incremental extend path and the from-scratch baseline must agree
// on every step's outcome and on the encoded window size (see below
// for the same at campaign scale).
TEST(Engine, StreamJobMatchesFromScratchBaseline) {
  JobSpec J;
  J.Kind = JobKind::Stream;
  J.App = "smallbank";
  J.Cfg = WorkloadConfig::small(2);
  J.TimeoutMs = 60000;
  J.Window = 2;
  J.StreamChunk = 3;
  JobResult Ext = Engine::runJob(J, /*StreamFromScratch=*/false);
  JobResult Scr = Engine::runJob(J, /*StreamFromScratch=*/true);
  ASSERT_TRUE(Ext.Ok);
  ASSERT_TRUE(Scr.Ok);
  ASSERT_GT(Ext.Steps.size(), 1u);
  ASSERT_EQ(Ext.Steps.size(), Scr.Steps.size());
  for (size_t I = 0; I < Ext.Steps.size(); ++I) {
    EXPECT_EQ(Ext.Steps[I].Outcome, Scr.Steps[I].Outcome) << "step " << I;
    EXPECT_EQ(Ext.Steps[I].Txns, Scr.Steps[I].Txns) << "step " << I;
    EXPECT_EQ(Ext.Steps[I].WindowTxns, Scr.Steps[I].WindowTxns)
        << "step " << I;
  }
  EXPECT_EQ(Ext.Outcome, Scr.Outcome);
  EXPECT_EQ(Ext.Steps.back().Outcome, Ext.Outcome);
}

// The same at campaign scale, over causal (hb closure inside the
// window) and rc (so ∪ wr) queries; stream reports are deterministic
// across worker counts; and a single chunk covering the whole trace
// answers what the plain Predict job answers (the W >= trace contract).
TEST(Engine, StreamGridMatchesFromScratchAndPredict) {
  Campaign C =
      twoAppGrid("stream", {Strategy::ExactStrict, Strategy::ApproxRelaxed});
  for (JobSpec &J : C.Jobs) {
    J.Kind = JobKind::Stream;
    J.Window = 4;
    J.StreamChunk = 3;
  }
  EngineOptions O;
  O.NumWorkers = 2;
  Report Ext = Engine(O).run(C);
  O.StreamFromScratch = true;
  Report Scr = Engine(O).run(C);
  ASSERT_EQ(Ext.size(), 16u);
  ASSERT_EQ(Scr.size(), Ext.size());
  for (size_t I = 0; I < Ext.size(); ++I) {
    const JobResult &A = Ext.results()[I], &B = Scr.results()[I];
    SCOPED_TRACE(canonicalSpec(A.Spec));
    EXPECT_EQ(specHash(A.Spec), specHash(B.Spec));
    EXPECT_EQ(A.Outcome, B.Outcome);
    ASSERT_EQ(A.Steps.size(), B.Steps.size());
    for (size_t S = 0; S < A.Steps.size(); ++S) {
      EXPECT_EQ(A.Steps[S].Txns, B.Steps[S].Txns) << "step " << S;
      EXPECT_EQ(A.Steps[S].WindowTxns, B.Steps[S].WindowTxns) << "step " << S;
      EXPECT_EQ(A.Steps[S].Outcome, B.Steps[S].Outcome) << "step " << S;
    }
  }
  EXPECT_EQ(runWith(C, 1).toJson(), Ext.toJson());

  Campaign Predict = Campaign::predictGrid(
      "full", {"smallbank", "voter"}, {IsolationLevel::Causal},
      {Strategy::ApproxRelaxed}, {false}, 2, 60000);
  Campaign Full = Predict;
  for (JobSpec &J : Full.Jobs) {
    J.Kind = JobKind::Stream;
    J.StreamChunk = 1000;
  }
  Report P = runWith(Predict, 2), F = runWith(Full, 2);
  ASSERT_EQ(F.size(), 4u);
  for (size_t I = 0; I < F.size(); ++I) {
    const JobResult &R = F.results()[I];
    EXPECT_EQ(R.Outcome, P.results()[I].Outcome) << canonicalSpec(R.Spec);
    ASSERT_EQ(R.Steps.size(), 1u);
    EXPECT_EQ(R.Steps.back().Outcome, R.Outcome);
  }
}

// A cache-answered stream campaign writes its cold run's report bytes,
// summary included: stream entries persist no literal count, so the
// summary "literals" sums Predict jobs only.
TEST(Engine, StreamCampaignWarmReportMatchesCold) {
  Campaign C;
  C.Name = "stream-cache";
  JobSpec J;
  J.Kind = JobKind::Stream;
  J.App = "smallbank";
  J.Cfg = WorkloadConfig::small(2);
  J.Level = IsolationLevel::ReadCommitted;
  J.Strat = Strategy::ExactStrict;
  J.TimeoutMs = 60000;
  J.Window = 4;
  J.StreamChunk = 3;
  C.Jobs.push_back(J);

  testutil::ScratchDir Cache("stream-cache");
  EngineOptions O;
  O.NumWorkers = 1;
  O.CacheDir = Cache.Path;
  Report Cold = Engine(O).run(C);
  Report Warm = Engine(O).run(C);
  ASSERT_EQ(Cold.cacheMisses(), 1u);
  ASSERT_EQ(Warm.cacheHits(), 1u);
  EXPECT_EQ(Warm.toJson(), Cold.toJson());
}

// Stream job entries round-trip through the JSON wire format exactly,
// per-step fields included — the JobIo invariant.
TEST(Report, StreamResultRoundTrips) {
  JobSpec J;
  J.Kind = JobKind::Stream;
  J.App = "smallbank";
  J.Cfg = WorkloadConfig::small(2);
  J.TimeoutMs = 60000;
  J.Window = 3;
  J.StreamChunk = 4;
  JobResult R = Engine::runJob(J);
  ASSERT_TRUE(R.Ok);

  for (bool Timings : {false, true}) {
    ReportOptions RO;
    RO.IncludeTimings = Timings;
    JsonWriter W;
    W.openObject();
    writeJobFields(W, R, RO);
    W.closeObject();
    std::string Json = W.take();

    std::string Error;
    std::optional<JsonValue> Doc = parseJson(Json, &Error);
    ASSERT_TRUE(Doc) << Error;
    std::optional<JobResult> Back = jobResultFromJson(*Doc, &Error);
    ASSERT_TRUE(Back) << Error;
    EXPECT_EQ(Back->Spec.Kind, JobKind::Stream);
    EXPECT_EQ(Back->Spec.Window, 3u);
    EXPECT_EQ(Back->Spec.StreamChunk, 4u);
    EXPECT_EQ(specHash(Back->Spec), specHash(J));
    ASSERT_EQ(Back->Steps.size(), R.Steps.size());
    for (size_t I = 0; I < R.Steps.size(); ++I) {
      EXPECT_EQ(Back->Steps[I].Outcome, R.Steps[I].Outcome);
      EXPECT_EQ(Back->Steps[I].Txns, R.Steps[I].Txns);
      EXPECT_EQ(Back->Steps[I].WindowTxns, R.Steps[I].WindowTxns);
      if (Timings)
        EXPECT_EQ(Back->Steps[I].Literals, R.Steps[I].Literals);
    }

    JsonWriter W2;
    W2.openObject();
    writeJobFields(W2, *Back, RO);
    W2.closeObject();
    EXPECT_EQ(W2.take(), Json) << "timings=" << Timings;
  }
}

// A solve cut short by SmtSolver::interruptAll() (campaign_cli's SIGINT,
// the server's drain) comes back canceled — not a bare unknown, and not
// a timeout. Cancellation is sticky, so interrupting in a loop until the
// job returns cancels the check whenever the solver goes live.
TEST(Engine, InterruptedPredictJobIsCanceled) {
  JobSpec J;
  J.Kind = JobKind::Predict;
  J.App = "tpcc";
  J.Cfg = WorkloadConfig::small(1);
  J.Level = IsolationLevel::Causal;
  J.Strat = Strategy::ExactStrict;
  J.TimeoutMs = 0; // Seconds of solving: only the interrupt ends it early.
  std::atomic<bool> Done{false};
  JobResult R;
  std::thread Worker([&] {
    R = Engine::runJob(J);
    Done.store(true);
  });
  while (!Done.load()) {
    SmtSolver::interruptAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Worker.join();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Outcome, SmtResult::Unknown);
  EXPECT_TRUE(R.Canceled);
  EXPECT_FALSE(R.TimedOut);
}

namespace {

JobResult approxStrictResult() {
  JobResult R;
  R.Spec.Kind = JobKind::Predict;
  R.Spec.App = "smallbank";
  R.Spec.Cfg = WorkloadConfig::small(1);
  R.Spec.Level = IsolationLevel::Causal;
  R.Spec.Strat = Strategy::ApproxStrict;
  R.Ok = true;
  return R;
}

/// Writes \p R, parses it back, and returns the written JSON in \p Json.
std::optional<JobResult> roundTrip(const JobResult &R, const ReportOptions &RO,
                                   std::string &Json) {
  JsonWriter J;
  J.openObject();
  writeJobFields(J, R, RO);
  J.closeObject();
  Json = J.take();
  std::optional<JsonValue> Doc = parseJson(Json);
  if (!Doc)
    return std::nullopt;
  return jobResultFromJson(*Doc);
}

} // namespace

// "canceled" mirrors "timeout": outcome-shaped (not timing-gated),
// emitted only when set, and round-trips exactly. interruptAll() is
// the one source of it (see InterruptedPredictJobIsCanceled).
TEST(JobIo, CanceledIsDistinctFromTimeout) {
  JobResult R = approxStrictResult();
  R.Outcome = SmtResult::Unknown;
  R.Canceled = true;
  std::string Json;
  std::optional<JobResult> Back = roundTrip(R, ReportOptions{}, Json);
  EXPECT_NE(Json.find("\"canceled\": true"), std::string::npos);
  EXPECT_EQ(Json.find("\"timeout\""), std::string::npos);
  ASSERT_TRUE(Back) << Json;
  EXPECT_TRUE(Back->Canceled);
  EXPECT_FALSE(Back->TimedOut);
}

// The timings-gated literal split and solver statistics round-trip
// byte-exactly (the cache and shard merger re-emit parsed entries),
// and the deterministic default format carries neither.
TEST(JobIo, TimingFieldsRoundTrip) {
  JobResult R = approxStrictResult();
  R.Outcome = SmtResult::Sat;
  R.Stats.NumLiterals = 1234;
  R.Stats.FallbackLiterals = 567;
  R.SolverStats.Collected = true;
  R.SolverStats.Conflicts = 42;
  ReportOptions Timed;
  Timed.IncludeTimings = true;
  std::string Json;
  std::optional<JobResult> Back = roundTrip(R, Timed, Json);
  ASSERT_TRUE(Back) << Json;
  EXPECT_EQ(Back->Stats.NumLiterals, 1234u);
  EXPECT_EQ(Back->Stats.FallbackLiterals, 567u);
  EXPECT_TRUE(Back->SolverStats.Collected);
  EXPECT_EQ(Back->SolverStats.Conflicts, 42u);
  std::string Again;
  roundTrip(*Back, Timed, Again);
  EXPECT_EQ(Again, Json);

  std::string Plain;
  roundTrip(R, ReportOptions{}, Plain);
  EXPECT_EQ(Plain.find("fallback_literals"), std::string::npos);
  EXPECT_EQ(Plain.find("solver_stats"), std::string::npos);
}

// Campaign entries store sessions, txns_per_session, timeout_ms, window
// and chunk in `unsigned` fields, and report entries their counters. A
// value above UINT_MAX must be an error: wrapped, it would be a
// different spec whose hash still matches the entry's (a timeout_ms of
// 2^32 would be 0, "no timeout"), or a wrong count.
TEST(JobIo, OutOfRangeUnsignedFieldsAreRejected) {
  // Rewrites `"Field": Value` in \p Json to Value + 2^32 (which wraps
  // back to Value) and expects \p Parse to reject it, naming the field.
  auto rejectsWrapped = [](const std::string &Json, const char *Field,
                           unsigned Value, auto Parse) {
    SCOPED_TRACE(Field);
    std::string Was = formatString("\"%s\": %u", Field, Value);
    size_t Pos = Json.find(Was);
    ASSERT_NE(Pos, std::string::npos) << Was << " in " << Json;
    std::string Wrapped = Json;
    Wrapped.replace(Pos, Was.size(),
                    formatString("\"%s\": %llu", Field,
                                 Value + (1ULL << 32)));
    std::string Error;
    std::optional<JsonValue> Doc = parseJson(Wrapped, &Error);
    ASSERT_TRUE(Doc) << Error;
    EXPECT_FALSE(Parse(*Doc, &Error));
    EXPECT_NE(Error.find(formatString("'%s' is out of range", Field)),
              std::string::npos)
        << Error;
  };

  JobSpec S;
  S.Kind = JobKind::Stream;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(1);
  S.TimeoutMs = 0;
  S.Window = 2;
  S.StreamChunk = 3;
  JsonWriter J;
  J.openObject();
  writeJobSpecFields(J, S);
  J.closeObject();
  const std::string Spec = J.take();
  ASSERT_TRUE(jobSpecFromJson(*parseJson(Spec)));
  const std::pair<const char *, unsigned> SpecFields[] = {
      {"sessions", 3}, {"txns_per_session", 4}, {"timeout_ms", 0},
      {"window", 2},   {"chunk", 3}};
  for (const auto &[Field, Value] : SpecFields)
    rejectsWrapped(Spec, Field, Value, [](const JsonValue &D, std::string *E) {
      return jobSpecFromJson(D, E).has_value();
    });

  JobResult R;
  R.Spec.Kind = JobKind::Observe;
  R.Spec.App = "smallbank";
  R.Ok = true;
  R.CommittedTxns = 7;
  JsonWriter JR;
  JR.openObject();
  writeJobFields(JR, R, ReportOptions{});
  JR.closeObject();
  rejectsWrapped(JR.take(), "committed_txns", 7,
                 [](const JsonValue &D, std::string *E) {
                   return jobResultFromJson(D, E).has_value();
                 });
}

namespace {

History observedVoter() {
  auto App = makeApplication("voter");
  return observe(*App, WorkloadConfig::small(1)).Hist;
}

} // namespace

//===----------------------------------------------------------------------===
// SessionPool
//===----------------------------------------------------------------------===

TEST(SessionPool, CheckoutLruLifecycle) {
  History H = observedVoter();
  SessionPool Pool(2);
  std::string K1 = SessionPool::key("t", 1, false);
  std::string K2 = SessionPool::key("t", 2, false);
  std::string K3 = SessionPool::key("t", 3, false);
  EXPECT_NE(K1, K2);
  EXPECT_NE(SessionPool::key("t", 1, true), K1); // prune is part of it
  EXPECT_NE(SessionPool::key("u", 1, false), K1);

  EXPECT_EQ(Pool.acquire(K1), nullptr); // cold
  Pool.release(K1, std::make_unique<PredictSession>(H));
  Pool.release(K2, std::make_unique<PredictSession>(H));

  // Touch K1 (checkout + return), then add K3: K2 is the LRU victim.
  std::unique_ptr<PredictSession> S = Pool.acquire(K1);
  ASSERT_NE(S, nullptr);
  Pool.release(K1, std::move(S));
  Pool.release(K3, std::make_unique<PredictSession>(H));
  EXPECT_NE(Pool.acquire(K1), nullptr);
  EXPECT_EQ(Pool.acquire(K2), nullptr);
  EXPECT_NE(Pool.acquire(K3), nullptr);

  SessionPool::Stats St = Pool.stats();
  EXPECT_EQ(St.Capacity, 2u);
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.Hits, 3u);
  EXPECT_EQ(St.Misses, 2u);

  Pool.clear();
  EXPECT_EQ(Pool.stats().Size, 0u);
}

TEST(SessionPool, ZeroCapacityDisablesPooling) {
  History H = observedVoter();
  SessionPool Pool(0);
  std::string K = SessionPool::key("t", 1, false);
  Pool.release(K, std::make_unique<PredictSession>(H));
  EXPECT_EQ(Pool.acquire(K), nullptr);
}
