//===- cache_test.cpp - Result cache, sharding, and merge tests -*- C++ -*-===//

#include "TestUtil.h"
#include "cache/Merge.h"
#include "cache/ResultStore.h"
#include "cache/Shard.h"
#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "support/Fs.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

using namespace isopredict;
using namespace isopredict::engine;
using namespace isopredict::cache;
using testutil::scratchDir;

namespace {

/// A fast mixed campaign: every job kind, decided well within timeout.
Campaign mixedCampaign() {
  Campaign C;
  C.Name = "cache-test";
  for (uint64_t Seed = 1; Seed <= 2; ++Seed) {
    JobSpec J;
    J.Kind = JobKind::Observe;
    J.App = "voter";
    J.Cfg = WorkloadConfig::small(Seed);
    C.Jobs.push_back(std::move(J));
  }
  for (Strategy S : {Strategy::ApproxStrict, Strategy::ApproxRelaxed}) {
    JobSpec J;
    J.Kind = JobKind::Predict;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(2);
    J.Level = IsolationLevel::Causal;
    J.Strat = S;
    J.TimeoutMs = 60000;
    C.Jobs.push_back(std::move(J));
  }
  {
    JobSpec J;
    J.Kind = JobKind::RandomWeak;
    J.App = "smallbank";
    J.Cfg = WorkloadConfig::small(1);
    J.Level = IsolationLevel::Causal;
    J.StoreSeed = 1007;
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

Report run(const Campaign &C, const std::string &CacheDir = {},
           bool ShareEncodings = false, unsigned Workers = 2) {
  EngineOptions O;
  O.NumWorkers = Workers;
  O.CacheDir = CacheDir;
  O.ShareEncodings = ShareEncodings;
  return Engine(O).run(C);
}

} // namespace

//===----------------------------------------------------------------------===
// JobIo round-trip
//===----------------------------------------------------------------------===

TEST(JobIo, ReportRoundTripsThroughJsonByteIdentically) {
  // Parse every job of a real report and re-emit the report from the
  // parsed results: the merger's correctness reduces to this property.
  Campaign C = mixedCampaign();
  Report Original = run(C);
  std::string Json = Original.toJson();

  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc.has_value());
  const JsonValue *Jobs = Doc->field("jobs");
  ASSERT_TRUE(Jobs && Jobs->K == JsonValue::Kind::Array);

  std::vector<JobResult> Parsed;
  for (const JsonValue &Job : Jobs->Items) {
    std::string Error;
    std::optional<JobResult> R = jobResultFromJson(Job, &Error);
    ASSERT_TRUE(R.has_value()) << Error;
    EXPECT_EQ(canonicalSpec(R->Spec),
              canonicalSpec(C.Jobs[Parsed.size()]));
    Parsed.push_back(std::move(*R));
  }
  Report Rebuilt(Original.campaignName(), std::move(Parsed), 0, 0);
  EXPECT_EQ(Rebuilt.toJson(), Json);
}

TEST(JobIo, FailedJobRoundTrips) {
  JobResult R;
  JobSpec S;
  S.Kind = JobKind::Observe;
  S.App = "no-such-app";
  R.Spec = S;
  R.Error = "unknown application 'no-such-app'";

  JsonWriter J;
  J.openObject();
  writeJobFields(J, R, ReportOptions{});
  J.closeObject();
  std::string Json = J.take();

  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc.has_value());
  std::optional<JobResult> Back = jobResultFromJson(*Doc);
  ASSERT_TRUE(Back.has_value());
  EXPECT_FALSE(Back->Ok);
  EXPECT_EQ(Back->Error, R.Error);
  EXPECT_EQ(specHash(Back->Spec), specHash(S));
}

TEST(JobIo, SpecHashMismatchIsRejected) {
  JobSpec S;
  S.Kind = JobKind::Observe;
  S.App = "voter";
  S.Cfg = WorkloadConfig::small(1);
  JsonWriter J;
  J.openObject();
  writeJobSpecFields(J, S);
  J.closeObject();
  std::string Json = J.take();
  // Doctor one spec field without updating the recorded hash.
  size_t Pos = Json.find("\"seed\": 1");
  ASSERT_NE(Pos, std::string::npos);
  Json.replace(Pos, 9, "\"seed\": 2");

  std::optional<JsonValue> Doc = parseJson(Json);
  ASSERT_TRUE(Doc.has_value());
  std::string Error;
  EXPECT_FALSE(jobSpecFromJson(*Doc, &Error).has_value());
  EXPECT_NE(Error.find("spec_hash"), std::string::npos);
}

//===----------------------------------------------------------------------===
// ResultStore semantics
//===----------------------------------------------------------------------===

TEST(ResultStore, MissThenHit) {
  std::string Dir = scratchDir("store");
  ResultStore Store(Dir);

  JobSpec S;
  S.Kind = JobKind::Observe;
  S.App = "voter";
  S.Cfg = WorkloadConfig::small(3);
  EXPECT_FALSE(Store.lookup(S).has_value()); // cold

  JobResult R = Engine::runJob(S);
  ASSERT_TRUE(R.Ok);
  ASSERT_TRUE(cacheable(R));
  std::string Error;
  ASSERT_TRUE(Store.store(R, EncodingMode::OneShot, 0, &Error)) << Error;
  EXPECT_TRUE(pathExists(Store.entryPath(S)));

  std::optional<JobResult> Hit = Store.lookup(S);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(Hit->CacheHit);
  EXPECT_EQ(Hit->CommittedTxns, R.CommittedTxns);
  EXPECT_EQ(Hit->Reads, R.Reads);
  EXPECT_EQ(canonicalSpec(Hit->Spec), canonicalSpec(S));

  // A different spec (same app, different seed) is still a miss.
  JobSpec Other = S;
  Other.Cfg.Seed = 4;
  EXPECT_FALSE(Store.lookup(Other).has_value());
}

TEST(ResultStore, CorruptEntryIsAMiss) {
  std::string Dir = scratchDir("corrupt");
  ResultStore Store(Dir);
  JobSpec S;
  S.Kind = JobKind::Observe;
  S.App = "voter";
  S.Cfg = WorkloadConfig::small(1);
  JobResult R = Engine::runJob(S);
  ASSERT_TRUE(Store.store(R));

  // Truncated JSON.
  std::string Raw;
  ASSERT_TRUE(readFile(Store.entryPath(S), Raw));
  ASSERT_TRUE(writeFileAtomic(Store.entryPath(S),
                              Raw.substr(0, Raw.size() / 2)));
  EXPECT_FALSE(Store.lookup(S).has_value());

  // Valid JSON, wrong canonical spec (a hash collision in effect).
  std::string Doctored = Raw;
  size_t Pos = Doctored.find("app=voter");
  ASSERT_NE(Pos, std::string::npos);
  Doctored.replace(Pos, 9, "app=tpccc");
  ASSERT_TRUE(writeFileAtomic(Store.entryPath(S), Doctored));
  EXPECT_FALSE(Store.lookup(S).has_value());

  // Restore the pristine entry: hit again (overwrite semantics work).
  ASSERT_TRUE(writeFileAtomic(Store.entryPath(S), Raw));
  EXPECT_TRUE(Store.lookup(S).has_value());
}

TEST(ResultStore, VersionMismatchIsAMiss) {
  std::string Dir = scratchDir("version");
  ResultStore Store(Dir);
  JobSpec S;
  S.Kind = JobKind::Observe;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(1);
  ASSERT_TRUE(Store.store(Engine::runJob(S)));

  // An entry whose embedded stamp disagrees with the current tool
  // version must be ignored even if it sits in the right directory
  // (e.g. copied across cache roots).
  std::string Raw;
  ASSERT_TRUE(readFile(Store.entryPath(S), Raw));
  std::string Stamp = "\"tool_version\": \"" + std::string(toolVersion()) +
                      "\"";
  size_t Pos = Raw.find(Stamp);
  ASSERT_NE(Pos, std::string::npos);
  std::string Old = Raw;
  Old.replace(Pos, Stamp.size(), "\"tool_version\": \"isopredict-0\"");
  ASSERT_TRUE(writeFileAtomic(Store.entryPath(S), Old));
  EXPECT_FALSE(Store.lookup(S).has_value());
}

TEST(ResultStore, ConcurrentWritersAndReadersNeverSeeTornEntries) {
  // Two writer threads hammer the same spec_hash while two readers
  // loop lookups: atomic tmp+rename writes mean every lookup is either
  // a miss or a fully valid entry — never a torn read. This is the
  // same contract two processes sharing --cache-dir rely on
  // (CampaignCli.TwoProcessesShareOneCacheDir runs that variant).
  std::string Dir = scratchDir("race");
  ResultStore Store(Dir);

  JobSpec S;
  S.Kind = JobKind::Observe;
  S.App = "voter";
  S.Cfg = WorkloadConfig::small(5);
  JobResult R = Engine::runJob(S);
  ASSERT_TRUE(R.Ok);

  std::atomic<bool> Go{false}, Done{false};
  std::atomic<unsigned> Hits{0}, Misses{0}, Torn{0};
  std::vector<std::thread> Threads;
  for (int W = 0; W < 2; ++W)
    Threads.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I < 50; ++I)
        EXPECT_TRUE(Store.store(R));
    });
  for (int Rd = 0; Rd < 2; ++Rd)
    Threads.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      while (!Done.load()) {
        std::optional<JobResult> Hit = Store.lookup(S);
        if (!Hit) {
          ++Misses;
          continue;
        }
        ++Hits;
        // A torn entry would fail the store's spec verification and
        // surface as a miss; a hit must carry the full result.
        if (Hit->CommittedTxns != R.CommittedTxns || Hit->Reads != R.Reads ||
            canonicalSpec(Hit->Spec) != canonicalSpec(S))
          ++Torn;
      }
    });
  Go.store(true);
  Threads[0].join();
  Threads[1].join();
  Done.store(true);
  Threads[2].join();
  Threads[3].join();

  EXPECT_EQ(Torn.load(), 0u);
  EXPECT_GT(Hits.load(), 0u);
  // The final state is a pristine entry.
  std::optional<JobResult> Final = Store.lookup(S);
  ASSERT_TRUE(Final.has_value());
  EXPECT_EQ(canonicalSpec(Final->Spec), canonicalSpec(S));
}

TEST(ResultStore, ConcurrentDistinctSpecsAllLand) {
  // Four threads store four different specs into one root concurrently;
  // every entry must be independently retrievable afterwards.
  std::string Dir = scratchDir("race-distinct");
  ResultStore Store(Dir);

  std::vector<JobSpec> Specs;
  std::vector<JobResult> Results;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    JobSpec S;
    S.Kind = JobKind::Observe;
    S.App = Seed % 2 ? "voter" : "smallbank";
    S.Cfg = WorkloadConfig::small(Seed);
    Results.push_back(Engine::runJob(S));
    ASSERT_TRUE(Results.back().Ok);
    Specs.push_back(std::move(S));
  }

  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Specs.size(); ++I)
    Threads.emplace_back([&, I] {
      for (int K = 0; K < 20; ++K) {
        EXPECT_TRUE(Store.store(Results[I]));
        std::optional<JobResult> Hit = Store.lookup(Specs[I]);
        EXPECT_TRUE(Hit.has_value());
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (size_t I = 0; I < Specs.size(); ++I) {
    std::optional<JobResult> Hit = Store.lookup(Specs[I]);
    ASSERT_TRUE(Hit.has_value()) << Specs[I].App;
    EXPECT_EQ(canonicalSpec(Hit->Spec), canonicalSpec(Specs[I]));
  }
}

TEST(ResultStore, CacheablePolicyRejectsTimeoutShapedResults) {
  JobResult R;
  R.Spec.Kind = JobKind::Predict;
  R.Ok = false;
  EXPECT_FALSE(cacheable(R)); // failed jobs never cache

  R.Ok = true;
  R.Outcome = SmtResult::Unknown;
  EXPECT_FALSE(cacheable(R)); // solver timeout

  R.Outcome = SmtResult::Unsat;
  EXPECT_TRUE(cacheable(R));

  R.Outcome = SmtResult::Sat;
  R.Spec.Validate = true;
  R.ValStatus = ValidationResult::Status::Unknown;
  EXPECT_FALSE(cacheable(R)); // validation check timeout
  R.ValStatus = ValidationResult::Status::ValidatedUnserializable;
  EXPECT_TRUE(cacheable(R));

  JobResult W;
  W.Spec.Kind = JobKind::RandomWeak;
  W.Ok = true;
  W.Spec.CheckSerializability = true;
  W.Serializability = SerResult::Unknown;
  EXPECT_FALSE(cacheable(W)); // serializability check timeout
  W.Serializability = SerResult::Unserializable;
  EXPECT_TRUE(cacheable(W));
}

//===----------------------------------------------------------------------===
// Engine integration
//===----------------------------------------------------------------------===

TEST(EngineCache, WarmRunIsByteIdenticalWithAllHits) {
  Campaign C = mixedCampaign();
  std::string Dir = scratchDir("warm");

  Report Cold = run(C, Dir);
  EXPECT_EQ(Cold.cacheHits(), 0u);
  EXPECT_EQ(Cold.cacheMisses(), C.size());

  Report Warm = run(C, Dir);
  EXPECT_EQ(Warm.cacheHits(), C.size());
  EXPECT_EQ(Warm.cacheMisses(), 0u);
  for (const JobResult &R : Warm.results())
    EXPECT_TRUE(R.CacheHit);

  // Default reports: byte-identical cold, warm, and cache-less.
  EXPECT_EQ(Cold.toJson(), Warm.toJson());
  EXPECT_EQ(run(C).toJson(), Warm.toJson());
}

TEST(EngineCache, PartialInvalidationRecomputesOnlyTheMissingJob) {
  Campaign C = mixedCampaign();
  std::string Dir = scratchDir("partial");
  Report Cold = run(C, Dir);

  // Drop one entry; the re-run must recompute exactly that job.
  ResultStore Store(Dir);
  ASSERT_EQ(std::remove(Store.entryPath(C.Jobs[3]).c_str()), 0);
  Report Rerun = run(C, Dir);
  EXPECT_EQ(Rerun.cacheHits(), C.size() - 1);
  EXPECT_EQ(Rerun.cacheMisses(), 1u);
  EXPECT_FALSE(Rerun.results()[3].CacheHit);
  EXPECT_EQ(Cold.toJson(), Rerun.toJson());
  // And the recomputed result was stored back: third run is all hits.
  EXPECT_EQ(run(C, Dir).cacheHits(), C.size());
}

TEST(EngineCache, SharedEncodingsConsultTheCacheToo) {
  // All-Predict campaign on one observed execution: warm shared-mode
  // runs must answer from the cache without building any session.
  Campaign C = Campaign::predictGrid(
      "shared-cache", {"smallbank"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 1, 60000);
  std::string Dir = scratchDir("shared");

  Report Cold = run(C, Dir, /*ShareEncodings=*/true);
  EXPECT_EQ(Cold.cacheMisses(), C.size());
  Report Warm = run(C, Dir, /*ShareEncodings=*/true);
  EXPECT_EQ(Warm.cacheHits(), C.size());
  EXPECT_EQ(Cold.toJson(), Warm.toJson());
}

TEST(EngineCache, SharedEncodingsPartialHitRecomputesTheWholeGroup) {
  // Literal attribution inside a shared group depends on which member
  // paid the base prefix (base_prefix_reused / literals are default-
  // report bytes), so a partially-cached group must fall back to a
  // full recompute — every member a miss — rather than consume the
  // surviving entries and shift the attribution.
  Campaign C = Campaign::predictGrid(
      "shared-partial", {"smallbank"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 1, 60000);
  std::string Dir = scratchDir("shared-partial");

  Report Cold = run(C, Dir, /*ShareEncodings=*/true);
  ResultStore Store(Dir);
  // Invalidate a *later* group member: the base payer's entry survives,
  // which is exactly the skew-prone constellation.
  ASSERT_EQ(std::remove(Store.entryPath(C.Jobs[2], EncodingMode::Session)
                            .c_str()),
            0);

  Report Rerun = run(C, Dir, /*ShareEncodings=*/true);
  EXPECT_EQ(Rerun.cacheHits(), 0u);
  EXPECT_EQ(Rerun.cacheMisses(), C.size()); // all-or-nothing
  EXPECT_EQ(Cold.toJson(), Rerun.toJson());
  // The recompute restored the dropped entry: next run hits wholesale.
  EXPECT_EQ(run(C, Dir, /*ShareEncodings=*/true).cacheHits(), C.size());
}

TEST(EngineCache, ModesDoNotCrossContaminate) {
  // Session-encoded results carry shared-mode literal attribution
  // (base_prefix_reused, per-query counts) in default-report bytes; a
  // one-shot run must never answer from them (and vice versa). The two
  // modes cache side by side under distinct entry paths.
  Campaign C = Campaign::predictGrid(
      "modes", {"smallbank"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 1, 60000);
  std::string Dir = scratchDir("modes");

  Report SharedCold = run(C, Dir, /*ShareEncodings=*/true);
  EXPECT_EQ(SharedCold.cacheMisses(), C.size());

  // One-shot warm attempt against a session-filled cache: all misses,
  // and the report matches a cache-off one-shot run byte for byte.
  Report OneShot = run(C, Dir, /*ShareEncodings=*/false);
  EXPECT_EQ(OneShot.cacheHits(), 0u);
  EXPECT_EQ(OneShot.toJson(), run(C).toJson());

  // Both modes are now warm, each from its own entries.
  EXPECT_EQ(run(C, Dir, /*ShareEncodings=*/true).cacheHits(), C.size());
  EXPECT_EQ(run(C, Dir, /*ShareEncodings=*/false).cacheHits(), C.size());
}

TEST(EngineCache, SessionEntriesAreScopedToTheirShareGroup) {
  // Session-mode stats depend on the whole group constellation (which
  // member pays the base prefix), so entries written by differently-
  // composed campaigns must not answer: fill the cache from two
  // single-strategy shared runs, then run the combined campaign — all
  // misses, and bytes equal to a cache-off shared run of exactly this
  // campaign (a cross-campaign warm hit would splice in the wrong
  // literal attribution).
  std::string Dir = scratchDir("groupscope");
  auto grid = [&](std::vector<Strategy> Strats) {
    return Campaign::predictGrid("groups", {"smallbank"},
                                 {IsolationLevel::Causal},
                                 std::move(Strats), {false}, 1, 60000);
  };
  run(grid({Strategy::ApproxStrict}), Dir, /*ShareEncodings=*/true);
  run(grid({Strategy::ApproxRelaxed}), Dir, /*ShareEncodings=*/true);

  Campaign Combined =
      grid({Strategy::ApproxStrict, Strategy::ApproxRelaxed});
  Report Warm = run(Combined, Dir, /*ShareEncodings=*/true);
  EXPECT_EQ(Warm.cacheHits(), 0u);
  EXPECT_EQ(Warm.toJson(),
            run(Combined, {}, /*ShareEncodings=*/true).toJson());
  // The combined run stored entries for *its* constellation: now warm.
  EXPECT_EQ(run(Combined, Dir, /*ShareEncodings=*/true).cacheHits(),
            Combined.size());
}

TEST(EngineCache, PrunedAndUnprunedEntriesNeverCrossAnswer) {
  // JobSpec::Prune rides in canonicalSpec (and therefore in the spec
  // hash): runs of the same grid under the default (relevance) plan and
  // the identity plan file under different identities, so neither
  // answers the other's lookups — their default-report bytes (literal
  // counts, possibly models) legitimately differ.
  Campaign Default = Campaign::predictGrid(
      "prune-x", {"smallbank"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 1, 60000);
  Campaign Identity = Default;
  for (JobSpec &J : Identity.Jobs)
    J.Prune = false;
  for (size_t I = 0; I < Default.size(); ++I)
    EXPECT_NE(specHash(Default.Jobs[I]), specHash(Identity.Jobs[I]));

  std::string Dir = scratchDir("prunecross");
  Report DefaultCold = run(Default, Dir);
  EXPECT_EQ(DefaultCold.cacheMisses(), Default.size());

  // An identity-plan run against the default-filled cache: all misses.
  Report IdentityCold = run(Identity, Dir);
  EXPECT_EQ(IdentityCold.cacheHits(), 0u);
  EXPECT_EQ(IdentityCold.cacheMisses(), Identity.size());

  // Both are now warm from their own entries.
  EXPECT_EQ(run(Default, Dir).cacheHits(), Default.size());
  EXPECT_EQ(run(Identity, Dir).cacheHits(), Identity.size());
}

TEST(EngineCache, PrunedWarmRunReplaysPrunedBytes) {
  // Under either plan, a cold run and its warm replay must be
  // byte-identical — including the plan's literal counts in default
  // bytes and the per-pass literals under timings — and identical to a
  // cache-less run.
  for (bool Prune : {true, false}) {
    SCOPED_TRACE(Prune ? "default plan" : "identity plan");
    Campaign C = Campaign::predictGrid(
        "prune-warm", {"smallbank"}, {IsolationLevel::ReadCommitted},
        {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 2,
        60000);
    for (JobSpec &J : C.Jobs)
      J.Prune = Prune;
    std::string Dir = scratchDir(Prune ? "prunewarm" : "identitywarm");

    Report Cold = run(C, Dir);
    EXPECT_EQ(Cold.cacheMisses(), C.size());
    Report Warm = run(C, Dir);
    EXPECT_EQ(Warm.cacheHits(), C.size());
    for (const JobResult &R : Warm.results()) {
      EXPECT_TRUE(R.CacheHit);
      EXPECT_FALSE(R.Stats.Passes.empty())
          << "warm result lost its per-pass attribution";
    }
    EXPECT_EQ(Cold.toJson(), Warm.toJson());
    EXPECT_EQ(run(C).toJson(), Warm.toJson());
    // Timings-included bytes carry the per-pass literals through the
    // cache round-trip (the entry preserves the full JSON job entry).
    ReportOptions RO;
    RO.IncludeTimings = true;
    EXPECT_NE(Warm.toJson(RO).find("\"name\": \"window\""),
              std::string::npos);
  }
}

TEST(ResultStore, CorruptWitnessIsAMiss) {
  // An entry that survives the schema/version/spec checks but carries
  // a damaged witness array must degrade to a miss, not be served
  // with mangled transaction ids (witnesses are default-report bytes).
  std::string Dir = scratchDir("witness");
  ResultStore Store(Dir);
  JobSpec S;
  S.Kind = JobKind::Predict;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(2);
  S.TimeoutMs = 60000;
  JobResult R = Engine::runJob(S);
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.Outcome, SmtResult::Sat);
  ASSERT_FALSE(R.Witness.empty());
  ASSERT_TRUE(Store.store(R));
  ASSERT_TRUE(Store.lookup(S).has_value());

  std::string Raw;
  ASSERT_TRUE(readFile(Store.entryPath(S), Raw));
  size_t Pos = Raw.find("\"witness\": [");
  ASSERT_NE(Pos, std::string::npos);
  std::string Doctored = Raw;
  Doctored.replace(Pos, 12, "\"witness\": [true, ");
  ASSERT_TRUE(writeFileAtomic(Store.entryPath(S), Doctored));
  EXPECT_FALSE(Store.lookup(S).has_value());
}

//===----------------------------------------------------------------------===
// Sharding and merging
//===----------------------------------------------------------------------===

TEST(Shard, RoundRobinPartitionsTheCampaign) {
  Campaign C = mixedCampaign();
  std::vector<size_t> Seen(C.size(), 0);
  for (unsigned K = 1; K <= 3; ++K) {
    Campaign Shard = shardCampaign(C, K, 3);
    EXPECT_EQ(Shard.Name, C.Name);
    for (size_t J = 0; J < Shard.Jobs.size(); ++J) {
      size_t Original = (K - 1) + J * 3; // inverse of the round-robin
      ASSERT_LT(Original, C.size());
      EXPECT_EQ(specHash(Shard.Jobs[J]), specHash(C.Jobs[Original]));
      ++Seen[Original];
    }
  }
  for (size_t Count : Seen)
    EXPECT_EQ(Count, 1u); // a partition: every job in exactly one shard
}

TEST(Shard, CampaignFilesRoundTrip) {
  Campaign C = mixedCampaign();
  std::string Dir = scratchDir("shardfiles");
  std::vector<std::string> Paths;
  std::string Error;
  ASSERT_TRUE(writeShardFiles(C, 3, Dir, &Paths, &Error)) << Error;
  ASSERT_EQ(Paths.size(), 3u);

  for (unsigned K = 1; K <= 3; ++K) {
    std::string Json;
    ASSERT_TRUE(readFile(Paths[K - 1], Json));
    std::optional<ShardedCampaign> Back = campaignFromJson(Json, &Error);
    ASSERT_TRUE(Back.has_value()) << Error;
    EXPECT_EQ(Back->ShardIndex, K);
    EXPECT_EQ(Back->ShardCount, 3u);
    EXPECT_EQ(Back->C.Name, C.Name);
    Campaign Expected = shardCampaign(C, K, 3);
    ASSERT_EQ(Back->C.size(), Expected.size());
    for (size_t J = 0; J < Expected.size(); ++J)
      EXPECT_EQ(canonicalSpec(Back->C.Jobs[J]),
                canonicalSpec(Expected.Jobs[J]));
  }

  EXPECT_FALSE(campaignFromJson("{\"schema\": \"bogus\"}", &Error));
}

TEST(Merge, ShardedReportsMergeByteIdentically) {
  Campaign C = mixedCampaign();
  std::string Unsharded = run(C).toJson();

  for (unsigned N : {1u, 3u}) {
    std::vector<std::string> Docs;
    for (unsigned K = 1; K <= N; ++K) {
      Report R = run(shardCampaign(C, K, N));
      R.setShard(K, N);
      Docs.push_back(R.toJson());
    }
    std::string Error;
    std::optional<Report> Merged = mergeShardReports(Docs, &Error);
    ASSERT_TRUE(Merged.has_value()) << Error;
    EXPECT_EQ(Merged->toJson(), Unsharded) << "N=" << N;
  }
}

TEST(Merge, ShardOrderDoesNotMatter) {
  Campaign C = mixedCampaign();
  std::vector<std::string> Docs;
  for (unsigned K : {3u, 1u, 2u}) { // deliberately out of order
    Report R = run(shardCampaign(C, K, 3));
    R.setShard(K, 3);
    Docs.push_back(R.toJson());
  }
  std::string Error;
  std::optional<Report> Merged = mergeShardReports(Docs, &Error);
  ASSERT_TRUE(Merged.has_value()) << Error;
  EXPECT_EQ(Merged->toJson(), run(C).toJson());
}

TEST(Merge, InconsistentShardsAreRejected) {
  Campaign C = mixedCampaign();
  Report R1 = run(shardCampaign(C, 1, 3));
  R1.setShard(1, 3);
  Report R2 = run(shardCampaign(C, 2, 3));
  R2.setShard(2, 3);

  std::string Error;
  // Wrong document count for the declared shard_count.
  EXPECT_FALSE(mergeShardReports({R1.toJson(), R2.toJson()}, &Error));
  EXPECT_NE(Error.find("shard"), std::string::npos);
  // Duplicate shard index.
  EXPECT_FALSE(
      mergeShardReports({R1.toJson(), R1.toJson(), R2.toJson()}, &Error));
  // Not a report at all.
  EXPECT_FALSE(mergeShardReports({"[1, 2]"}, &Error));
}

TEST(Merge, ToolVersionSkewIsRejected) {
  // A shard produced by a different tool version cannot merge: the
  // merged report is re-stamped with this binary's version, so any
  // skew would misattribute outcomes (and void byte-identity).
  Campaign C = mixedCampaign();
  Report R = run(C);
  std::string Doc = R.toJson();
  std::string Stamp =
      "\"tool_version\": \"" + std::string(toolVersion()) + "\"";
  size_t Pos = Doc.find(Stamp);
  ASSERT_NE(Pos, std::string::npos);
  Doc.replace(Pos, Stamp.size(), "\"tool_version\": \"isopredict-0\"");

  std::string Error;
  EXPECT_FALSE(mergeShardReports({Doc}, &Error));
  EXPECT_NE(Error.find("tool_version"), std::string::npos);
}
