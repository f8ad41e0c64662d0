//===- cli_test.cpp - End-to-end tests of the command-line tools -*- C++ -*-==//
//
// Runs the built example and bench binaries the way a user does and
// checks what only a process shows: exit codes, stderr summary lines,
// files written for other tools, two processes sharing one cache, a
// daemon driven by the client and stopped by SIGTERM. Every campaign
// report a binary writes is compared byte for byte with what the
// in-process engine computes for the same campaign.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "cache/ResultStore.h"
#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <utility>

using namespace isopredict;
using namespace isopredict::engine;
using testutil::ScratchDir;

namespace {

std::string tool(const char *Name) {
  return pathJoin(ISOPREDICT_EXAMPLES_DIR, Name);
}

std::string slurp(const std::string &Path) {
  std::string Text;
  EXPECT_TRUE(readFile(Path, Text)) << Path;
  return Text;
}

JsonValue parsed(const std::string &Text) {
  std::string Error;
  std::optional<JsonValue> Doc = parseJson(Text, &Error);
  EXPECT_TRUE(Doc.has_value()) << Error << " in: " << Text.substr(0, 200);
  return Doc ? std::move(*Doc) : JsonValue();
}

/// The scalar at \p Path below \p V, or "<missing>".
std::string at(const JsonValue &V, std::initializer_list<const char *> Path) {
  const JsonValue *P = &V;
  for (const char *Key : Path)
    if (!(P = P->field(Key)))
      return "<missing>";
  return P->Text;
}

bool contains(const std::string &Text, const std::string &Needle) {
  return Text.find(Needle) != std::string::npos;
}

/// Runs \p Cmd through the shell and returns its exit status (-1 when it
/// did not exit normally). Its stdout replaces \p Out when given.
int runCommand(const std::string &Cmd, std::string *Out = nullptr) {
  std::string Sink, &Text = Out ? *Out : Sink;
  Text.clear();
  std::FILE *P = ::popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
    Text.append(Buf, N);
  int Status = ::pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs \p Cmd and returns its stdout and stderr; an exit status other
/// than \p Want fails the test.
std::string run(const std::string &Cmd, int Want = 0) {
  std::string Out;
  EXPECT_EQ(runCommand(Cmd + " 2>&1", &Out), Want) << Cmd << "\n" << Out;
  return Out;
}

/// `campaign_cli` on the smoke grid: smallbank and voter, seeds 1-2,
/// causal Approx-Relaxed, 5 s timeout (the CLI defaults).
const std::string SmokeCli =
    tool("campaign_cli") + " --apps smallbank,voter --seeds 2 --quiet";

/// The smoke grid's report from the in-process engine: what every
/// campaign_cli run of it must write, whatever its cache, worker count,
/// shards or telemetry flags.
const std::string &smokeReport() {
  static const std::string Json = [] {
    EngineOptions O;
    O.NumWorkers = 2;
    return Engine(O)
        .run(Campaign::predictGrid("campaign", {"smallbank", "voter"},
                                   {IsolationLevel::Causal},
                                   {Strategy::ApproxRelaxed}, {false}, 2,
                                   5000))
        .toJson();
  }();
  return Json;
}

} // namespace

TEST(Cli, EveryToolPrintsUsageForHelp) {
  for (const char *Tool :
       {"campaign_cli", "report_diff", "report_merge", "report_profile",
        "isopredict_client", "isopredict_server", "isopredict_cli"})
    for (const char *Flag : {"--help", "-h"}) {
      std::string Out;
      EXPECT_EQ(runCommand(tool(Tool) + " " + Flag + " 2>/dev/null", &Out), 0)
          << Tool << " " << Flag;
      EXPECT_EQ(Out.rfind(std::string("usage: ") + Tool, 0), 0u) << Out;
    }
}

TEST(CampaignCli, ReportMatchesTheEngineAtEveryWorkerCount) {
  ScratchDir D("cli-smoke");
  for (const char *Jobs : {"1", "4"}) {
    run(SmokeCli + " --jobs " + Jobs + " --out " + D / "r.json");
    std::string Json = slurp(D / "r.json");
    parsed(Json);
    EXPECT_EQ(Json, smokeReport()) << "--jobs " << Jobs;
  }
}

// campaign_cli's integer flags set `unsigned` options: a value above
// UINT_MAX is a usage error (exit 2), not wrapped (a --timeout-ms of
// 2^32 would run with no timeout at all).
TEST(CampaignCli, OutOfRangeIntegersAreUsageErrors) {
  std::string Cli = tool("campaign_cli") + " --apps voter --seeds 1 --dry-run ";
  run(Cli + "--timeout-ms 4294967295");
  for (const char *Args :
       {"--seeds 4294967297", "--jobs 4294967296", "--timeout-ms 4294967296",
        "--stream --window 4294967296", "--stream=4294967296",
        "--write-shards 4294967296", "--shard 4294967297/4294967297"})
    EXPECT_TRUE(contains(run(Cli + Args, 2), "4294967295")) << Args;
}

// --sizes takes SxT shapes next to the named ones; a named shape and
// its SxT spelling expand to the same jobs, hashes included.
TEST(CampaignCli, SizesAcceptSessionsByTxnsShapes) {
  std::string Cli = tool("campaign_cli") + " --apps smallbank,voter " +
                    "--seeds 2 --strategies exact,relaxed --dry-run --sizes ";
  std::string Named = run(Cli + "small,large");
  EXPECT_EQ(run(Cli + "3x4,3X8"), Named);
  size_t Jobs = 0;
  for (std::string_view Line : splitString(Named, '\n'))
    Jobs += Line.find(" predict ") != std::string_view::npos;
  EXPECT_EQ(Jobs, 2u * 2 * 2 * 2);
  EXPECT_TRUE(contains(run(Cli + "3x16"), " 3x16 "));
  for (const char *Bad : {"0x4", "3x", "3x4x2", "4294967296x4", "medium"})
    run(Cli + Bad, 2);
}

TEST(ReportDiffCli, ExitStatusGatesOnAnInjectedRegression) {
  ScratchDir D("cli-diff");
  std::string Good = D / "good.json", Bad = D / "bad.json";
  ASSERT_TRUE(writeFileAtomic(Good, smokeReport()));
  run(tool("report_diff") + " " + Good + " " + Good);
  // Flipping ok regresses any job kind without depending on solver
  // timing, unlike a sat -> unsat flip.
  std::string Doctored = smokeReport();
  size_t Pos = Doctored.find("\"ok\": true");
  ASSERT_NE(Pos, std::string::npos);
  Doctored.replace(Pos, 10, "\"ok\": false, \"error\": \"injected\"");
  ASSERT_TRUE(writeFileAtomic(Bad, Doctored));
  run(tool("report_diff") + " --quiet " + Good + " " + Bad, 1);
}

// The API walk-through prints the paper's running example: the
// observed deposits are serializable, and the prediction is Figure 3a,
// where both deposits read the initial balance.
TEST(Examples, QuickstartPredictsFigure3a) {
  std::string Out = run(tool("quickstart"));
  EXPECT_TRUE(contains(Out, "result: sat")) << Out;
  size_t Pred = Out.find("=== Predicted unserializable execution ===");
  ASSERT_NE(Pred, std::string::npos) << Out;
  EXPECT_TRUE(contains(Out.substr(Pred), "txn 1 0\nread acct 0 0\n")) << Out;
  EXPECT_TRUE(
      contains(Out, "pco cycle witnessing unserializability: t1 -> t2 -> t1"))
      << Out;
}

// Table 4 is a campaign_cli grid plus report_profile (README, "Reproducing
// the paper's tables"); here at 2 apps x 1 seed. report_profile prints
// one row per app x workload x strategy, with the paper's columns, and
// its counts are the report's own summary groups.
TEST(ReportProfileCli, Table4GridHasARowPerConfigurationWithThePaperColumns) {
  ScratchDir D("cli-table4");
  run(tool("campaign_cli") + " --apps tpcc,voter --levels causal " +
      "--strategies exact,strict,relaxed --sizes small,large --seeds 1 " +
      "--jobs 0 --timings --quiet --out " + D / "t4.json");
  std::string Out = run(tool("report_profile") + " " + D / "t4.json");
  for (const char *Column :
       {"T/O+Unk", "Unsat", "Sat", "Validated", "(Diverged)", "False preds",
        "Avg literals", "Gen", "Solve Sat", "Solve Unsat"})
    EXPECT_TRUE(contains(Out, Column)) << Column << "\n" << Out;

  std::map<std::string, std::vector<std::string>> Rows;
  for (std::string_view Line : splitString(Out, '\n')) {
    std::istringstream Cells{std::string(Line)};
    std::vector<std::string> Row;
    for (std::string Cell; Cells >> Cell;)
      Row.push_back(Cell);
    if (!Row.empty() && Row[0].rfind("predict|", 0) == 0)
      EXPECT_TRUE(Rows.emplace(Row[0], Row).second) << Line;
  }
  EXPECT_EQ(Rows.size(), 2u * 2 * 3) << Out;
  JsonValue Report = parsed(slurp(D / "t4.json"));
  const JsonValue *Summary = Report.field("summary");
  ASSERT_NE(Summary, nullptr);
  EXPECT_EQ(Summary->Items.size(), Rows.size());
  for (const JsonValue &G : Summary->Items) {
    const std::vector<std::string> &Row = Rows[at(G, {"config"})];
    ASSERT_EQ(Row.size(), 14u) << at(G, {"config"}) << "\n" << Out;
    EXPECT_EQ(Row[2], at(G, {"unknown"}));
    EXPECT_EQ(Row[3], at(G, {"unsat"}));
    EXPECT_EQ(Row[4], at(G, {"sat"}));
    EXPECT_EQ(Row[5], at(G, {"validated"}));
    EXPECT_EQ(Row[6], "(" + at(G, {"diverged"}) + ")");
    // Footnote 5: voter has one writing transaction, so no causal
    // prediction.
    if (contains(Row[0], "|voter|"))
      EXPECT_EQ(Row[4], "0") << Row[0];
  }
  // Approx-Strict reuses its strict pair's Exact-Strict answer; its Gen
  // charges that pair's encoding, so it is never below Exact-Strict's.
  bool SomeApproxGen = false;
  for (const auto &[Config, Row] : Rows) {
    size_t At = Config.find("|Approx-Strict|");
    if (At == std::string::npos)
      continue;
    std::string ExactConfig = Config;
    ExactConfig.replace(At, 15, "|Exact-Strict|");
    ASSERT_EQ(Rows.count(ExactConfig), 1u) << ExactConfig;
    double Gen = std::stod(Row[9]), ExactGen = std::stod(Rows[ExactConfig][9]);
    EXPECT_GE(Gen, ExactGen) << Config << "\n" << Out;
    SomeApproxGen |= Gen > 0;
  }
  EXPECT_TRUE(SomeApproxGen) << Out;
  EXPECT_TRUE(contains(Out, "include the Exact-Strict seconds")) << Out;

  // Without exact_stage_reused, an Approx-Strict job solved its own
  // exact stage (the daemon answers each query alone): its row reads its
  // own seconds, charged nothing, and no legend line says otherwise.
  std::string Paired = slurp(D / "t4.json"), Alone;
  for (std::string_view Line : splitString(Paired, '\n'))
    if (!contains(std::string(Line), "\"exact_stage_reused\""))
      Alone += std::string(Line) + "\n";
  ASSERT_NE(Alone.size(), Paired.size());
  JsonValue AloneReport = parsed(Alone);
  ASSERT_TRUE(writeFileAtomic(D / "alone.json", Alone));
  Out = run(tool("report_profile") + " " + D / "alone.json");
  EXPECT_FALSE(contains(Out, "include the Exact-Strict seconds")) << Out;
  std::map<std::string, std::pair<double, unsigned>> OwnGen;
  for (const JsonValue &J : AloneReport.field("jobs")->Items) {
    std::optional<JobResult> R = jobResultFromJson(J, nullptr);
    ASSERT_TRUE(R.has_value());
    auto &[Sum, Count] = OwnGen[groupKey(R->Spec)];
    Sum += R->Stats.GenSeconds;
    ++Count;
  }
  unsigned ApproxRows = 0;
  for (std::string_view Line : splitString(Out, '\n')) {
    std::istringstream Cells{std::string(Line)};
    std::vector<std::string> Row;
    for (std::string Cell; Cells >> Cell;)
      Row.push_back(Cell);
    if (Row.size() != 14 || !contains(Row[0], "|Approx-Strict|"))
      continue;
    ++ApproxRows;
    auto [Sum, Count] = OwnGen[Row[0]];
    ASSERT_GT(Count, 0u) << Row[0];
    EXPECT_NEAR(std::stod(Row[9]), Sum / Count, 0.0005) << Line;
  }
  EXPECT_EQ(ApproxRows, 2u * 2) << Out;
}

// Table 3 on the engine: the bench writes a parseable report that
// report_diff reads and finds identical to itself.
TEST(BenchCli, Table3ReportParsesAndSelfDiffsClean) {
  ScratchDir D("cli-table3");
  run("cd " + D.Path + " && ISOPREDICT_SEEDS=2 " +
      pathJoin(ISOPREDICT_BENCH_DIR, "table3_workloads"));
  std::string Report = D / "BENCH_table3.json";
  parsed(slurp(Report));
  run(tool("report_diff") + " " + Report + " " + Report);
}

// Tables 6 and 7 run the MonkeyDB-style random weak store, whose
// serializability column is the ∃co check. Each workload section has a
// row per application, and a run that fails an application assertion
// is unserializable, so Fail <= Unser in every row.
TEST(BenchCli, MonkeyDbTablesHaveARowPerAppWithFailAtMostUnser) {
  for (const char *Table : {"table6_monkeydb_causal", "table7_rc"}) {
    SCOPED_TRACE(Table);
    std::string Out;
    ASSERT_EQ(runCommand("ISOPREDICT_SEEDS=1 ISOPREDICT_RUNS=3 "
                         "ISOPREDICT_JSON_DIR= " +
                             pathJoin(ISOPREDICT_BENCH_DIR, Table),
                         &Out),
              0)
        << Out;
    for (const std::string &App : applicationNames()) {
      unsigned Rows = 0;
      for (std::string_view Line : splitString(Out, '\n')) {
        std::istringstream Cells{std::string(Line)};
        std::string Name, Fail, Unser;
        if (!(Cells >> Name >> Fail >> Unser) || Name != App)
          continue;
        ++Rows;
        ASSERT_TRUE(Fail.back() == '%' && Unser.back() == '%') << Line;
        EXPECT_LE(std::stoi(Fail), std::stoi(Unser)) << Line;
      }
      EXPECT_EQ(Rows, 2u) << App << " (small and large)\n" << Out;
    }
  }
}

TEST(CampaignCli, WarmCacheRunIsAllHitsAndByteIdentical) {
  ScratchDir D("cli-cache");
  for (const char *Stream : {"", " --stream=3 --window 4"}) {
    SCOPED_TRACE(Stream);
    std::string Run = SmokeCli + " --jobs 2 --cache-dir " +
                      D / (*Stream ? "stream-cache" : "cache") + Stream +
                      " --out ";
    EXPECT_TRUE(contains(run(Run + D / "cold.json"),
                         "cache: 0 hit(s), 4 miss(es)"));
    EXPECT_TRUE(contains(run(Run + D / "warm.json"),
                         "cache: 4 hit(s), 0 miss(es)"));
    EXPECT_EQ(slurp(D / "cold.json"), slurp(D / "warm.json"));
    if (!*Stream) // The cache is invisible in report bytes.
      EXPECT_EQ(slurp(D / "cold.json"), smokeReport());
  }
  // --dry-run agrees: every job is a hit, none is solved.
  std::string Dry;
  ASSERT_EQ(runCommand(tool("campaign_cli") + " --apps smallbank,voter " +
                           "--seeds 2 --dry-run --cache-dir " + D / "cache",
                       &Dry),
            0);
  size_t Hits = 0, Misses = 0;
  for (std::string_view Line : splitString(Dry, '\n')) {
    Hits += Line.size() > 4 && Line.substr(Line.size() - 4) == " hit";
    Misses += Line.size() > 5 && Line.substr(Line.size() - 5) == " miss";
  }
  EXPECT_EQ(Hits, 4u) << Dry;
  EXPECT_EQ(Misses, 0u) << Dry;
}

// Cache consumption is all-or-nothing per pair, and campaign_cli
// --dry-run previews exactly what the run then consumes.
TEST(Engine, PartiallyCachedStrictPairRecomputesBoth) {
  // The campaign the CLI flags below expand to.
  Campaign C = Campaign::predictGrid(
      "campaign", {"smallbank"}, {IsolationLevel::ReadCommitted},
      {Strategy::ExactStrict, Strategy::ApproxStrict,
       Strategy::ApproxRelaxed},
      {false}, 1, 5000);
  ASSERT_EQ(C.size(), 3u);
  ScratchDir Cache("pair-cache");
  EngineOptions O;
  O.CacheDir = Cache.Path;
  Report Cold = Engine(O).run(C);
  ASSERT_EQ(Cold.cacheMisses(), 3u);
  cache::ResultStore Store(O.CacheDir);
  ASSERT_TRUE(std::filesystem::remove(Store.entryPath(C.Jobs[0])));

  std::string Preview;
  ASSERT_EQ(runCommand(tool("campaign_cli") + " --apps smallbank --levels rc " +
                           "--strategies exact,strict,relaxed --seeds 1 " +
                           "--dry-run --cache-dir " + Cache.Path +
                           " 2>/dev/null",
                       &Preview),
            0);
  std::vector<std::string_view> Lines = splitString(Preview, '\n');
  ASSERT_GE(Lines.size(), 3u) << Preview;

  Report Warm = Engine(O).run(C);
  EXPECT_EQ(Warm.cacheHits(), 1u);
  EXPECT_EQ(Warm.cacheMisses(), 2u);
  for (size_t I = 0; I < C.size(); ++I) {
    const JobResult &R = Warm.results()[I];
    bool Hit = C.Jobs[I].Strat == Strategy::ApproxRelaxed;
    EXPECT_EQ(R.CacheHit, Hit) << toString(C.Jobs[I].Strat);
    EXPECT_EQ(formatString("%016llx", static_cast<unsigned long long>(
                                          specHash(C.Jobs[I]))),
              Lines[I].substr(0, 16));
    EXPECT_NE(Lines[I].find(Hit ? "  hit" : "  miss"), std::string::npos)
        << Lines[I];
  }
  EXPECT_EQ(Warm.toJson(), Cold.toJson());
}

// Two processes racing one cache directory write identical reports and
// leave no torn entries: a warm third run answers fully from the cache.
TEST(CampaignCli, TwoProcessesShareOneCacheDir) {
  ScratchDir D("cli-race");
  std::string Run =
      SmokeCli + " --jobs 2 --cache-dir " + D / "cache" + " --out ";
  run(Run + D / "a.json & " + Run + D / "b.json && wait $!");
  EXPECT_EQ(slurp(D / "a.json"), slurp(D / "b.json"));
  EXPECT_TRUE(contains(run(Run + D / "warm.json"),
                       "cache: 4 hit(s), 0 miss(es)"));
  EXPECT_EQ(slurp(D / "a.json"), slurp(D / "warm.json"));
}

TEST(CampaignCli, ShardsMergeToTheUnshardedReport) {
  ScratchDir D("cli-shard");
  std::string Shards;
  for (unsigned K = 1; K <= 3; ++K) {
    std::string Out = D / formatString("shard%u.json", K);
    run(SmokeCli + formatString(" --shard %u/3 --out ", K) + Out);
    Shards += " " + Out;
  }
  std::string Merge = tool("report_merge") + " --quiet --out ";
  run(Merge + D / "merged.json" + Shards);
  EXPECT_EQ(slurp(D / "merged.json"), smokeReport());
  // A one-report merge is the parse/re-emit identity.
  ASSERT_TRUE(writeFileAtomic(D / "full.json", smokeReport()));
  run(Merge + D / "merged1.json " + D / "full.json");
  EXPECT_EQ(slurp(D / "merged1.json"), smokeReport());
  // A worker fed a shard campaign file writes what --shard writes.
  run(tool("campaign_cli") + " --apps smallbank,voter --seeds 2 " +
      "--write-shards 3 --out " + D / "shards");
  run(tool("campaign_cli") + " --quiet --campaign " +
      D / "shards/shard-2-of-3.campaign.json --out " + D / "file2.json");
  EXPECT_EQ(slurp(D / "file2.json"), slurp(D / "shard2.json"));
}

// A traced, timed run writes a well-formed Chrome trace and a report
// with metrics and solver statistics; report_profile reads both; and
// every telemetry flag at once leaves the default report bytes alone.
TEST(CampaignCli, TelemetryArtifactsAndDefaultBytes) {
  ScratchDir D("cli-obs");
  run(SmokeCli + " --jobs 2 --timings --trace-out " + D / "trace.json" +
      " --out " + D / "timed.json");
  JsonValue Trace = parsed(slurp(D / "trace.json"));
  ASSERT_NE(Trace.field("traceEvents"), nullptr);
  std::set<std::string> Cats;
  for (const JsonValue &E : Trace.field("traceEvents")->Items) {
    Cats.insert(at(E, {"cat"}));
    EXPECT_GE(std::stod(at(E, {"ts"})), 0.0);
  }
  for (const char *Want : {"engine", "encode", "solver"})
    EXPECT_TRUE(Cats.count(Want)) << Want;
  JsonValue Timed = parsed(slurp(D / "timed.json"));
  EXPECT_EQ(at(Timed, {"metrics", "counters", "engine.jobs_completed"}), "4");
  EXPECT_GE(std::stoul(at(Timed, {"metrics", "histograms",
                                  "solver.check_seconds", "count"})),
            1u);
  EXPECT_TRUE(contains(slurp(D / "timed.json"), "\"solver_stats\""));

  // The one-line phase breakdown prints without --timings too.
  std::string Log = run(tool("campaign_cli") +
                        " --apps smallbank --seeds 1 --quiet --out /dev/null");
  EXPECT_TRUE(std::regex_search(
      Log, std::regex("phases: encode [0-9.]+s / solve [0-9.]+s")))
      << Log;
  Log = run(tool("report_profile") + " " + D / "timed.json");
  EXPECT_TRUE(contains(Log, "per-phase") && contains(Log, "slowest jobs:"))
      << Log;
  Log = run(tool("report_profile") + " " + D / "trace.json");
  EXPECT_TRUE(contains(Log, "slowest spans:")) << Log;

  run(SmokeCli + " --jobs 2 --trace-out " + D / "trace2.json" +
      " --metrics-out " + D / "metrics.json --log-file " +
      D / "campaign.ndjson --log-json --log-level debug --out " +
      D / "loud.json");
  EXPECT_EQ(slurp(D / "loud.json"), smokeReport());
  JsonValue Metrics = parsed(slurp(D / "metrics.json"));
  EXPECT_EQ(at(Metrics, {"schema"}), "isopredict-metrics/1");
  EXPECT_EQ(at(Metrics, {"metrics", "counters", "engine.jobs_completed"}),
            "4");
  std::set<std::string> Events;
  std::string Ndjson = slurp(D / "campaign.ndjson");
  for (std::string_view Line : splitString(Ndjson, '\n'))
    if (!Line.empty())
      Events.insert(at(parsed(std::string(Line)), {"event"}));
  for (const char *Want : {"campaign.start", "job.done", "campaign.done"})
    EXPECT_TRUE(Events.count(Want)) << Want;
}

//===----------------------------------------------------------------------===
// The daemon and its client
//===----------------------------------------------------------------------===

namespace {

/// An isopredict_server child on an ephemeral port, logging to a file
/// in a fresh directory. The port is read from its own
/// "server.listening" line (text or NDJSON), so no port file can be
/// stale. A daemon the test did not stop is killed when the test ends.
struct Daemon {
  pid_t Pid = -1;
  std::string Port, LogPath;

  /// \p Shell runs first in the daemon's shell (say, a ulimit).
  Daemon(const ScratchDir &D, const std::string &Args,
         const std::string &Shell = "")
      : LogPath(D / "server.log") {
    std::string Cmd = Shell + "exec " + tool("isopredict_server") +
                      " --port 0 --log-file " + LogPath + " " + Args;
    Pid = ::fork();
    if (Pid == 0) {
      ::execl("/bin/sh", "sh", "-c", Cmd.c_str(), static_cast<char *>(nullptr));
      ::_exit(127);
    }
    std::regex Listening("server\\.listening.*port\"?[=:] ?\"?([0-9]+)");
    std::smatch M;
    for (int I = 0; I < 300 && Port.empty(); ++I) {
      std::string Log;
      if (readFile(LogPath, Log) && std::regex_search(Log, M, Listening))
        Port = M[1];
      else
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  /// Runs the client against this daemon; its stdout lands in \p Out.
  int client(const std::string &Args, std::string *Out = nullptr) const {
    return runCommand(tool("isopredict_client") + " --port " + Port + " " +
                          Args + " 2>/dev/null",
                      Out);
  }

  /// Waits for the daemon to exit; returns its exit status.
  int wait() {
    int Status = 0;
    ::waitpid(std::exchange(Pid, -1), &Status, 0);
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }

  ~Daemon() {
    if (Pid > 0 && ::kill(Pid, SIGKILL) == 0)
      wait();
  }
};

/// One raw loopback connection whose reads give up after 5 s.
struct Socket {
  int Fd = -1;

  explicit Socket(const std::string &Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    timeval TV = {5, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(std::stoul(Port)));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      ADD_FAILURE() << "connect: " << std::strerror(errno);
  }
  Socket(Socket &&O) noexcept : Fd(std::exchange(O.Fd, -1)) {}
  ~Socket() {
    if (Fd >= 0)
      ::close(Fd);
  }

  /// Sends a ping and reads its answer line.
  bool ping() {
    const std::string Line = "{\"id\": 1, \"verb\": \"ping\"}\n";
    if (::write(Fd, Line.data(), Line.size()) !=
        static_cast<ssize_t>(Line.size()))
      return false;
    std::string Got;
    char C;
    while (::read(Fd, &C, 1) == 1 && C != '\n')
      Got += C;
    return contains(Got, "\"ok\": true");
  }
};

/// The user plus system CPU seconds of process \p Pid so far.
double cpuSeconds(pid_t Pid) {
  std::string Stat;
  if (!readFile(formatString("/proc/%d/stat", static_cast<int>(Pid)), Stat))
    return 0;
  // Fields after the parenthesized command name; utime and stime are
  // the 14th and 15th fields of the line.
  std::istringstream Fields(Stat.substr(Stat.rfind(')') + 2));
  std::string Field;
  unsigned long long Utime = 0, Stime = 0;
  for (int I = 3; I <= 15 && Fields >> Field; ++I) {
    if (I == 14)
      Utime = std::stoull(Field);
    if (I == 15)
      Stime = std::stoull(Field);
  }
  return static_cast<double>(Utime + Stime) / ::sysconf(_SC_CLK_TCK);
}

} // namespace

// At its fd limit the daemon cannot accept, and the pending connections
// keep the listening socket readable. It pauses accepting for one poll
// round instead of spinning, keeps serving the clients it has, and
// accepts again once descriptors free up.
TEST(ServerCli, AcceptAtTheFdLimitDoesNotSpin) {
  ScratchDir D("cli-fdlimit");
  Daemon S(D, "--workers 1", "ulimit -n 32; ");
  ASSERT_FALSE(S.Port.empty()) << slurp(S.LogPath);
  Socket First(S.Port);
  ASSERT_TRUE(First.ping());
  std::vector<Socket> Extra;
  for (int I = 0; I < 64; ++I)
    Extra.emplace_back(S.Port);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto failureLogs = [&] {
    std::string Log = slurp(S.LogPath);
    size_t N = 0;
    for (size_t At = 0; (At = Log.find("server.accept_failed", At)) !=
                        std::string::npos;
         ++At)
      ++N;
    return N;
  };
  size_t Logged = failureLogs();
  double Before = cpuSeconds(S.Pid);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(cpuSeconds(S.Pid) - Before, 0.2);
  // Logged when accepting starts to fail, not at every retry.
  EXPECT_GE(Logged, 1u);
  EXPECT_EQ(failureLogs(), Logged);
  EXPECT_TRUE(First.ping());
  Extra.clear();
  Socket Late(S.Port);
  EXPECT_TRUE(Late.ping());
}

// The client's actions against an open-mode daemon: observe, upload,
// extend and history queries, a spec grid collected as a report that
// matches a batch run, a repeated query answered by the cache, status
// and metrics dumps that report_profile reads, the live dashboard, and
// the shutdown verb; with NDJSON logging, a slow-query log and
// continuous tracing on.
TEST(ServerCli, ClientActionsOnAnOpenModeDaemon) {
  ScratchDir D("cli-open");
  Daemon S(D, "--workers 2 --cache-dir " + D / "cache" +
                  " --log-json --log-level debug --slow-query-ms 0.001 " +
                  "--trace-dir " + D / "traces");
  ASSERT_FALSE(S.Port.empty()) << slurp(S.LogPath);
  const std::string Small = "workload=small,seed=";
  const std::string Causal = ",level=causal,strategy=relaxed,timeout_ms=30000";
  std::string Out;
  EXPECT_EQ(S.client("--ping --observe app=voter," + Small + "2,out=" +
                         D / "trace.txt --upload h1:" + D / "trace.txt" +
                         " --query-history h1" + Causal,
                     &Out),
            0);
  EXPECT_TRUE(contains(Out, "\"verb\": \"upload\"")) << Out;
  EXPECT_TRUE(contains(Out, "\"answered_by\"")) << Out;

  // Split the trace after a commit midway; the headerless delta grows
  // the warm session, which answers the rc re-query (causal is cached).
  std::string Trace = slurp(D / "trace.txt");
  size_t Cut = Trace.find("\ncommit\n", Trace.size() / 2);
  ASSERT_LT(Cut, Trace.size() - 8); // Found, and not the last commit.
  Cut += 8;
  ASSERT_TRUE(writeFileAtomic(D / "base.txt", Trace.substr(0, Cut)));
  ASSERT_TRUE(writeFileAtomic(D / "delta.txt", Trace.substr(Cut)));
  EXPECT_EQ(S.client("--upload h2:" + D / "base.txt" + " --query-history h2" +
                         Causal + " --extend h2:" + D / "delta.txt" +
                         " --query-history h2,level=rc,strategy=relaxed," +
                         "timeout_ms=30000",
                     &Out),
            0);
  for (const char *Want : {"\"verb\": \"extend\"", "\"extended_sessions\": 1",
                           "\"warm_session\": true"})
    EXPECT_TRUE(contains(Out, Want)) << Want << "\n" << Out;

  // The client's --collect report pairs up with a batch run by spec hash.
  run(tool("campaign_cli") + " --apps smallbank,voter --levels causal,rc " +
      "--strategies strict,relaxed --seeds 1 --jobs 2 --quiet --out " +
      D / "batch.json");
  std::string Queries;
  for (const char *App : {"smallbank", "voter"})
    for (const char *Level : {"causal", "rc"})
      for (const char *Strat : {"strict", "relaxed"})
        Queries += formatString(" --query app=%s,%s1,level=%s,strategy=%s",
                                App, Small.c_str(), Level, Strat);
  EXPECT_EQ(S.client(Queries + " --collect " + D / "served.json"), 0);
  EXPECT_TRUE(contains(run(tool("report_diff") + " --outcomes-only " +
                           D / "batch.json " + D / "served.json"),
                       "8 matched job(s)"));

  // A repeated query is a cache answer with zero new solver checks.
  std::string Q = " --query app=voter," + Small + "3" + Causal;
  EXPECT_EQ(S.client(Q + " --status-out " + D / "s1.json" + Q +
                     " --status-out " + D / "s2.json --metrics-out " +
                     D / "metrics.prom"),
            0);
  JsonValue S1 = parsed(slurp(D / "s1.json"));
  JsonValue S2 = parsed(slurp(D / "s2.json"));
  auto counter = [](const JsonValue &St, const char *Name) {
    std::string V = at(St, {"metrics", "counters", Name});
    return V == "<missing>" ? 0ull : std::stoull(V);
  };
  EXPECT_EQ(counter(S2, "solver.checks"), counter(S1, "solver.checks"));
  EXPECT_EQ(counter(S2, "server.cache_answers"),
            counter(S1, "server.cache_answers") + 1);
  EXPECT_EQ(counter(S2, "server.queries"), counter(S1, "server.queries") + 1);
  EXPECT_TRUE(contains(slurp(D / "metrics.prom"),
                       "# TYPE server_requests counter"));
  Out = run(tool("report_profile") + " " + D / "s2.json");
  EXPECT_TRUE(contains(Out, "server status:") &&
              contains(Out, "cache answer(s)"))
      << Out;
  Out = run(tool("report_profile") + " --follow 127.0.0.1:" + S.Port +
            " --interval 0.2 --count 2");
  EXPECT_TRUE(contains(Out, "isopredict_server") && contains(Out, "traffic:"))
      << Out;

  EXPECT_EQ(S.client("--shutdown"), 0);
  EXPECT_EQ(S.wait(), 0);
  // Every query crossed the 0.001 ms threshold: the first warn-level
  // slow_query event carries the tenant, spec hash and solver statistics.
  std::string Log = slurp(S.LogPath);
  JsonValue Slow;
  for (std::string_view Line : splitString(Log, '\n'))
    if (!Line.empty() && Slow.K == JsonValue::Kind::Null) {
      JsonValue Event = parsed(std::string(Line));
      if (at(Event, {"event"}) == "slow_query")
        Slow = std::move(Event);
    }
  EXPECT_EQ(at(Slow, {"level"}), "warn");
  EXPECT_EQ(at(Slow, {"fields", "tenant"}), "default");
  EXPECT_EQ(at(Slow, {"fields", "spec_hash"}).size(), 16u);
  EXPECT_NE(at(Slow, {"fields", "seconds"}), "<missing>");
  EXPECT_NE(at(Slow, {"fields", "solver_conflicts"}), "<missing>");
  EXPECT_TRUE(contains(Log, "server.drained"));
  // Continuous tracing rotated at least the final drain flush.
  parsed(slurp(D / "traces/trace-000000.json"));
}

// A tenants-file daemon: refused actions make the client exit non-zero
// with the error code on stdout, a burst over quota gets well-formed
// rejections, and SIGTERM drains the daemon to exit 0.
TEST(ServerCli, TenantErrorsAndSigtermDrain) {
  ScratchDir D("cli-tenants");
  ASSERT_TRUE(writeFileAtomic(
      D / "tenants.json",
      R"({"tenants": [{"name": "ops", "admin": true}, {"name": "tiny", )"
      R"("api_key": "k2", "max_concurrent": 1, "max_queued": 1}]})"));
  Daemon S(D, "--workers 2 --tenants " + D / "tenants.json");
  ASSERT_FALSE(S.Port.empty()) << slurp(S.LogPath);
  const std::string Voter = "app=voter,workload=small,seed=";
  std::string Out;
  // Four clients at once across both tenants, tiny's two at exactly its
  // 1-running + 1-queued quota: all are answered ok and exit 0 (the
  // shell exits with the number that did not).
  std::string Clients;
  for (const char *Auth : {"ops", "ops", "tiny:k2", "tiny:k2"})
    Clients += tool("isopredict_client") + " --port " + S.Port + " --auth " +
               Auth + " --ping --query " + Voter +
               "1,level=causal & P=\"$P $!\";";
  Clients += " F=0; for I in $P; do wait $I || F=$((F + 1)); done; exit $F";
  EXPECT_EQ(runCommand(Clients, &Out), 0) << Out;
  EXPECT_NE(S.client("--query " + Voter + "1", &Out), 0);
  EXPECT_TRUE(contains(Out, "auth_required")) << Out;
  EXPECT_EQ(S.client("--auth ops --observe " + Voter + "2,name=secret"), 0);
  EXPECT_NE(S.client("--auth tiny:k2 --query-history secret", &Out), 0);
  EXPECT_TRUE(contains(Out, "unknown_history")) << Out;

  // The burst query (smallbank causal strict) is slow enough that the
  // pipelined copies arrive while it runs.
  EXPECT_EQ(S.client("--auth tiny:k2 --burst 6 --query app=smallbank," +
                         std::string("workload=small,seed=1,level=causal,") +
                         "strategy=strict --ping",
                     &Out),
            0);
  EXPECT_TRUE(contains(Out, "quota_exceeded")) << Out;
  size_t Answers = 0;
  for (std::string_view Line : splitString(Out, '\n'))
    Answers += Line.find("\"verb\": \"query\"") != std::string_view::npos;
  EXPECT_EQ(Answers, 6u) << Out;
  EXPECT_TRUE(contains(Out, "\"ok\": true, \"verb\": \"query\"")) << Out;

  EXPECT_NE(S.client("--auth tiny:k2 --shutdown", &Out), 0);
  EXPECT_TRUE(contains(Out, "not_authorized")) << Out;
  ASSERT_EQ(::kill(S.Pid, SIGTERM), 0);
  EXPECT_EQ(S.wait(), 0);
  EXPECT_TRUE(contains(slurp(S.LogPath), "drained"));
}
