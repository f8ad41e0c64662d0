//===- campaign_cli.cpp - Campaign-engine command line front end -*- C++ -*-===//
//
// Runs a grid of IsoPredict pipeline jobs (Tables 4/5-style sweeps) on
// the parallel campaign engine and writes a structured JSON report.
//
// Usage:
//   campaign_cli [--apps a,b] [--levels causal,rc,ra]
//                [--strategies exact,strict,relaxed] [--sizes small,large,SxT]
//                [--seeds N] [--jobs N] [--timeout-ms N]
//                [--no-prune]
//                [--stream[=CHUNK]] [--window N] [--stream-from-scratch]
//                [--no-validate] [--timings] [--quiet]
//                [--cache-dir DIR] [--shard K/N] [--write-shards N]
//                [--campaign FILE] [--dry-run]
//                [--name NAME] [--out report.json]
//                [--metrics-out FILE]
//                [--log-file FILE] [--log-level L] [--log-json]
//
// Defaults run every app under causal with Approx-Relaxed, small
// workload, 5 seeds, on one worker. `--jobs 0` uses all hardware
// threads. The JSON report goes to --out (or stdout with `--out -`);
// progress and the human summary go to stderr, so stdout stays
// machine-readable. Without --timings the report is byte-identical for
// any --jobs value (determinism under parallelism).
//
// Caching & sharding (src/cache/):
//   --cache-dir DIR    consult/populate a persistent result cache; a
//                      warm re-run reproduces the cold report
//                      byte-for-byte with zero solver calls
//   --shard K/N        run only shard K of N (deterministic
//                      round-robin slice); merge the N reports with
//                      report_merge to recover the unsharded report
//   --write-shards N   write N self-contained shard campaign files
//                      (shard-K-of-N.campaign.json) instead of
//                      running; --out names the directory
//   --campaign FILE    execute a shard campaign file (grid flags and
//                      --name then come from the file, not the CLI)
//   --dry-run          list the expanded jobs with their spec hashes
//                      (and cache hit/miss status under --cache-dir)
//                      without solving anything
//
//===----------------------------------------------------------------------===//

#include "cache/ResultStore.h"
#include "cache/Shard.h"
#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "obs/Log.h"
#include "obs/Tracer.h"
#include "smt/Smt.h"
#include "support/Fs.h"
#include "support/Signal.h"
#include "support/StrUtil.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <string>
#include <thread>
#include <vector>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr after \p Msg (exit 2).
int usage(const char *Msg = nullptr, std::FILE *Out = stderr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n", Msg);
  std::fprintf(
      Out,
      "usage: campaign_cli [options]\n"
      "  --apps a,b,...        applications (default: all bundled)\n"
      "  --levels l,...        causal | rc | ra (default: causal)\n"
      "  --strategies s,...    exact | strict | relaxed (default: relaxed)\n"
      "  --sizes s,...         small | large | SxT: S sessions of T\n"
      "                        transactions, e.g. 3x16 (default: small =\n"
      "                        3x4; large = 3x8)\n"
      "  --seeds N             workload seeds 1..N (default: 5)\n"
      "  --jobs N              worker threads, 0 = all cores (default: 1)\n"
      "  --timeout-ms N        per-query solver timeout (default: 5000)\n"
      "  --no-prune            encode with the identity plan instead of\n"
      "                        the relevance plan (same sat/unsat\n"
      "                        outcomes; more literals, models may differ)\n"
      "  --stream[=CHUNK]      streaming jobs instead of one-shot predict:\n"
      "                        feed each observed execution to a windowed\n"
      "                        PredictSession CHUNK transactions at a time\n"
      "                        (default 4), querying after every step; the\n"
      "                        report gains a per-step \"steps\" array\n"
      "  --window N            streaming sliding-window width in\n"
      "                        transactions per session (default 0 =\n"
      "                        unbounded; requires --stream)\n"
      "  --stream-from-scratch re-observe every streaming step with a fresh\n"
      "                        session instead of extend() — the slow\n"
      "                        equivalence baseline; an execution flag, so\n"
      "                        spec hashes and report identities match the\n"
      "                        extend run (diff them with report_diff)\n"
      "  --no-validate         skip validation replay of Sat predictions\n"
      "  --cache-dir DIR       persistent result cache: skip jobs whose\n"
      "                        results are cached, store the rest\n"
      "  --shard K/N           run only shard K of N (1-based round-robin\n"
      "                        slice; merge reports with report_merge)\n"
      "  --write-shards N      write N shard campaign files into the --out\n"
      "                        directory instead of running\n"
      "  --campaign FILE       run a shard campaign file (excludes the\n"
      "                        grid flags above)\n"
      "  --dry-run             list expanded jobs + spec hashes (and cache\n"
      "                        status under --cache-dir) without solving\n"
      "  --timings             include run-dependent timing fields in JSON\n"
      "  --trace-out FILE      write a Chrome trace-event JSON timeline of\n"
      "                        the run (open in Perfetto / chrome://tracing);\n"
      "                        does not change report bytes\n"
      "  --quiet               suppress per-job progress on stderr\n"
      "  --name NAME           campaign name in the report\n"
      "  --out FILE            JSON report path, '-' = stdout (default: -)\n"
      "  --metrics-out FILE    write the run's metrics delta as a\n"
      "                        standalone JSON document (the --timings\n"
      "                        metrics block, without touching the report)\n"
      "  --log-file FILE       structured log sink (default: stderr)\n"
      "  --log-level L         debug|info|warn|error|off (default: info;\n"
      "                        debug adds a job.done event per job)\n"
      "  --log-json            NDJSON log lines instead of text\n");
  return Out == stdout ? 0 : 2;
}

std::vector<std::string> splitList(const std::string &Arg) {
  std::vector<std::string> Out;
  for (std::string_view Part : splitString(Arg, ','))
    if (!Part.empty())
      Out.emplace_back(Part);
  return Out;
}

/// Lists the expanded jobs (spec hash, identity, cache status) without
/// running anything. stdout, one line per job, machine-greppable.
/// The preview replicates the engine's consumption exactly —
/// all-or-nothing within strict pairs (Engine::planGroups), so a
/// half-cached pair previews as two misses just like the run would
/// recompute it.
int dryRun(const Campaign &C, const std::string &CacheDir) {
  std::optional<cache::ResultStore> Store;
  if (!CacheDir.empty())
    Store.emplace(CacheDir);
  std::vector<bool> Hit(C.size(), false);
  if (Store)
    for (const std::vector<size_t> &Indices : Engine::planGroups(C))
      if (Store->lookupGroup(C, Indices))
        for (size_t I : Indices)
          Hit[I] = true;

  unsigned Hits = 0;
  for (size_t Index = 0; Index < C.size(); ++Index) {
    const JobSpec &S = C.Jobs[Index];
    std::string Status;
    if (Store) {
      Hits += Hit[Index];
      Status = Hit[Index] ? "  hit" : "  miss";
    }
    std::string Detail;
    if (S.Kind == JobKind::Predict)
      Detail = formatString(" %s %s %s%s", toString(S.Level),
                            toString(S.Strat), toString(S.Pco),
                            S.Prune ? "" : " no-prune");
    else if (S.Kind == JobKind::Stream)
      Detail = formatString(" %s %s %s window=%u chunk=%u%s",
                            toString(S.Level), toString(S.Strat),
                            toString(S.Pco), S.Window, S.StreamChunk,
                            S.Prune ? "" : " no-prune");
    else if (S.Kind == JobKind::RandomWeak)
      Detail = formatString(" %s store_seed=%llu", toString(S.Level),
                            static_cast<unsigned long long>(S.StoreSeed));
    else if (S.Kind == JobKind::LockingRc)
      Detail = formatString(" store_seed=%llu",
                            static_cast<unsigned long long>(S.StoreSeed));
    std::printf("%016llx %s %s %s seed=%llu%s%s\n",
                static_cast<unsigned long long>(specHash(S)),
                toString(S.Kind), S.App.c_str(),
                workloadLabel(S.Cfg).c_str(),
                static_cast<unsigned long long>(S.Cfg.Seed), Detail.c_str(),
                Status.c_str());
  }
  if (Store)
    std::fprintf(stderr, "%zu job(s), %u hit(s), %zu miss(es)\n", C.size(),
                 Hits, C.size() - Hits);
  else
    std::fprintf(stderr, "%zu job(s)\n", C.size());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> Apps = applicationNames();
  std::vector<IsolationLevel> Levels = {IsolationLevel::Causal};
  std::vector<Strategy> Strategies = {Strategy::ApproxRelaxed};
  std::vector<WorkloadConfig> Shapes = {WorkloadConfig::small(1)};
  unsigned Seeds = 5;
  unsigned Jobs = 1;
  unsigned TimeoutMs = 5000;
  bool Prune = true;
  bool Stream = false;
  unsigned StreamChunk = 4;
  unsigned Window = 0;
  bool StreamFromScratch = false;
  bool Validate = true;
  bool Timings = false;
  bool Quiet = false;
  bool DryRun = false;
  std::string CacheDir;
  unsigned ShardIndex = 0, ShardCount = 0; // 0 = no --shard given.
  unsigned WriteShards = 0;
  std::string CampaignFile;
  std::string Name = "campaign";
  std::string OutPath = "-";
  std::string TraceOut;
  std::string MetricsOut;
  obs::Log::Options LogOpts;
  // Structured events are emitted only when a --log-* flag is given, so
  // default stderr output (which scripts grep) is unchanged.
  bool LogUsed = false;
  // A campaign file carries its own grid; mixing it with grid flags
  // would silently change spec hashes, so the two are exclusive.
  bool GridFlagUsed = false;

  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    auto next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    if (Flag == "--help" || Flag == "-h")
      return usage(nullptr, stdout);
    if (Flag == "--no-validate") {
      Validate = false;
      GridFlagUsed = true;
    } else if (Flag == "--stream" || Flag.rfind("--stream=", 0) == 0) {
      if (Flag != "--stream") {
        auto N = parseUnsigned(Flag.substr(std::strlen("--stream=")), 1);
        if (!N)
          return usage("--stream=CHUNK needs a positive chunk size "
                       "(at most 4294967295)");
        StreamChunk = *N;
      }
      // Changes every job's kind (and hash): a grid flag.
      Stream = true;
      GridFlagUsed = true;
    } else if (Flag == "--window") {
      const char *V = next();
      auto N = V ? parseUnsigned(V) : std::nullopt;
      if (!N)
        return usage("--window needs a non-negative integer "
                     "(at most 4294967295)");
      Window = *N;
      GridFlagUsed = true;
    } else if (Flag == "--stream-from-scratch") {
      // Execution mode, not part of any job's spec: the baseline run
      // keeps the extend run's spec hashes so reports diff cleanly.
      StreamFromScratch = true;
    } else if (Flag == "--no-prune") {
      // Changes every job's spec (and hash), so it is a grid flag:
      // campaign files carry their own prune decision per job.
      Prune = false;
      GridFlagUsed = true;
    } else if (Flag == "--timings") {
      Timings = true;
    } else if (Flag == "--quiet") {
      Quiet = true;
    } else if (Flag == "--dry-run") {
      DryRun = true;
    } else if (Flag == "--trace-out") {
      const char *V = next();
      if (!V)
        return usage("--trace-out needs a value");
      TraceOut = V;
    } else if (Flag == "--cache-dir") {
      const char *V = next();
      if (!V)
        return usage("--cache-dir needs a value");
      CacheDir = V;
    } else if (Flag == "--campaign") {
      const char *V = next();
      if (!V)
        return usage("--campaign needs a value");
      CampaignFile = V;
    } else if (Flag == "--shard") {
      const char *V = next();
      if (!V)
        return usage("--shard needs a value (K/N)");
      std::vector<std::string_view> Parts = splitString(V, '/');
      auto K = Parts.size() == 2 ? parseUnsigned(Parts[0], 1) : std::nullopt;
      auto N = Parts.size() == 2 ? parseUnsigned(Parts[1], 1) : std::nullopt;
      if (!K || !N || *K > *N)
        return usage("--shard must be K/N with 1 <= K <= N <= 4294967295");
      ShardIndex = *K;
      ShardCount = *N;
    } else if (Flag == "--write-shards") {
      const char *V = next();
      auto N = V ? parseUnsigned(V, 1) : std::nullopt;
      if (!N)
        return usage("--write-shards needs a positive shard count "
                     "(at most 4294967295)");
      WriteShards = *N;
    } else if (Flag == "--apps") {
      const char *V = next();
      if (!V)
        return usage("--apps needs a value");
      GridFlagUsed = true;
      Apps = splitList(V);
      for (const std::string &A : Apps)
        if (!makeApplication(A)) {
          std::string Valid;
          for (const std::string &Name : applicationNames())
            Valid += (Valid.empty() ? "" : ", ") + Name;
          return usage(("unknown application '" + A + "' (valid: " + Valid +
                        ")")
                           .c_str());
        }
    } else if (Flag == "--levels") {
      const char *V = next();
      if (!V)
        return usage("--levels needs a value");
      GridFlagUsed = true;
      Levels.clear();
      for (const std::string &L : splitList(V)) {
        auto Level = isolationLevelFromString(L);
        if (!Level)
          return usage(("unknown level '" + L + "' (valid: " +
                        isolationLevelValidNames() + ")")
                           .c_str());
        if (*Level == IsolationLevel::Serializable)
          return usage(("prediction targets weak isolation levels; "
                        "'" + L + "' is not one (valid: " +
                        isolationLevelValidNames() + ")")
                           .c_str());
        Levels.push_back(*Level);
      }
    } else if (Flag == "--strategies") {
      const char *V = next();
      if (!V)
        return usage("--strategies needs a value");
      GridFlagUsed = true;
      Strategies.clear();
      for (const std::string &S : splitList(V)) {
        auto Strat = strategyFromString(S);
        if (!Strat)
          return usage(("unknown strategy '" + S + "' (valid: " +
                        strategyValidNames() + ")")
                           .c_str());
        Strategies.push_back(*Strat);
      }
    } else if (Flag == "--sizes") {
      const char *V = next();
      if (!V)
        return usage("--sizes needs a value");
      GridFlagUsed = true;
      Shapes.clear();
      for (const std::string &S : splitList(V)) {
        std::optional<WorkloadConfig> Shape = workloadFromLabel(S, 1);
        if (!Shape)
          return usage(("unknown size '" + S +
                        "' (valid: small, large, SxT such as 3x16)")
                           .c_str());
        Shapes.push_back(*Shape);
      }
    } else if (Flag == "--seeds" || Flag == "--jobs" ||
               Flag == "--timeout-ms") {
      const char *V = next();
      auto N = V ? parseUnsigned(V) : std::nullopt;
      if (!N)
        return usage(
            (Flag + " needs a non-negative integer (at most 4294967295)")
                .c_str());
      if (Flag == "--seeds") {
        Seeds = *N;
        GridFlagUsed = true;
      } else if (Flag == "--jobs") {
        Jobs = *N;
      } else {
        TimeoutMs = *N;
        GridFlagUsed = true;
      }
    } else if (Flag == "--name") {
      const char *V = next();
      if (!V)
        return usage("--name needs a value");
      GridFlagUsed = true;
      Name = V;
    } else if (Flag == "--out") {
      const char *V = next();
      if (!V)
        return usage("--out needs a value");
      OutPath = V;
    } else if (Flag == "--metrics-out") {
      const char *V = next();
      if (!V)
        return usage("--metrics-out needs a value");
      MetricsOut = V;
    } else if (Flag == "--log-file") {
      const char *V = next();
      if (!V)
        return usage("--log-file needs a value");
      LogOpts.Path = V;
      LogUsed = true;
    } else if (Flag == "--log-level") {
      const char *V = next();
      if (!V || !obs::parseLogLevel(V, LogOpts.Level))
        return usage("--log-level needs debug|info|warn|error|off");
      LogUsed = true;
    } else if (Flag == "--log-json") {
      LogOpts.Ndjson = true;
      LogUsed = true;
    } else {
      return usage(("unknown option '" + Flag + "'").c_str());
    }
  }

  // --- Assemble the campaign -------------------------------------------
  Campaign C;
  unsigned ReportShardIndex = 1, ReportShardCount = 1;
  if (!CampaignFile.empty()) {
    if (GridFlagUsed)
      return usage("--campaign files carry their own grid; drop the "
                   "--apps/--levels/--strategies/--sizes/--seeds/"
                   "--timeout-ms/--no-validate/--name flags");
    std::string Json, Error;
    if (!readFile(CampaignFile, Json, &Error))
      return usage(Error.c_str());
    auto Sharded = cache::campaignFromJson(Json, &Error);
    if (!Sharded)
      return usage(("'" + CampaignFile + "': " + Error).c_str());
    C = std::move(Sharded->C);
    ReportShardIndex = Sharded->ShardIndex;
    ReportShardCount = Sharded->ShardCount;
    if (ShardCount && ReportShardCount > 1)
      return usage("'--shard' cannot re-shard an already-sharded "
                   "campaign file");
  } else {
    if (Seeds == 0 || Apps.empty())
      return usage("nothing to do (zero seeds or no apps)");
    if (Window && !Stream)
      return usage("--window only applies to --stream jobs");
    C = Campaign::predictShapeGrid(Name, Apps, Levels, Strategies, Shapes,
                                   Seeds, TimeoutMs);
    for (JobSpec &J : C.Jobs) {
      J.Validate = Validate;
      J.Prune = Prune;
      if (Stream) {
        J.Kind = JobKind::Stream;
        J.Window = Window;
        J.StreamChunk = StreamChunk;
      }
    }
  }
  if (StreamFromScratch) {
    bool AnyStream = false;
    for (const JobSpec &J : C.Jobs)
      AnyStream |= J.Kind == JobKind::Stream;
    if (!AnyStream)
      return usage("--stream-from-scratch needs stream jobs (--stream or "
                   "a stream campaign file)");
  }

  if (WriteShards) {
    // Combinations that would silently not do what they say.
    if (ShardCount)
      return usage("--write-shards splits the whole campaign; it cannot "
                   "be combined with --shard (write the files, then run "
                   "them with --campaign)");
    if (DryRun)
      return usage("--write-shards does not run jobs; drop --dry-run");
    if (ReportShardCount > 1)
      return usage("--write-shards cannot re-split an already-sharded "
                   "campaign file");
    std::string Dir = OutPath == "-" ? "." : OutPath;
    std::vector<std::string> Paths;
    std::string Error;
    if (!cache::writeShardFiles(C, WriteShards, Dir, &Paths, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    for (const std::string &P : Paths)
      std::fprintf(stderr, "wrote %s\n", P.c_str());
    return 0;
  }

  if (ShardCount) {
    C = cache::shardCampaign(C, ShardIndex, ShardCount);
    ReportShardIndex = ShardIndex;
    ReportShardCount = ShardCount;
  }

  // --dry-run only reads the cache, so it skips the write probe below
  // (a read-only shared cache directory is a fine thing to preview).
  if (DryRun)
    return dryRun(C, CacheDir);

  // Surface a misconfigured cache directory before spending hours of
  // solver time whose results would silently fail to persist: create
  // the version directory and prove it is actually writable (an
  // existing directory on, say, a read-only mount passes creation but
  // would swallow every store).
  if (!CacheDir.empty()) {
    std::string Error;
    std::string VersionDir = pathJoin(CacheDir, toolVersion());
    std::string Probe = pathJoin(VersionDir, ".writable-probe");
    if (!createDirectories(VersionDir, &Error) ||
        !writeFileAtomic(Probe, "probe\n", &Error)) {
      std::fprintf(stderr, "error: --cache-dir: %s\n", Error.c_str());
      return 1;
    }
    std::remove(Probe.c_str());
  }

  if (LogUsed) {
    std::string Error;
    if (!obs::Log::global().configure(LogOpts, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }

  EngineOptions EO;
  EO.NumWorkers = Jobs;
  EO.CacheDir = CacheDir;
  EO.StreamFromScratch = StreamFromScratch;
  // Per-job structured events at debug ride alongside the human
  // progress lines (which --quiet still suppresses independently).
  bool LogJobs = LogUsed && obs::Log::global().enabled(obs::LogLevel::Debug);
  if (!Quiet || LogJobs)
    EO.OnJobDone = [Quiet, LogJobs](size_t Done, size_t Total,
                                    const JobResult &R) {
      if (LogJobs)
        obs::Log::global().debug(
            "job.done",
            {{"done", formatString("%zu", Done)},
             {"total", formatString("%zu", Total)},
             {"app", R.Spec.App},
             {"seed", formatString("%llu", static_cast<unsigned long long>(
                                               R.Spec.Cfg.Seed))},
             {"outcome", R.Ok ? toString(R.Outcome) : "failed"},
             {"cached", R.CacheHit ? "true" : "false"},
             {"wall_seconds", formatString("%.3f", R.WallSeconds)}});
      if (Quiet)
        return;
      std::fprintf(stderr, "[%zu/%zu] %s %s %s seed=%llu: %s%s%s\n", Done,
                   Total, R.Spec.App.c_str(), toString(R.Spec.Level),
                   toString(R.Spec.Strat),
                   static_cast<unsigned long long>(R.Spec.Cfg.Seed),
                   R.Ok ? toString(R.Outcome) : R.Error.c_str(),
                   R.validatedUnserializable() ? " (validated)" : "",
                   R.CacheHit ? " (cached)" : "");
    };
  // SIGINT/SIGTERM wind the run down instead of killing it: a watcher
  // thread raises the engine stop flag (remaining jobs come back as
  // skipped) and interrupts in-flight solver calls, so the partial
  // report still gets written. A second signal force-kills.
  static std::atomic<bool> Stop{false};
  EO.StopFlag = &Stop;
  StopSignal::install();
  std::thread Watcher([] {
    pollfd P;
    P.fd = StopSignal::fd();
    P.events = POLLIN;
    while (!Stop.load(std::memory_order_acquire)) {
      P.revents = 0;
      if (::poll(&P, 1, 200) > 0 || StopSignal::requested()) {
        if (!StopSignal::requested())
          continue;
        Stop.store(true, std::memory_order_release);
        std::fprintf(stderr,
                     "interrupted: finishing started jobs, skipping the "
                     "rest (signal again to kill)\n");
        SmtSolver::interruptAll();
        return;
      }
    }
  });
  Engine E(EO);

  std::fprintf(stderr, "campaign '%s': %zu jobs on %u worker(s)\n",
               C.Name.c_str(), C.size(), E.numWorkers());
  if (LogUsed)
    obs::Log::global().info(
        "campaign.start",
        {{"campaign", C.Name},
         {"jobs", formatString("%zu", C.size())},
         {"workers", formatString("%u", E.numWorkers())}});
  // Tracing changes only what the tracer records, never what the
  // engine computes: report bytes with --trace-out are identical to a
  // run without it.
  if (!TraceOut.empty())
    obs::Tracer::global().enable();
  Report R = E.run(C);
  Stop.store(true, std::memory_order_release); // Stops an idle watcher.
  Watcher.join();
  bool Interrupted = StopSignal::requested();
  R.setShard(ReportShardIndex, ReportShardCount);
  if (LogUsed)
    obs::Log::global().info(
        "campaign.done",
        {{"campaign", C.Name},
         {"jobs", formatString("%zu", R.size())},
         {"wall_seconds", formatString("%.3f", R.wallSeconds())},
         {"cache_hits", formatString("%u", R.cacheHits())},
         {"cache_misses", formatString("%u", R.cacheMisses())},
         {"interrupted", Interrupted ? "true" : "false"}});
  if (!TraceOut.empty()) {
    obs::Tracer::global().disable();
    std::string Error;
    if (!obs::Tracer::global().writeChromeTrace(TraceOut, &Error)) {
      std::fprintf(stderr, "error: --trace-out: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", TraceOut.c_str());
  }

  ReportOptions RO;
  RO.IncludeTimings = Timings;
  if (OutPath == "-") {
    std::string Json = R.toJson(RO);
    std::fwrite(Json.data(), 1, Json.size(), stdout);
  } else {
    std::string Error;
    if (!R.writeJsonFile(OutPath, RO, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  }
  if (!MetricsOut.empty()) {
    std::string Error;
    if (!R.writeMetricsFile(MetricsOut, &Error)) {
      std::fprintf(stderr, "error: --metrics-out: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", MetricsOut.c_str());
  }
  R.printSummary(stderr);
  if (Interrupted) {
    size_t NotRun = 0;
    for (const JobResult &J : R.results())
      NotRun += !J.Ok && J.Canceled;
    std::fprintf(stderr,
                 "interrupted: partial report (%zu of %zu jobs skipped)\n",
                 NotRun, R.size());
    return 130;
  }
  return 0;
}
