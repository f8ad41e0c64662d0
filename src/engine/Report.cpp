//===- Report.cpp - Campaign result aggregation and JSON output -*- C++ -*-===//

#include "engine/Report.h"

#include "engine/JobIo.h"
#include "support/Json.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <map>

using namespace isopredict;
using namespace isopredict::engine;

// 5: JobSpec gained Prune (canonicalSpec "prune=" field), so every
// spec hash moved — older cache entries and shard files are orphaned
// wholesale rather than mismatched one by one.
// 6: one-shot predict() builds the session encoding (materialized cuts
// linked by BoundaryLinkPass), so cached literal counts and witnesses
// changed; spec hashes did not.
// 7: rc and ra queries embed so ∪ wr instead of the hb closure, so their
// cached literal counts and witnesses changed; spec hashes did not.
// 8: Exact-Strict queries also assert the ∀co's ground instance at the
// observed commit order, so their cached literal counts and witnesses
// changed; spec hashes did not.
// 9: JobSpec::Prune defaults to true (canonicalSpec "prune=1"), so the
// default grid's spec hashes moved, and the identity plan (prune=0)
// builds a different formula than the old unpruned encoding.
const char *isopredict::engine::toolVersion() { return "isopredict-9"; }

namespace {

/// Per-configuration aggregate for the summary section and table.
struct Group {
  unsigned Jobs = 0;
  unsigned Failed = 0; ///< Jobs with Ok == false.
  unsigned Sat = 0, Unsat = 0, Unknown = 0;
  unsigned Validated = 0, Diverged = 0;
  unsigned AssertionFailed = 0, Unserializable = 0;
  unsigned CommittedTxns = 0, Reads = 0, Writes = 0, ReadOnlyTxns = 0,
           AbortedTxns = 0, DeadlockAborts = 0;
  uint64_t Literals = 0;
  double GenSeconds = 0, SolveSeconds = 0, WallSeconds = 0;
};

/// Jobs group by everything that identifies a configuration except the
/// seeds (workload seed and store seed vary within a group).
std::string groupKey(const JobSpec &S) {
  std::string Key = formatString("%s|%s|%s", toString(S.Kind), S.App.c_str(),
                                 workloadLabel(S.Cfg).c_str());
  if (S.Kind == JobKind::Predict || S.Kind == JobKind::Stream ||
      S.Kind == JobKind::RandomWeak)
    Key += formatString("|%s", toString(S.Level));
  if (S.Kind == JobKind::Predict || S.Kind == JobKind::Stream)
    Key += formatString("|%s|%s", toString(S.Strat), toString(S.Pco));
  return Key;
}

void accumulate(Group &G, const JobResult &R) {
  ++G.Jobs;
  G.Failed += !R.Ok;
  G.CommittedTxns += R.CommittedTxns;
  G.Reads += R.Reads;
  G.Writes += R.Writes;
  G.ReadOnlyTxns += R.ReadOnlyTxns;
  G.AbortedTxns += R.AbortedTxns;
  G.DeadlockAborts += R.DeadlockAborts;
  G.WallSeconds += R.WallSeconds;
  if ((R.Spec.Kind == JobKind::Predict || R.Spec.Kind == JobKind::Stream) &&
      R.Ok) {
    switch (R.Outcome) {
    case SmtResult::Sat:
      ++G.Sat;
      break;
    case SmtResult::Unsat:
      ++G.Unsat;
      break;
    case SmtResult::Unknown:
      ++G.Unknown;
      break;
    }
    G.Validated += R.validatedUnserializable();
    G.Diverged += R.Diverged;
    // Stream jobs persist no literal count (it depends on the execution
    // mode, so it lives in the timings-gated steps), and a cache-answered
    // stream job must report the same summary as its cold run.
    if (R.Spec.Kind == JobKind::Predict)
      G.Literals += R.Stats.NumLiterals;
    G.GenSeconds += R.Stats.GenSeconds;
    G.SolveSeconds += R.Stats.SolveSeconds;
  }
  G.AssertionFailed += R.AssertionFailed;
  G.Unserializable += R.Serializability == SerResult::Unserializable;
}

/// Group results by configuration, preserving first-appearance order.
std::vector<std::pair<std::string, Group>>
groupResults(const std::vector<JobResult> &Results) {
  std::vector<std::pair<std::string, Group>> Groups;
  std::map<std::string, size_t> Index;
  for (const JobResult &R : Results) {
    std::string Key = groupKey(R.Spec);
    auto It = Index.find(Key);
    if (It == Index.end()) {
      It = Index.emplace(Key, Groups.size()).first;
      Groups.emplace_back(Key, Group{});
    }
    accumulate(Groups[It->second].second, R);
  }
  return Groups;
}

void emitGroup(JsonWriter &J, const std::string &Key, const Group &G,
               const ReportOptions &Opts) {
  J.openElement();
  J.str("config", Key);
  J.num("jobs", static_cast<uint64_t>(G.Jobs));
  if (G.Failed)
    J.num("failed", static_cast<uint64_t>(G.Failed));
  J.num("committed_txns", static_cast<uint64_t>(G.CommittedTxns));
  J.num("reads", static_cast<uint64_t>(G.Reads));
  J.num("writes", static_cast<uint64_t>(G.Writes));
  J.num("read_only_txns", static_cast<uint64_t>(G.ReadOnlyTxns));
  J.num("aborted_txns", static_cast<uint64_t>(G.AbortedTxns));
  J.num("sat", static_cast<uint64_t>(G.Sat));
  J.num("unsat", static_cast<uint64_t>(G.Unsat));
  J.num("unknown", static_cast<uint64_t>(G.Unknown));
  J.num("validated", static_cast<uint64_t>(G.Validated));
  J.num("diverged", static_cast<uint64_t>(G.Diverged));
  J.num("assertion_failed", static_cast<uint64_t>(G.AssertionFailed));
  J.num("unserializable", static_cast<uint64_t>(G.Unserializable));
  J.num("deadlock_aborts", static_cast<uint64_t>(G.DeadlockAborts));
  J.num("literals", G.Literals);
  if (Opts.IncludeTimings) {
    J.num("gen_seconds", G.GenSeconds);
    J.num("solve_seconds", G.SolveSeconds);
    J.num("wall_seconds", G.WallSeconds);
  }
  J.closeObject();
}

} // namespace

std::string Report::toJson(const ReportOptions &Opts) const {
  JsonWriter J(Opts.Indent);
  J.openObject();
  J.str("schema", "isopredict-campaign-report/2");
  // Cache-invalidation stamp (see toolVersion): reports from different
  // tool versions are comparable only advisorily, and cached results
  // never cross versions. report_diff tolerates reports without it.
  J.str("tool_version", toolVersion());
  J.str("campaign", CampaignName);
  J.num("num_jobs", static_cast<uint64_t>(Results.size()));
  if (ShardCount > 1) {
    J.num("shard_index", static_cast<uint64_t>(ShardIndex));
    J.num("shard_count", static_cast<uint64_t>(ShardCount));
  }
  if (Opts.IncludeTimings) {
    J.num("workers", static_cast<uint64_t>(NumWorkers));
    J.num("wall_seconds", WallSeconds);
    if (CacheHits || CacheMisses) {
      J.num("cache_hits", static_cast<uint64_t>(CacheHits));
      J.num("cache_misses", static_cast<uint64_t>(CacheMisses));
    }
    // Per-run metrics delta (obs::Metrics). Timings-gated: second sums
    // are run-dependent, and default report bytes must stay invariant.
    if (!Metrics.empty())
      obs::writeMetricsJson(J, Metrics);
  }

  J.openArray("jobs");
  for (size_t I = 0; I < Results.size(); ++I) {
    J.openElement();
    J.num("index", static_cast<uint64_t>(I));
    writeJobFields(J, Results[I], Opts);
    J.closeObject();
  }
  J.closeArray();

  J.openArray("summary");
  for (const auto &KV : groupResults(Results))
    emitGroup(J, KV.first, KV.second, Opts);
  J.closeArray();

  J.closeObject();
  return J.take();
}

bool Report::writeJsonFile(const std::string &Path, const ReportOptions &Opts,
                           std::string *Error) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  std::string Json = toJson(Opts);
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), Out);
  bool CloseOk = std::fclose(Out) == 0;
  bool Ok = Written == Json.size() && CloseOk;
  if (!Ok && Error)
    *Error = "short write to '" + Path + "'";
  return Ok;
}

std::string Report::metricsToJson() const {
  JsonWriter J;
  J.openObject();
  J.str("schema", "isopredict-metrics/1");
  J.str("tool_version", toolVersion());
  J.str("campaign", CampaignName);
  J.num("workers", static_cast<uint64_t>(NumWorkers));
  obs::writeMetricsJson(J, Metrics);
  J.closeObject();
  return J.take();
}

bool Report::writeMetricsFile(const std::string &Path,
                              std::string *Error) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  std::string Json = metricsToJson();
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), Out);
  bool CloseOk = std::fclose(Out) == 0;
  bool Ok = Written == Json.size() && CloseOk;
  if (!Ok && Error)
    *Error = "short write to '" + Path + "'";
  return Ok;
}

void Report::printSummary(FILE *Out) const {
  TablePrinter T;
  T.setHeader({"Config", "Jobs", "Sat", "Unsat", "Unk", "Validated",
               "AssertFail", "Unser", "Wall"});
  for (const auto &KV : groupResults(Results)) {
    const Group &G = KV.second;
    T.addRow({KV.first, formatString("%u", G.Jobs), formatString("%u", G.Sat),
              formatString("%u", G.Unsat), formatString("%u", G.Unknown),
              formatString("%u", G.Validated),
              formatString("%u", G.AssertionFailed),
              formatString("%u", G.Unserializable),
              formatString("%.2fs", G.WallSeconds)});
  }
  T.print(Out);
  std::fprintf(Out, "campaign '%s': %zu jobs, %u workers, %.2fs wall\n",
               CampaignName.c_str(), Results.size(), NumWorkers,
               WallSeconds);
  // Phase breakdown from the run's metrics delta (histogram second
  // sums), printed whenever the engine attached one — no --timings
  // needed; reports reloaded from JSON have no snapshot and skip it.
  if (!Metrics.empty())
    std::fprintf(Out, "phases: encode %.2fs / solve %.2fs / cache %.2fs "
                      "/ validate %.2fs\n",
                 Metrics.histogramSum("encode.pass_seconds"),
                 Metrics.histogramSum("solver.check_seconds"),
                 Metrics.histogramSum("cache.probe_seconds"),
                 Metrics.histogramSum("validate.seconds"));
  if (CacheHits || CacheMisses)
    std::fprintf(Out, "cache: %u hit(s), %u miss(es)\n", CacheHits,
                 CacheMisses);
  unsigned Raced = 0, LanesCanceled = 0, LanesSkipped = 0, Rescued = 0;
  for (const JobResult &R : Results) {
    if (R.Lanes.empty())
      continue;
    ++Raced;
    for (const LaneResult &L : R.Lanes) {
      LanesCanceled += L.Canceled;
      LanesSkipped += L.Skipped;
    }
    // A rescue: the reference lane — the configuration a single-lane
    // run would have been stuck with — timed out, but some lane still
    // delivered the definitive answer this result carries.
    if (!R.WinningLane.empty() && R.Lanes.front().TimedOut)
      ++Rescued;
  }
  if (Raced)
    std::fprintf(Out,
                 "portfolio: %u raced job(s), %u canceled / %u skipped "
                 "lane(s), %u rescued timeout(s)\n",
                 Raced, LanesCanceled, LanesSkipped, Rescued);
}
