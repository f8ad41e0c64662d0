//===- report_diff.cpp - Campaign-report regression diff -------*- C++ -*-===//
//
// Compares two campaign JSON reports (campaign_cli --out / BENCH_*.json)
// and flags outcome regressions: predictions lost (sat → unsat/unknown),
// validations downgraded (validated → diverged), jobs that stopped
// running, MonkeyDB bugs that disappeared. The ROADMAP "incremental
// re-runs / report diffing" tool.
//
// Usage:
//   report_diff [--regressions-only] [--outcomes-only] [--match-by-key]
//               [--quiet] before.json after.json
//
// Exit codes: 0 = no regressions, 1 = regressions found, 2 = usage or
// parse error. Neutral changes (new predictions, literal-count shifts)
// are listed but do not affect the exit code. --outcomes-only stops
// validation-replay differences on Predict jobs from gating — the
// comparison for reports produced under different execution modes
// (e.g. --stream-from-scratch on/off), where sat/unsat outcomes are
// contractually identical but models, and therefore validation
// replays, may legitimately differ; every other job kind's fields
// still gate.
//
//===----------------------------------------------------------------------===//

#include "engine/ReportDiff.h"
#include "support/Fs.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr after \p Msg (exit 2).
int usage(const char *Msg = nullptr, std::FILE *Out = stderr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n", Msg);
  std::fprintf(Out,
               "usage: report_diff [--regressions-only] [--outcomes-only] "
               "[--match-by-key] [--quiet] before.json after.json\n"
               "  exit 0: no outcome regressions\n"
               "  exit 1: regressions (sat->unsat, validated->diverged, "
               "ok->failed, ...)\n"
               "  exit 2: usage or parse error\n"
               "  --outcomes-only: don't gate on Predict validation-replay "
               "differences (for\n"
               "    diffs across engine modes where models may "
               "legitimately differ)\n"
               "  --match-by-key: match jobs on the identity key even when "
               "both reports\n"
               "    carry spec hashes (for diffs across spec knobs like "
               "--prune, whose\n"
               "    hashes differ by design)\n");
  return Out == stdout ? 0 : 2;
}

} // namespace

int main(int argc, char **argv) {
  bool RegressionsOnly = false;
  bool OutcomesOnly = false;
  bool MatchByKey = false;
  bool Quiet = false;
  std::vector<std::string> Paths;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0 ||
        std::strcmp(argv[I], "-h") == 0)
      return usage(nullptr, stdout);
    if (std::strcmp(argv[I], "--regressions-only") == 0)
      RegressionsOnly = true;
    else if (std::strcmp(argv[I], "--outcomes-only") == 0)
      OutcomesOnly = true;
    else if (std::strcmp(argv[I], "--match-by-key") == 0)
      MatchByKey = true;
    else if (std::strcmp(argv[I], "--quiet") == 0)
      Quiet = true;
    else if (argv[I][0] == '-' && argv[I][1] != '\0')
      return usage(("unknown option '" + std::string(argv[I]) + "'").c_str());
    else
      Paths.push_back(argv[I]);
  }
  if (Paths.size() != 2)
    return usage("expected exactly two report paths");

  std::string JsonA, JsonB;
  if (!readFile(Paths[0], JsonA))
    return usage(("cannot read '" + Paths[0] + "'").c_str());
  if (!readFile(Paths[1], JsonB))
    return usage(("cannot read '" + Paths[1] + "'").c_str());

  std::string Error;
  std::optional<ReportDiffResult> Diff =
      diffReports(JsonA, JsonB, &Error, MatchByKey);
  if (!Diff) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }

  if (OutcomesOnly) {
    // Demote regressions on exactly the fields that may legitimately
    // differ across execution modes to neutral changes (listed, but not
    // gating): validation and — for Predict jobs, where it comes from
    // the model-dependent validation replay — assertion_failed. Other
    // job kinds replay no model, so their fields (serializability,
    // assertion_failed) keep gating.
    for (JobDelta &D : Diff->Deltas) {
      bool PredictJob = D.Job.rfind("predict|", 0) == 0; // jobKey prefix
      if (D.Field == "validation" ||
          (D.Field == "assertion_failed" && PredictJob))
        D.Regression = false;
    }
  }

  if (!Quiet) {
    if (Diff->ToolVersionA != Diff->ToolVersionB)
      std::fprintf(stderr,
                   "note: tool versions differ ('%s' vs '%s'); outcome "
                   "changes may stem from the tool, not the campaign\n",
                   Diff->ToolVersionA.c_str(), Diff->ToolVersionB.c_str());
    for (const JobDelta &D : Diff->Deltas) {
      if (RegressionsOnly && !D.Regression)
        continue;
      std::printf("%s %s: %s: %s -> %s\n",
                  D.Regression ? "REGRESSION" : "change", D.Job.c_str(),
                  D.Field.c_str(), D.Before.c_str(), D.After.c_str());
    }
    if (!RegressionsOnly) {
      for (const std::string &Key : Diff->OnlyInA)
        std::printf("only in %s: %s\n", Paths[0].c_str(), Key.c_str());
      for (const std::string &Key : Diff->OnlyInB)
        std::printf("only in %s: %s\n", Paths[1].c_str(), Key.c_str());
    }
  }
  std::fprintf(stderr,
               "%u matched job(s), %zu change(s), %u regression(s), "
               "%zu/%zu unmatched\n",
               Diff->MatchedJobs, Diff->Deltas.size(),
               Diff->numRegressions(), Diff->OnlyInA.size(),
               Diff->OnlyInB.size());
  return Diff->hasRegressions() ? 1 : 0;
}
