//===- report_merge.cpp - Merge sharded campaign reports -------*- C++ -*-===//
//
// Reassembles the single-campaign report from the K shard reports of a
// distributed run (campaign_cli --shard K/N, or --write-shards +
// --campaign on separate machines). Shards are deterministic
// round-robin slices and job entries round-trip losslessly, so the
// merged report is byte-identical to what one unsharded run would have
// produced — verify with cmp, gate regressions with report_diff.
//
// Usage:
//   report_merge [--out FILE] [--quiet] shard1.json ... shardN.json
//
// The inputs may be given in any order; shard coordinates come from
// the reports themselves. A single unsharded report is accepted as the
// trivial K=1 merge (the identity, modulo timing fields). Exit codes:
// 0 = merged, 1 = inconsistent/malformed shards, 2 = usage error.
//
//===----------------------------------------------------------------------===//

#include "cache/Merge.h"
#include "support/Fs.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr after \p Msg (exit 2).
int usage(const char *Msg = nullptr, std::FILE *Out = stderr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n", Msg);
  std::fprintf(Out,
               "usage: report_merge [--out FILE] [--quiet] "
               "shard1.json ... shardN.json\n"
               "  merges the N shard reports of one campaign "
               "(campaign_cli --shard K/N)\n"
               "  into the report an unsharded run would have written "
               "(byte-identical)\n");
  return Out == stdout ? 0 : 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "-";
  bool Quiet = false;
  std::vector<std::string> Paths;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0 ||
        std::strcmp(argv[I], "-h") == 0)
      return usage(nullptr, stdout);
    if (std::strcmp(argv[I], "--out") == 0) {
      if (I + 1 >= argc)
        return usage("--out needs a value");
      OutPath = argv[++I];
    } else if (std::strcmp(argv[I], "--quiet") == 0) {
      Quiet = true;
    } else if (argv[I][0] == '-' && argv[I][1] != '\0') {
      return usage(("unknown option '" + std::string(argv[I]) + "'").c_str());
    } else {
      Paths.push_back(argv[I]);
    }
  }
  if (Paths.empty())
    return usage("expected at least one shard report");

  std::vector<std::string> Docs(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::string Error;
    if (!readFile(Paths[I], Docs[I], &Error))
      return usage(Error.c_str());
  }

  std::string Error;
  std::optional<Report> Merged = cache::mergeShardReports(Docs, &Error);
  if (!Merged) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // Merged reports are always emitted without timings: per-job wall
  // clocks from different machines don't compose into one run's.
  ReportOptions RO;
  if (OutPath == "-") {
    std::string Json = Merged->toJson(RO);
    std::fwrite(Json.data(), 1, Json.size(), stdout);
  } else {
    if (!Merged->writeJsonFile(OutPath, RO, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  }
  if (!Quiet) {
    std::fprintf(stderr, "merged %zu shard(s), %zu job(s), campaign '%s'\n",
                 Paths.size(), Merged->size(),
                 Merged->campaignName().c_str());
    Merged->printSummary(stderr);
  }
  return 0;
}
