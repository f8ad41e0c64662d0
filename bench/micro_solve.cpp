//===- micro_solve.cpp - Solve wall-clock on a hard-query grid -----------===//
//
// The solve-side companion of micro_encoding: with generation cheap,
// per-query wall-clock on hard queries is dominated by one
// single-threaded Z3_solver_check. This harness runs a campaign of
// hard prediction queries through the Engine, the way campaigns pay
// for them, and records each job's outcome, solve seconds and
// wall-clock, the campaign wall and the slowest quartile (the 25% of
// jobs that dominate campaign tail latency).
//
// Grid note: the /16 (txns-per-session) queries are out of reach —
// probed at a 120 s budget, all of tpcc/16 and smallbank/16 stay
// unknown in Exact and Approx encodings alike. The grid below is the
// hardest band that is still decided: smallbank/8, plus /4
// Exact/Approx-Strict queries whose contended solves took 5-20+
// seconds before Approx queries solved the exact formula first, with a
// fast control. Today every job of it is decided within a few seconds.
//
// Outcomes are deterministic; every second in the snapshot is
// machine-dependent, understood as "on the machine that wrote it".
// `--json OUT` ('-' = stdout) writes the snapshot committed as
// BENCH_solve.json (Release build).
//
//   ISOPREDICT_TIMEOUT_MS   per-query solver budget (default 20000 —
//                           the seed campaign's budget)
//   ISOPREDICT_JOBS         worker threads (default 8)
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "support/Env.h"
#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

struct SolveCase {
  const char *Name; ///< Unique (includes the txn count and seed).
  const char *App;
  IsolationLevel Level;
  Strategy Strat;
  unsigned TxnsPerSession;
  uint64_t Seed;
};

/// The hard-query grid (see the file comment for why /16 is absent).
const SolveCase Cases[] = {
    // smallbank /8 — the largest shape that is decided.
    {"smallbank_causal_exact_8_s1", "smallbank", IsolationLevel::Causal,
     Strategy::ExactStrict, 8, 1},
    {"smallbank_rc_exact_8_s1", "smallbank", IsolationLevel::ReadCommitted,
     Strategy::ExactStrict, 8, 1},
    {"smallbank_causal_approx_8_s1", "smallbank", IsolationLevel::Causal,
     Strategy::ApproxStrict, 8, 1},
    // smallbank /4 Approx-Strict — the heavy band (causal s3 timed out
    // at 20 s before Approx queries solved the exact formula first).
    {"smallbank_causal_approx_4_s1", "smallbank", IsolationLevel::Causal,
     Strategy::ApproxStrict, 4, 1},
    {"smallbank_causal_approx_4_s2", "smallbank", IsolationLevel::Causal,
     Strategy::ApproxStrict, 4, 2},
    {"smallbank_causal_approx_4_s3", "smallbank", IsolationLevel::Causal,
     Strategy::ApproxStrict, 4, 3},
    {"smallbank_rc_approx_4_s1", "smallbank", IsolationLevel::ReadCommitted,
     Strategy::ApproxStrict, 4, 1},
    {"smallbank_rc_approx_4_s2", "smallbank", IsolationLevel::ReadCommitted,
     Strategy::ApproxStrict, 4, 2},
    {"smallbank_rc_approx_4_s3", "smallbank", IsolationLevel::ReadCommitted,
     Strategy::ApproxStrict, 4, 3},
    // smallbank /4 Exact — mid-weight.
    {"smallbank_causal_exact_4_s1", "smallbank", IsolationLevel::Causal,
     Strategy::ExactStrict, 4, 1},
    {"smallbank_rc_exact_4_s1", "smallbank", IsolationLevel::ReadCommitted,
     Strategy::ExactStrict, 4, 1},
    // tpcc /4 — Exact is the heavy strategy here, Approx mid-weight.
    {"tpcc_causal_exact_4_s1", "tpcc", IsolationLevel::Causal,
     Strategy::ExactStrict, 4, 1},
    {"tpcc_causal_exact_4_s2", "tpcc", IsolationLevel::Causal,
     Strategy::ExactStrict, 4, 2},
    {"tpcc_causal_exact_4_s3", "tpcc", IsolationLevel::Causal,
     Strategy::ExactStrict, 4, 3},
    {"tpcc_causal_approx_4_s2", "tpcc", IsolationLevel::Causal,
     Strategy::ApproxStrict, 4, 2},
    {"tpcc_causal_approx_4_s3", "tpcc", IsolationLevel::Causal,
     Strategy::ApproxStrict, 4, 3},
    {"tpcc_rc_approx_4_s1", "tpcc", IsolationLevel::ReadCommitted,
     Strategy::ApproxStrict, 4, 1},
    {"tpcc_rc_approx_4_s2", "tpcc", IsolationLevel::ReadCommitted,
     Strategy::ApproxStrict, 4, 2},
    {"tpcc_rc_exact_4_s1", "tpcc", IsolationLevel::ReadCommitted,
     Strategy::ExactStrict, 4, 1},
    {"tpcc_rc_exact_4_s2", "tpcc", IsolationLevel::ReadCommitted,
     Strategy::ExactStrict, 4, 2},
    // Fast control.
    {"voter_causal_exact_4_s1", "voter", IsolationLevel::Causal,
     Strategy::ExactStrict, 4, 1},
};

Campaign buildCampaign(unsigned TimeoutMs) {
  Campaign C;
  C.Name = "micro_solve hard-query grid";
  for (const SolveCase &S : Cases) {
    JobSpec J;
    J.Kind = JobKind::Predict;
    J.App = S.App;
    J.Cfg = WorkloadConfig{3, S.TxnsPerSession, S.Seed};
    J.Level = S.Level;
    J.Strat = S.Strat;
    J.TimeoutMs = TimeoutMs;
    C.Jobs.push_back(std::move(J));
  }
  return C;
}

int run(const std::string &JsonPath) {
  unsigned TimeoutMs =
      static_cast<unsigned>(envInt("ISOPREDICT_TIMEOUT_MS", 20000));
  unsigned Workers = static_cast<unsigned>(envInt("ISOPREDICT_JOBS", 8));

  Campaign C = buildCampaign(TimeoutMs);
  std::fprintf(stderr,
               "hard-query campaign: %zu jobs, --jobs %u, %u ms budget\n",
               C.size(), Workers, TimeoutMs);
  EngineOptions Opts;
  Opts.NumWorkers = Workers;
  Report R = Engine(Opts).run(C);

  const size_t N = C.size();
  unsigned Timeouts = 0;
  for (size_t I = 0; I < N; ++I) {
    const JobResult &J = R.results()[I];
    Timeouts += J.TimedOut;
    std::fprintf(stderr, "%s: %s in %.2fs%s\n", Cases[I].Name,
                 toString(J.Outcome), J.WallSeconds,
                 J.TimedOut ? " [timeout]" : "");
  }

  // Slowest quartile by end-to-end job seconds.
  std::vector<size_t> Ranked(N);
  for (size_t I = 0; I < N; ++I)
    Ranked[I] = I;
  std::sort(Ranked.begin(), Ranked.end(), [&](size_t A, size_t B) {
    return R.results()[A].WallSeconds > R.results()[B].WallSeconds;
  });
  Ranked.resize(std::max<size_t>(1, N / 4));
  double SlowQ = 0;
  for (size_t I : Ranked)
    SlowQ += R.results()[I].WallSeconds;

  std::fprintf(stderr,
               "campaign wall %.2fs; slowest quartile (%zu of %zu) %.2fs; "
               "%u timeout(s)\n",
               R.wallSeconds(), Ranked.size(), N, SlowQ, Timeouts);

  if (JsonPath.empty())
    return 0;

  JsonWriter J(2);
  J.openObject();
  J.str("schema", "isopredict-bench-solve/2");
  J.str("benchmark", "micro_solve --json");
  J.str("note", "one hard-query campaign through the Engine; outcomes are "
                "deterministic, seconds are machine-dependent");
  J.num("timeout_ms", static_cast<uint64_t>(TimeoutMs));
  J.num("jobs", static_cast<uint64_t>(Workers));
  J.num("campaign_wall_seconds", R.wallSeconds());
  J.openArray("benchmarks");
  for (size_t I = 0; I < N; ++I) {
    const JobResult &A = R.results()[I];
    J.openElement();
    J.str("name", Cases[I].Name);
    J.str("app", Cases[I].App);
    J.str("level", toString(Cases[I].Level));
    J.str("strategy", toString(Cases[I].Strat));
    J.num("txns_per_session", static_cast<uint64_t>(Cases[I].TxnsPerSession));
    J.num("seed", Cases[I].Seed);
    J.str("result", toString(A.Outcome));
    if (A.TimedOut)
      J.boolean("timeout", true);
    J.num("solve_seconds", A.Stats.SolveSeconds);
    J.num("seconds", A.WallSeconds);
    J.closeObject();
  }
  J.closeArray();
  J.openObjectIn("slowest_quartile");
  J.num("cases", static_cast<uint64_t>(Ranked.size()));
  J.num("seconds", SlowQ);
  J.closeObject();
  J.num("timeouts", static_cast<uint64_t>(Timeouts));
  J.closeObject();

  std::string Json = J.take();
  if (JsonPath == "-") {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
    return 0;
  }
  FILE *Out = std::fopen(JsonPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", JsonPath.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), Out);
  std::fclose(Out);
  std::fprintf(stderr, "wrote %s\n", JsonPath.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0 && I + 1 < argc)
      JsonPath = argv[++I];
    else if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: micro_solve [--json OUT]  ('-' = stdout)\n");
      return 2;
    }
  }
  return run(JsonPath);
}
