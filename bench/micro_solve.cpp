//===- micro_solve.cpp - Portfolio vs single-lane solve wall-clock -------===//
//
// The solve-side companion of micro_encoding: after PR 5 halved
// generation, per-query wall-clock is dominated by one single-threaded
// Z3_solver_check. This harness measures the portfolio (src/portfolio/)
// the way campaigns actually pay for it: the same hard-query campaign
// runs through the Engine twice at the *same* worker budget — once
// single-lane (W concurrent jobs, one solver each) and once with
// --portfolio lanes (W/N concurrent jobs, N racing solvers each) — and
// per-job wall-clock is compared job by job. Racing is never free (N
// lanes share the same cores), so a sequential, uncontended single-lane
// baseline would be the wrong comparison; at equal budget the race wins
// whenever lane choice beats lane count, because a fast lane answers
// early, interrupts the losers, and returns the cycles.
//
// Grid note: the /16 (txns-per-session) queries saturate *every* lane —
// probed at a 120 s budget, all of tpcc/16 and smallbank/16 stay
// unknown in Exact and Approx encodings alike, so no portfolio can
// rescue them and racing only adds overhead. The grid below was chosen
// as the hardest band any lane could answer (smallbank/8, plus /4
// Exact/Approx-Strict queries whose contended single-lane solves took
// 5-20+ seconds, and smallbank causal Approx-Strict/4 seed 3, which no
// lane answered at 20 s), with fast controls (the portfolio must not
// make cheap queries expensive). Since Approx queries solve the exact
// formula first, every job of it is decided single-lane within a few
// seconds.
//
// The headline metric is the *slowest quartile*: the portfolio's value
// proposition is rescuing the queries that dominate campaign tail
// latency (a fast query gains nothing from extra lanes), so the summary
// compares total single-lane seconds vs total portfolio wall seconds
// over the slowest 25% of jobs (ranked by single-lane time) and records
// which previously-timeout jobs a lane resolved outright.
//
// Outcomes are deterministic (the race contract); every second in the
// snapshot is machine-dependent, understood as "on the machine that
// wrote it". `--json OUT` ('-' = stdout) writes the snapshot committed
// as BENCH_solve.json (Release build).
//
// A second, forced-timeout stanza checks the rescue contract the same
// way the CI gate does: the smallbank causal strict quartet at a 1 s
// budget, where the Approx-Strict queries used to time out single-lane
// while a lane that solved the exact formula refuted seed 1 in a
// fraction of a second. Approx queries now solve that formula first,
// so the single lane decides all four in about 0.1 s and the stanza
// records no timeout to rescue. No replacement exists: on the paper
// grids at 1-2 s budgets no query times out single-lane and is decided
// by a remaining lane with a margin a runner can rely on. At the 20 s
// budget the grid's jobs are all decided single-lane, and the /16
// queries are saturated in every lane (the probe above).
//
//   ISOPREDICT_TIMEOUT_MS         per-query solver budget (default
//                                 20000 — the seed campaign's budget)
//   ISOPREDICT_RESCUE_TIMEOUT_MS  forced-timeout stanza budget
//                                 (default 1000)
//   ISOPREDICT_LANES              portfolio width (default 4)
//   ISOPREDICT_JOBS               worker budget for both runs
//                                 (default 8)
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
    // smallbank /8 — the largest shape any lane answers.
    {"smallbank_causal_exact_8_s1", "smallbank", IsolationLevel::Causal,
     Strategy::ExactStrict, 8, 1},
    {"smallbank_rc_exact_8_s1", "smallbank", IsolationLevel::ReadCommitted,
     Strategy::ExactStrict, 8, 1},
    {"smallbank_causal_approx_8_s1", "smallbank", IsolationLevel::Causal,
     Strategy::ApproxStrict, 8, 1},
    // smallbank /4 Approx-Strict — the heavy band; s3 causal is the
    // honestly-saturated case (no lane answers at the default budget).
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

bool definitive(SmtResult R) {
  return R == SmtResult::Sat || R == SmtResult::Unsat;
}

int run(const std::string &JsonPath) {
  unsigned TimeoutMs =
      static_cast<unsigned>(envInt("ISOPREDICT_TIMEOUT_MS", 20000));
  unsigned MaxLanes = static_cast<unsigned>(envInt("ISOPREDICT_LANES", 4));
  unsigned Workers = static_cast<unsigned>(envInt("ISOPREDICT_JOBS", 8));

  Campaign C = buildCampaign(TimeoutMs);

  std::fprintf(stderr,
               "single-lane campaign: %zu jobs, --jobs %u, %u ms budget\n",
               C.size(), Workers, TimeoutMs);
  EngineOptions SingleOpts;
  SingleOpts.NumWorkers = Workers;
  Report Single = Engine(SingleOpts).run(C);

  std::fprintf(stderr, "portfolio campaign: same grid, --jobs %u, %u lanes\n",
               Workers, MaxLanes);
  EngineOptions PortOpts;
  PortOpts.NumWorkers = Workers;
  PortOpts.PortfolioLanes = MaxLanes;
  Report Port = Engine(PortOpts).run(C);

  const size_t N = C.size();
  for (size_t I = 0; I < N; ++I) {
    const JobResult &A = Single.results()[I];
    const JobResult &B = Port.results()[I];
    std::fprintf(
        stderr, "%s: single %s in %.2fs%s | portfolio %s in %.2fs (lane: %s)%s\n",
        Cases[I].Name, toString(A.Outcome), A.WallSeconds,
        A.TimedOut ? " [timeout]" : "", toString(B.Outcome), B.WallSeconds,
        B.WinningLane.empty() ? "none" : B.WinningLane.c_str(),
        A.TimedOut && definitive(B.Outcome) ? " [rescued]" : "");
  }

  // Slowest quartile by single-lane end-to-end job seconds.
  std::vector<size_t> Ranked(N);
  for (size_t I = 0; I < N; ++I)
    Ranked[I] = I;
  std::sort(Ranked.begin(), Ranked.end(), [&](size_t A, size_t B) {
    return Single.results()[A].WallSeconds > Single.results()[B].WallSeconds;
  });
  Ranked.resize(std::max<size_t>(1, N / 4));
  double SingleQ = 0, PortQ = 0;
  for (size_t I : Ranked) {
    SingleQ += Single.results()[I].WallSeconds;
    PortQ += Port.results()[I].WallSeconds;
  }
  double Reduction = SingleQ > 0 ? 1.0 - PortQ / SingleQ : 0.0;
  unsigned Rescues = 0;
  for (size_t I = 0; I < N; ++I)
    Rescues += Single.results()[I].TimedOut &&
               definitive(Port.results()[I].Outcome);

  std::fprintf(stderr,
               "campaign wall: single %.2fs -> portfolio %.2fs\n"
               "slowest quartile (%zu of %zu): single %.2fs -> portfolio "
               "%.2fs (-%.1f%%), %u rescued timeout(s)\n",
               Single.wallSeconds(), Port.wallSeconds(), Ranked.size(), N,
               SingleQ, PortQ, 100 * Reduction, Rescues);

  // Forced-timeout rescue stanza (see the file comment): sequential
  // single-lane vs a race, tight budget, the smallbank causal strict
  // quartet.
  unsigned RescueTimeoutMs = static_cast<unsigned>(
      envInt("ISOPREDICT_RESCUE_TIMEOUT_MS", 1000));
  Campaign RC;
  RC.Name = "micro_solve forced-timeout rescue";
  for (uint64_t Seed : {uint64_t(1), uint64_t(2)})
    for (Strategy S : {Strategy::ExactStrict, Strategy::ApproxStrict}) {
      JobSpec J;
      J.Kind = JobKind::Predict;
      J.App = "smallbank";
      J.Cfg = WorkloadConfig{3, 4, Seed};
      J.Level = IsolationLevel::Causal;
      J.Strat = S;
      J.TimeoutMs = RescueTimeoutMs;
      RC.Jobs.push_back(std::move(J));
    }
  std::fprintf(stderr, "forced-timeout rescue: %zu jobs at %u ms\n", RC.size(),
               RescueTimeoutMs);
  EngineOptions SeqOpts;
  SeqOpts.NumWorkers = 1;
  Report RescueSingle = Engine(SeqOpts).run(RC);
  EngineOptions SeqPortOpts;
  SeqPortOpts.NumWorkers = 1;
  SeqPortOpts.PortfolioLanes = MaxLanes;
  Report RescuePort = Engine(SeqPortOpts).run(RC);
  unsigned RescueTimeouts = 0, Rescued = 0;
  for (size_t I = 0; I < RC.size(); ++I) {
    const JobResult &A = RescueSingle.results()[I];
    const JobResult &B = RescuePort.results()[I];
    if (!A.TimedOut)
      continue;
    ++RescueTimeouts;
    Rescued += definitive(B.Outcome);
    std::fprintf(stderr, "  %s %s seed %llu: single timeout -> portfolio %s "
                         "(lane: %s)\n",
                 toString(RC.Jobs[I].Strat), toString(RC.Jobs[I].Level),
                 static_cast<unsigned long long>(RC.Jobs[I].Cfg.Seed),
                 toString(B.Outcome),
                 B.WinningLane.empty() ? "none" : B.WinningLane.c_str());
  }
  std::fprintf(stderr, "forced-timeout rescue: %u/%u timeouts rescued\n",
               Rescued, RescueTimeouts);

  if (JsonPath.empty())
    return 0;

  JsonWriter J(2);
  J.openObject();
  J.str("schema", "isopredict-bench-solve/1");
  J.str("benchmark", "micro_solve --json");
  J.str("note", "one hard-query campaign run twice through the Engine at the "
                "same worker budget, single-lane vs --portfolio; outcomes are "
                "deterministic, seconds are machine-dependent");
  J.num("timeout_ms", static_cast<uint64_t>(TimeoutMs));
  J.num("lanes", static_cast<uint64_t>(MaxLanes));
  J.num("jobs", static_cast<uint64_t>(Workers));
  J.num("single_campaign_wall_seconds", Single.wallSeconds());
  J.num("portfolio_campaign_wall_seconds", Port.wallSeconds());
  J.openArray("benchmarks");
  for (size_t I = 0; I < N; ++I) {
    const JobResult &A = Single.results()[I];
    const JobResult &B = Port.results()[I];
    J.openElement();
    J.str("name", Cases[I].Name);
    J.str("app", Cases[I].App);
    J.str("level", toString(Cases[I].Level));
    J.str("strategy", toString(Cases[I].Strat));
    J.num("txns_per_session", static_cast<uint64_t>(Cases[I].TxnsPerSession));
    J.num("seed", Cases[I].Seed);
    J.openObjectIn("single");
    J.str("result", toString(A.Outcome));
    if (A.TimedOut)
      J.boolean("timeout", true);
    J.num("solve_seconds", A.Stats.SolveSeconds);
    J.num("seconds", A.WallSeconds);
    J.closeObject();
    J.openObjectIn("portfolio");
    J.str("result", toString(B.Outcome));
    J.str("winning_lane", B.WinningLane);
    J.num("wall_seconds", B.WallSeconds);
    if (A.TimedOut && definitive(B.Outcome))
      J.boolean("rescued", true);
    J.openArray("lanes");
    for (const LaneResult &L : B.Lanes) {
      J.openElement();
      J.str("lane", L.Name);
      J.str("result", toString(L.Outcome));
      if (L.Canceled)
        J.boolean("canceled", true);
      if (L.TimedOut)
        J.boolean("timeout", true);
      J.num("seconds", L.Seconds);
      J.num("solve_seconds", L.SolveSeconds);
      J.closeObject();
    }
    J.closeArray();
    J.closeObject();
    J.closeObject();
  }
  J.closeArray();
  J.openObjectIn("slowest_quartile");
  J.num("cases", static_cast<uint64_t>(Ranked.size()));
  J.num("single_seconds", SingleQ);
  J.num("portfolio_seconds", PortQ);
  J.num("reduction", Reduction);
  J.closeObject();
  J.num("rescued_timeouts", static_cast<uint64_t>(Rescues));
  J.openObjectIn("forced_timeout_rescue");
  J.num("timeout_ms", static_cast<uint64_t>(RescueTimeoutMs));
  J.openArray("jobs");
  for (size_t I = 0; I < RC.size(); ++I) {
    const JobResult &A = RescueSingle.results()[I];
    const JobResult &B = RescuePort.results()[I];
    J.openElement();
    J.str("strategy", toString(RC.Jobs[I].Strat));
    J.num("seed", RC.Jobs[I].Cfg.Seed);
    J.str("single_result", toString(A.Outcome));
    if (A.TimedOut)
      J.boolean("single_timeout", true);
    J.str("portfolio_result", toString(B.Outcome));
    J.str("winning_lane", B.WinningLane);
    if (A.TimedOut && definitive(B.Outcome))
      J.boolean("rescued", true);
    J.closeObject();
  }
  J.closeArray();
  J.num("single_timeouts", static_cast<uint64_t>(RescueTimeouts));
  J.num("rescued", static_cast<uint64_t>(Rescued));
  J.closeObject();
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
