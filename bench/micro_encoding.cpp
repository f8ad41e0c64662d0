//===- micro_encoding.cpp - Microbenchmarks (google-benchmark) -*- C++ -*-===//
//
// The §7.2 performance discussion: constraint generation vs solving.
// The paper found 97% of generation time in Python/Z3Py; these
// microbenchmarks quantify the native-API cost of each pipeline stage —
// constraint generation (by encoding pass, via PredictOptions::
// GenerateOnly and EncodingStats::Passes), solving, the polynomial
// checkers, and the store's legality machinery — as history size grows.
//
// Measured finding: in this native reproduction ~95% of generation
// wall-clock is inside libz3 (term hash-consing + per-assert
// preprocessing), so batching asserts did not help (README, negative
// results).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "checker/Checkers.h"
#include "obs/Tracer.h"
#include "predict/Predict.h"
#include "predict/PredictSession.h"
#include "support/Env.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace isopredict;
using namespace isopredict::benchutil;

namespace {

History observedHistory(const char *App, unsigned TxnsPerSession,
                        uint64_t Seed) {
  WorkloadConfig Cfg{3, TxnsPerSession, Seed};
  return observedRun(App, Cfg).Hist;
}

void predictOnce(benchmark::State &State, const char *App, Strategy Strat,
                 IsolationLevel Level) {
  History H = observedHistory(App, static_cast<unsigned>(State.range(0)), 1);
  PredictOptions Opts;
  Opts.Level = Level;
  Opts.Strat = Strat;
  Opts.TimeoutMs = 10000;
  uint64_t Literals = 0;
  for (auto _ : State) {
    Prediction P = predict(H, Opts);
    benchmark::DoNotOptimize(P.Result);
    Literals = P.Stats.NumLiterals;
  }
  State.counters["literals"] = static_cast<double>(Literals);
  State.counters["txns"] = static_cast<double>(H.numTxns() - 1);
}

/// Constraint generation only (no solver query): the pipeline runs every
/// pass and asserts, then returns. Per-pass seconds land in counters so
/// regressions are attributable to a stage from the CI log alone.
void generateOnce(benchmark::State &State, const char *App, Strategy Strat,
                  IsolationLevel Level) {
  History H = observedHistory(App, static_cast<unsigned>(State.range(0)), 1);
  PredictOptions Opts;
  Opts.Level = Level;
  Opts.Strat = Strat;
  Opts.GenerateOnly = true;
  EncodingStats Stats;
  for (auto _ : State) {
    Prediction P = predict(H, Opts);
    benchmark::DoNotOptimize(P.Stats.NumLiterals);
    Stats = std::move(P.Stats);
  }
  State.counters["literals"] = static_cast<double>(Stats.NumLiterals);
  State.counters["txns"] = static_cast<double>(H.numTxns() - 1);
  for (const PassStats &P : Stats.Passes)
    State.counters[std::string("s_") + P.Name] = P.Seconds;
}

} // namespace

static void BM_PredictSmallbankApproxCausal(benchmark::State &State) {
  predictOnce(State, "smallbank", Strategy::ApproxStrict,
              IsolationLevel::Causal);
}
BENCHMARK(BM_PredictSmallbankApproxCausal)->Arg(2)->Arg(4)->Arg(8);

static void BM_PredictSmallbankExactCausal(benchmark::State &State) {
  predictOnce(State, "smallbank", Strategy::ExactStrict,
              IsolationLevel::Causal);
}
BENCHMARK(BM_PredictSmallbankExactCausal)->Arg(2)->Arg(4);

static void BM_PredictVoterApproxRc(benchmark::State &State) {
  predictOnce(State, "voter", Strategy::ApproxStrict,
              IsolationLevel::ReadCommitted);
}
BENCHMARK(BM_PredictVoterApproxRc)->Arg(2)->Arg(4);

// Generation-only benchmarks (per-pass breakdown in the counters). The
// largest workloads are where constraint generation is the §7.2
// bottleneck; Arg(16) doubles the paper's large shape.
static void BM_GenerateSmallbankRankCausal(benchmark::State &State) {
  generateOnce(State, "smallbank", Strategy::ApproxStrict,
               IsolationLevel::Causal);
}
BENCHMARK(BM_GenerateSmallbankRankCausal)->Arg(4)->Arg(8)->Arg(16);

static void BM_GenerateTpccRankRc(benchmark::State &State) {
  generateOnce(State, "tpcc", Strategy::ApproxStrict,
               IsolationLevel::ReadCommitted);
}
BENCHMARK(BM_GenerateTpccRankRc)->Arg(8)->Arg(16);

static void BM_GenerateTpccRelaxedRc(benchmark::State &State) {
  generateOnce(State, "tpcc", Strategy::ApproxRelaxed,
               IsolationLevel::ReadCommitted);
}
BENCHMARK(BM_GenerateTpccRelaxedRc)->Arg(8);

/// Session reuse: steady-state per-query constraint generation on one
/// PredictSession (same app/strategy/level/workload as
/// BM_GenerateTpccRankRc — that benchmark is the one-shot baseline,
/// which encodes the same system: base prefix plus one query).
/// The base prefix is encoded once before the timing loop, so each
/// iteration measures exactly what the 2nd..Nth campaign query on a
/// shared history pays: push, boundary-link + strategy + isolation
/// passes, pop — the base prefix's literals (counter base_literals)
/// are never re-emitted (counter query_literals excludes them).
static void BM_SessionReuseTpccRankRc(benchmark::State &State) {
  History H =
      observedHistory("tpcc", static_cast<unsigned>(State.range(0)), 1);
  PredictSession Session(H);
  PredictSession::QueryOptions Q;
  Q.Level = IsolationLevel::ReadCommitted;
  Q.Strat = Strategy::ApproxStrict;
  Q.GenerateOnly = true;
  benchmark::DoNotOptimize(Session.query(Q)); // pays for the base prefix
  uint64_t QueryLits = 0;
  for (auto _ : State) {
    Prediction P = Session.query(Q);
    benchmark::DoNotOptimize(P.Stats.NumLiterals);
    QueryLits = P.Stats.NumLiterals;
  }
  State.counters["base_literals"] =
      static_cast<double>(Session.baseLiterals());
  State.counters["query_literals"] = static_cast<double>(QueryLits);
  State.counters["txns"] = static_cast<double>(H.numTxns() - 1);
}
BENCHMARK(BM_SessionReuseTpccRankRc)->Arg(8)->Arg(16);

static void BM_CheckSerializability(benchmark::State &State) {
  History H = observedHistory("smallbank",
                              static_cast<unsigned>(State.range(0)), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(checkSerializableSmt(H, 10000));
}
BENCHMARK(BM_CheckSerializability)->Arg(4)->Arg(8);

static void BM_CausalChecker(benchmark::State &State) {
  History H = observedHistory("tpcc", static_cast<unsigned>(State.range(0)),
                              1);
  for (auto _ : State)
    benchmark::DoNotOptimize(isCausal(H));
}
BENCHMARK(BM_CausalChecker)->Arg(4)->Arg(8);

static void BM_PcoSaturation(benchmark::State &State) {
  History H = observedHistory("tpcc", static_cast<unsigned>(State.range(0)),
                              1);
  for (auto _ : State)
    benchmark::DoNotOptimize(pcoCycle(H).has_value());
}
BENCHMARK(BM_PcoSaturation)->Arg(4)->Arg(8);

static void BM_StoreRandomWeakRun(benchmark::State &State) {
  uint64_t Seed = 1;
  for (auto _ : State) {
    WorkloadConfig Cfg{3, static_cast<unsigned>(State.range(0)), Seed++};
    RunResult R =
        randomWeakRun("smallbank", Cfg, IsolationLevel::Causal, Seed);
    benchmark::DoNotOptimize(R.Hist.numTxns());
  }
}
BENCHMARK(BM_StoreRandomWeakRun)->Arg(4)->Arg(8);

static void BM_TransitiveClosure(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  BitRel R(N);
  Rng Rand(7);
  for (size_t I = 0; I < 3 * N; ++I)
    R.set(Rand.below(N), Rand.below(N));
  for (auto _ : State) {
    BitRel C = R;
    C.closeTransitively();
    benchmark::DoNotOptimize(C.hasCycleClosed());
  }
}
BENCHMARK(BM_TransitiveClosure)->Arg(16)->Arg(64)->Arg(256);

//===----------------------------------------------------------------------===
// --json OUT: machine-readable perf-trajectory snapshot
//===----------------------------------------------------------------------===

namespace {

/// One snapshot shape: a generation-only query measured under the
/// relevance (default) and identity plans. Literal counts are
/// deterministic; seconds are machine-
/// dependent (the committed BENCH_encoding.json records both, with the
/// seconds understood as "on the machine that wrote the snapshot").
struct SnapshotCase {
  const char *Name;
  const char *App;
  Strategy Strat;
  IsolationLevel Level;
  unsigned TxnsPerSession;
};

/// Generation-only run; best wall-clock of \p Reps.
EncodingStats measureGen(const History &H, Strategy Strat,
                         IsolationLevel Level, bool Prune, int Reps) {
  EncodingStats Best;
  for (int R = 0; R < Reps; ++R) {
    PredictOptions Opts;
    Opts.Level = Level;
    Opts.Strat = Strat;
    Opts.GenerateOnly = true;
    Opts.PruneFormula = Prune;
    Prediction P = predict(H, Opts);
    if (R == 0 || P.Stats.GenSeconds < Best.GenSeconds)
      Best = std::move(P.Stats);
  }
  return Best;
}

/// Writes the default-vs-identity-plan generation snapshot to \p Path
/// ("-" = stdout). The satellite trajectory file BENCH_encoding.json
/// at the repo root is generated by exactly this mode.
int writeSnapshot(const std::string &Path) {
  // Names are unique (the txn count is part of them) so trajectory
  // tooling can pair entries across snapshots by name alone.
  const SnapshotCase Cases[] = {
      {"smallbank_rank_causal_16", "smallbank", Strategy::ApproxStrict,
       IsolationLevel::Causal, 16},
      {"tpcc_rank_rc_8", "tpcc", Strategy::ApproxStrict,
       IsolationLevel::ReadCommitted, 8},
      {"tpcc_rank_rc_16", "tpcc", Strategy::ApproxStrict,
       IsolationLevel::ReadCommitted, 16},
  };

  JsonWriter J(2);
  J.openObject();
  J.str("schema", "isopredict-bench-encoding/2");
  J.str("benchmark", "micro_encoding --json");
  J.str("note", "generation-only (GenerateOnly); literals are "
                "deterministic, seconds are machine-dependent");
  J.openArray("benchmarks");
  for (const SnapshotCase &C : Cases) {
    History H = observedHistory(C.App, C.TxnsPerSession, 1);
    int Reps = C.TxnsPerSession >= 16 ? 2 : 3;
    // Span-instrumented: per-phase (category) second totals over this
    // case's measurement runs land in "span_seconds" below. enable()
    // clears prior spans, so each case starts fresh.
    obs::Tracer::global().enable();
    EncodingStats Identity =
        measureGen(H, C.Strat, C.Level, /*Prune=*/false, Reps);
    EncodingStats Default =
        measureGen(H, C.Strat, C.Level, /*Prune=*/true, Reps);
    std::vector<std::pair<std::string, double>> Phases =
        obs::Tracer::global().categorySeconds();
    obs::Tracer::global().disable();
    J.openElement();
    J.str("name", C.Name);
    J.str("app", C.App);
    J.str("strategy", toString(C.Strat));
    J.str("level", toString(C.Level));
    J.num("txns_per_session", static_cast<uint64_t>(C.TxnsPerSession));
    J.num("txns", static_cast<uint64_t>(H.numTxns() - 1));
    J.num("literals", Default.NumLiterals);
    J.num("identity_literals", Identity.NumLiterals);
    J.num("gen_seconds", Default.GenSeconds);
    J.num("identity_gen_seconds", Identity.GenSeconds);
    double LitCut =
        Identity.NumLiterals
            ? 1.0 - static_cast<double>(Default.NumLiterals) /
                        static_cast<double>(Identity.NumLiterals)
            : 0.0;
    double TimeCut = Identity.GenSeconds > 0
                         ? 1.0 - Default.GenSeconds / Identity.GenSeconds
                         : 0.0;
    J.num("literal_reduction", LitCut);
    J.num("gen_time_reduction", TimeCut);
    // Per-phase wall-clock from obs spans, summed over every run of
    // this case (all reps, both plans). Generation-only, so
    // "encode" dominates; machine-dependent like the seconds above.
    J.openObjectIn("span_seconds");
    for (const auto &KV : Phases)
      J.num(KV.first.c_str(), KV.second);
    J.closeObject();
    J.closeObject();
    std::fprintf(stderr,
                 "%s/%u: %llu (identity) -> %llu (default) literals "
                 "(-%.1f%%), %.3fs -> %.3fs gen (-%.1f%%)\n",
                 C.Name, C.TxnsPerSession,
                 static_cast<unsigned long long>(Identity.NumLiterals),
                 static_cast<unsigned long long>(Default.NumLiterals),
                 100 * LitCut, Identity.GenSeconds, Default.GenSeconds,
                 100 * TimeCut);
  }
  J.closeArray();
  J.closeObject();

  std::string Json = J.take();
  if (Path == "-") {
    std::fwrite(Json.data(), 1, Json.size(), stdout);
    return 0;
  }
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", Path.c_str());
    return 1;
  }
  std::fwrite(Json.data(), 1, Json.size(), Out);
  std::fclose(Out);
  std::fprintf(stderr, "wrote %s\n", Path.c_str());
  return 0;
}

} // namespace

// Custom main instead of BENCHMARK_MAIN(): `--json OUT` switches to the
// snapshot mode above (the perf-trajectory file committed as
// BENCH_encoding.json); anything else runs google-benchmark as usual.
int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--json") == 0) {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "--json needs an output path ('-' = stdout)\n");
        return 2;
      }
      return writeSnapshot(argv[I + 1]);
    }
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      return writeSnapshot(argv[I] + 7);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
