//===- BenchUtil.h - Shared bench-harness helpers -------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common plumbing for the table-regeneration harnesses (Tables 3, 6
/// and 7) and the micro benchmarks.
/// Defaults keep a full `for b in build/bench/*; do $b; done` sweep to a
/// few minutes; environment variables scale a run up to the paper's
/// configuration:
///
///   ISOPREDICT_SEEDS       seeds per configuration   (paper: 10)
///   ISOPREDICT_RUNS        MonkeyDB/MySQL runs       (paper: 100)
///   ISOPREDICT_TIMEOUT_MS  per-query solver timeout  (paper: 24h)
///   ISOPREDICT_JOBS        campaign worker threads   (0 = all cores)
///   ISOPREDICT_JSON_DIR    where BENCH_*.json reports go ("" disables)
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_BENCH_BENCHUTIL_H
#define ISOPREDICT_BENCH_BENCHUTIL_H

#include "apps/AppFramework.h"
#include "engine/Engine.h"
#include "support/Env.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <cstdio>

namespace isopredict {
namespace benchutil {

inline unsigned seeds() {
  return static_cast<unsigned>(envInt("ISOPREDICT_SEEDS", 5));
}

inline unsigned runs() {
  return static_cast<unsigned>(envInt("ISOPREDICT_RUNS", 25));
}

inline unsigned timeoutMs() {
  return static_cast<unsigned>(envInt("ISOPREDICT_TIMEOUT_MS", 5000));
}

/// Campaign-engine worker threads for the table sweeps; 0 (the default)
/// resolves to all hardware threads.
inline unsigned jobs() {
  return static_cast<unsigned>(envInt("ISOPREDICT_JOBS", 0));
}

/// Runs \p C on the campaign engine with jobs() workers.
inline engine::Report runCampaign(const engine::Campaign &C) {
  engine::EngineOptions EO;
  EO.NumWorkers = jobs();
  return engine::Engine(EO).run(C);
}

/// Writes \p R as BENCH_<stem>.json into ISOPREDICT_JSON_DIR (default:
/// the working directory; empty string disables).
inline void writeBenchReport(const engine::Report &R, const char *Stem) {
  std::string Dir = envString("ISOPREDICT_JSON_DIR", ".");
  if (Dir.empty())
    return;
  std::string Path = Dir + "/BENCH_" + Stem + ".json";
  std::string Error;
  if (!R.writeJsonFile(Path, engine::ReportOptions{}, &Error))
    std::fprintf(stderr, "warning: %s\n", Error.c_str());
  else
    std::printf("[json report: %s]\n", Path.c_str());
}

inline WorkloadConfig config(bool Large, uint64_t Seed) {
  return Large ? WorkloadConfig::large(Seed) : WorkloadConfig::small(Seed);
}

/// True if \p Cfg is the large workload shape (inverse of config(),
/// used when bucketing campaign results back into table rows).
inline bool isLarge(const WorkloadConfig &Cfg) {
  return Cfg.TxnsPerSession == WorkloadConfig::large(Cfg.Seed).TxnsPerSession;
}

/// Runs one observed (serializable, serial) execution.
inline RunResult observedRun(const std::string &AppName,
                             const WorkloadConfig &Cfg) {
  auto App = makeApplication(AppName);
  DataStore::Options O;
  O.Mode = StoreMode::SerialObserved;
  O.Level = IsolationLevel::Serializable;
  O.Seed = Cfg.Seed;
  DataStore Store(O);
  return WorkloadRunner::run(*App, Store, Cfg);
}

/// Runs one MonkeyDB-style random weak execution.
inline RunResult randomWeakRun(const std::string &AppName,
                               const WorkloadConfig &Cfg,
                               IsolationLevel Level, uint64_t StoreSeed) {
  auto App = makeApplication(AppName);
  DataStore::Options O;
  O.Mode = StoreMode::RandomWeak;
  O.Level = Level;
  O.Seed = StoreSeed;
  DataStore Store(O);
  return WorkloadRunner::run(*App, Store, Cfg);
}

inline std::string pct(unsigned Num, unsigned Den) {
  if (Den == 0)
    return "-";
  return formatString("%.0f%%", 100.0 * Num / Den);
}

inline void banner(const char *Table, const char *What) {
  std::printf("==============================================================="
              "=========\n%s: %s\n(seeds=%u runs=%u timeout=%ums jobs=%u "
              "[0=all cores]; scale with ISOPREDICT_SEEDS / ISOPREDICT_RUNS /"
              " ISOPREDICT_TIMEOUT_MS / ISOPREDICT_JOBS)\n"
              "==============================================================="
              "=========\n",
              Table, What, seeds(), runs(), timeoutMs(), jobs());
}

} // namespace benchutil
} // namespace isopredict

#endif // ISOPREDICT_BENCH_BENCHUTIL_H
