//===- Campaign.cpp - Prediction-campaign descriptions ---------*- C++ -*-===//

#include "engine/Campaign.h"

#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::engine;

const char *isopredict::engine::toString(JobKind K) {
  switch (K) {
  case JobKind::Observe:
    return "observe";
  case JobKind::Predict:
    return "predict";
  case JobKind::RandomWeak:
    return "random-weak";
  case JobKind::LockingRc:
    return "locking-rc";
  case JobKind::Stream:
    return "stream";
  }
  return "unknown";
}

std::optional<JobKind>
isopredict::engine::jobKindFromString(std::string_view Name) {
  std::string N = toLowerAscii(Name);
  if (N == "observe")
    return JobKind::Observe;
  if (N == "predict")
    return JobKind::Predict;
  if (N == "random-weak")
    return JobKind::RandomWeak;
  if (N == "locking-rc")
    return JobKind::LockingRc;
  if (N == "stream")
    return JobKind::Stream;
  return std::nullopt;
}

std::string isopredict::engine::canonicalSpec(const JobSpec &S) {
  // Every outcome-determining field, in a fixed order with explicit
  // key= prefixes so no two specs can serialize identically. Keep this
  // stable: SpecHash values are persisted in JSON reports and matched
  // across runs (report_diff) and, eventually, cache generations.
  std::string Spec = formatString(
      "kind=%s;app=%s;sessions=%u;txns=%u;seed=%llu;level=%s;strat=%s;"
      "pco=%s;store_seed=%llu;timeout_ms=%u;validate=%u;check_ser=%u;"
      "prune=%u",
      toString(S.Kind), S.App.c_str(), S.Cfg.Sessions, S.Cfg.TxnsPerSession,
      static_cast<unsigned long long>(S.Cfg.Seed), toString(S.Level),
      toString(S.Strat), toString(S.Pco),
      static_cast<unsigned long long>(S.StoreSeed), S.TimeoutMs,
      S.Validate ? 1u : 0u, S.CheckSerializability ? 1u : 0u,
      S.Prune ? 1u : 0u);
  // Stream-only fields ride as a conditional suffix: every pre-existing
  // kind keeps the serialization (and therefore the spec_hash) it had
  // before streaming existed, so old reports and cache entries stay
  // addressable.
  if (S.Kind == JobKind::Stream)
    Spec += formatString(";window=%u;chunk=%u", S.Window, S.StreamChunk);
  return Spec;
}

uint64_t isopredict::engine::specHash(const JobSpec &S) {
  // FNV-1a 64-bit over the canonical serialization.
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (unsigned char C : canonicalSpec(S)) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

Campaign Campaign::predictGrid(std::string Name,
                               const std::vector<std::string> &Apps,
                               const std::vector<IsolationLevel> &Levels,
                               const std::vector<Strategy> &Strategies,
                               const std::vector<bool> &Larges,
                               unsigned NumSeeds, unsigned TimeoutMs) {
  Campaign C;
  C.Name = std::move(Name);
  for (const std::string &App : Apps)
    for (IsolationLevel Level : Levels)
      for (Strategy S : Strategies)
        for (bool Large : Larges)
          for (uint64_t Seed = 1; Seed <= NumSeeds; ++Seed) {
            JobSpec J;
            J.Kind = JobKind::Predict;
            J.App = App;
            J.Cfg = Large ? WorkloadConfig::large(Seed)
                          : WorkloadConfig::small(Seed);
            J.Level = Level;
            J.Strat = S;
            J.TimeoutMs = TimeoutMs;
            C.Jobs.push_back(std::move(J));
          }
  return C;
}
