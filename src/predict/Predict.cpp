//===- Predict.cpp - IsoPredict predictive analysis -----------*- C++ -*-===//
//
// The constraint system lives in the src/encode/ pass pipeline
// (EncodingContext + passes; see Passes.cpp for the Appendix-B clause
// map) and the query machinery in PredictSession. predict() is one
// root-scope query on a fresh session — the same encoding a session
// query builds, without the push/pop scope.
//
//===----------------------------------------------------------------------===//

#include "predict/Predict.h"

#include "predict/PredictSession.h"
#include "support/StrUtil.h"

using namespace isopredict;

const char *isopredict::toString(PcoEncoding E) {
  switch (E) {
  case PcoEncoding::Rank:
    return "rank";
  }
  return "?";
}

const char *isopredict::toString(Strategy S) {
  switch (S) {
  case Strategy::ExactStrict:
    return "Exact-Strict";
  case Strategy::ApproxStrict:
    return "Approx-Strict";
  case Strategy::ApproxRelaxed:
    return "Approx-Relaxed";
  }
  return "?";
}

std::optional<Strategy>
isopredict::strategyFromString(std::string_view Name) {
  std::string N = toLowerAscii(Name);
  if (N == "exact" || N == "exact-strict")
    return Strategy::ExactStrict;
  if (N == "strict" || N == "approx-strict")
    return Strategy::ApproxStrict;
  if (N == "relaxed" || N == "approx-relaxed")
    return Strategy::ApproxRelaxed;
  return std::nullopt;
}

const char *isopredict::strategyValidNames() {
  return "exact, strict, relaxed";
}

std::optional<PcoEncoding>
isopredict::pcoEncodingFromString(std::string_view Name) {
  std::string N = toLowerAscii(Name);
  if (N == "rank")
    return PcoEncoding::Rank;
  return std::nullopt;
}

const char *isopredict::pcoEncodingValidNames() { return "rank"; }

Prediction isopredict::predict(const History &Observed,
                               const PredictOptions &Opts,
                               const Prediction *ExactStage) {
  // The one-shot session path: root scope, history not copied.
  PredictSession S(Observed, Opts, /*Shared=*/false);
  PredictSession::QueryOptions Q;
  Q.Level = Opts.Level;
  Q.Strat = Opts.Strat;
  Q.TimeoutMs = Opts.TimeoutMs;
  Q.GenerateOnly = Opts.GenerateOnly;
  Q.ExactStage = ExactStage;
  return S.runQuery(Q);
}
