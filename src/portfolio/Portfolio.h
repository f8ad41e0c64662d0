//===- Portfolio.h - Parallel solve portfolio (lane racing) ----*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Races N *lanes* — alternative ways of answering the same prediction
/// query — on their own threads, commits the first decided answer, and
/// cancels the losers (SmtSolver::interrupt). The relevance and identity
/// plans' formulas and any sat/unsat-preserving Z3 parameter preset all
/// answer the same sat/unsat question, with solve times that can differ
/// by orders of magnitude per query.
///
/// Lane taxonomy (buildLanes): lane 0 is always the *reference* lane —
/// exactly the single-lane configuration (query prune flag, default
/// solver parameters), running the same one-shot pipeline bit for bit.
/// Then, budget permitting: the prune toggle and Z3 parameter presets.
/// Every lane answers the query's own strategy, so every decided answer
/// commits. There are no cross-strategy lanes: an Approx query already
/// solves the exact formula first (PredictSession::runQuery), so an
/// Exact lane would only race the reference lane's own first stage.
///
/// Sat answers of a validating job are replay-validated *inside the
/// lane* before committing, and the winner's validation is reused as
/// the job's — never computed twice.
///
/// Launch policy: every lane starts at once, one thread each. A lane
/// other than the reference that starts after the race is already
/// decided skips its encoding and reports Canceled.
///
/// Determinism: generation is never interrupted (only the solver check
/// is — see SmtSolver::interrupt), so the reference lane produces the
/// single-lane literal count, which is what reports carry. (An Approx
/// query's rank-encoding fallback is counted apart, in the
/// timings-gated EncodingStats::FallbackLiterals: a lane canceled in
/// the first stage never learns whether it would have fallen back.)
/// Outcomes are deterministic by the
/// contract above; *which* lane wins (and therefore sat
/// models/witnesses) is a race, exactly like the "models may differ"
/// contract of --share-encodings and --prune.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_PORTFOLIO_PORTFOLIO_H
#define ISOPREDICT_PORTFOLIO_PORTFOLIO_H

#include "predict/Predict.h"
#include "validate/Validate.h"

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace isopredict {
namespace portfolio {

/// One lane: a complete recipe for answering the query.
struct LaneSpec {
  /// Stable label ("reference", "pruned", "arith2", ...): reports and
  /// report_profile's lane table join on it.
  std::string Name;
  bool Prune = false;
  /// Z3 parameter presets (PredictOptions::SolverParams).
  std::vector<std::pair<std::string, std::string>> SolverParams;
};

/// Size of the whole lane taxonomy: the most lanes buildLanes() returns.
constexpr unsigned TaxonomySize = 5;

/// The lane taxonomy for a query with effective options \p Q, capped at
/// \p MaxLanes (>= 1). Lanes[0] is always the reference lane.
std::vector<LaneSpec> buildLanes(const PredictOptions &Q, unsigned MaxLanes);

/// Replays a Sat prediction for validation (the engine executor's
/// replay); null when the job does not validate.
using Validator = std::function<ValidationResult(const Prediction &)>;

/// What one lane did.
struct LaneRun {
  LaneSpec Spec;
  Prediction P;
  /// Set when the lane replay-validated its Sat model (the winner's is
  /// reused as the job's validation).
  std::optional<ValidationResult> Val;
  /// Lane wall-clock from launch to completion (encode + solve +
  /// in-lane validation); partial time for canceled lanes.
  double Seconds = 0;
};

/// Outcome of one race.
struct RaceResult {
  /// Parallel to the input lanes (index 0 = reference lane).
  std::vector<LaneRun> Lanes;
  /// Index of the lane whose answer committed; -1 when no lane decided
  /// (the job falls back to the reference lane's unknown).
  int Winner = -1;
  double WallSeconds = 0;
};

/// Races \p Lanes for the query described by \p Base (lane fields
/// Prune/SolverParams override it per lane), one thread per lane,
/// all started at once. \p Observed must outlive the call; it is shared
/// read-only across lane threads. The reference lane (index 0) always
/// completes its generation, so RaceResult.Lanes[0].P.Stats carries the
/// single-lane literal count even when another lane wins first.
RaceResult race(const History &Observed, const PredictOptions &Base,
                const std::vector<LaneSpec> &Lanes, const Validator &Validate);

} // namespace portfolio
} // namespace isopredict

#endif // ISOPREDICT_PORTFOLIO_PORTFOLIO_H
