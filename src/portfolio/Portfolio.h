//===- Portfolio.h - Parallel solve portfolio (lane racing) ----*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Races N *lanes* — alternative ways of answering the same prediction
/// query — on their own threads, commits the first definitive answer,
/// and cancels the losers (SmtSolver::interrupt). The prediction
/// queries are embarrassingly racy: the Exact and Approx encodings, the
/// relevance and identity plans' formulas, and any sat/unsat-preserving Z3
/// parameter preset all answer the same sat/unsat question, with solve
/// times that differ by orders of magnitude per query.
///
/// Lane taxonomy (buildLanes): lane 0 is always the *reference* lane —
/// exactly the single-lane configuration (query strategy, query prune
/// flag, default solver parameters), running the same one-shot pipeline
/// bit for bit. Then, budget permitting: the prune toggle, a
/// cross-strategy scout, and Z3 parameter presets.
///
/// Definitiveness (the sat/unsat-equivalence contract):
///  - A lane with the query's own strategy is sat/unsat-equivalent by
///    the established encoding contracts (either plan, solver parameters),
///    so both of its decided answers commit.
///  - Cross-strategy lanes commit only along the soundness lattice:
///    Approx-Strict sat implies Exact sat (the approx encoding is a
///    sufficient condition), and Exact unsat implies Approx-Strict
///    unsat (the exact encoding is complete). So an Exact query accepts
///    an Approx-Strict lane's *sat* (additionally requiring a
///    replay-validated model — a concrete unserializability proof, not
///    just the theorem), and an Approx-Strict query accepts an Exact
///    lane's *unsat*. Approx-Relaxed queries get same-strategy lanes
///    only (the relaxed boundary changes the predicted-history
///    semantics).
///  - Sat answers of a validating job are replay-validated *inside the
///    lane* before committing, and the winner's validation is reused as
///    the job's — never computed twice.
///
/// Launch policy: every lane starts at once, one thread each. A lane
/// other than the reference that starts after the race is already
/// decided skips its encoding and reports Canceled.
///
/// Determinism: generation is never interrupted (only the solver check
/// is — see SmtSolver::interrupt), so the reference lane always
/// produces the single-lane literal count, which is what reports carry.
/// Outcomes are deterministic by the contract above; *which* lane wins
/// (and therefore sat models/witnesses) is a race, exactly like the
/// "models may differ" contract of --share-encodings and --prune.
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

/// One lane: a complete recipe for answering the query, plus the
/// direction(s) in which its answer is definitive for the query.
struct LaneSpec {
  /// Stable label ("reference", "pruned", "approx-scout", "arith2",
  /// ...): reports and report_profile's lane table join on it.
  std::string Name;
  Strategy Strat = Strategy::ApproxRelaxed;
  bool Prune = false;
  /// Z3 parameter presets (PredictOptions::SolverParams).
  std::vector<std::pair<std::string, std::string>> SolverParams;
  /// Lane strategy == query strategy (same encoding family: both
  /// decided answers commit, and a sat model needs no extra proof).
  bool SameStrategy = true;
  /// This lane's Sat commits the query (see the soundness lattice).
  bool AcceptSat = true;
  /// This lane's Unsat commits the query.
  bool AcceptUnsat = true;
};

/// Size of the whole lane taxonomy: the most lanes buildLanes() returns
/// for any query (Approx-Relaxed queries get one fewer).
constexpr unsigned TaxonomySize = 6;

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
  /// This lane's answer commits the query (see LaneSpec accept flags).
  bool Definitive = false;
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
/// Strat/Prune/SolverParams override it per lane), one thread per lane,
/// all started at once. \p Observed must outlive the call; it is shared
/// read-only across lane threads. The reference lane (index 0) always
/// completes its generation, so RaceResult.Lanes[0].P.Stats carries the
/// single-lane literal count even when another lane wins first.
RaceResult race(const History &Observed, const PredictOptions &Base,
                const std::vector<LaneSpec> &Lanes, const Validator &Validate);

} // namespace portfolio
} // namespace isopredict

#endif // ISOPREDICT_PORTFOLIO_PORTFOLIO_H
