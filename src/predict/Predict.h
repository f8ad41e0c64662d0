//===- Predict.h - IsoPredict predictive analysis -------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution (§4, Appendix B): given an observed
/// execution history, generate SMT constraints whose satisfying models
/// are feasible, *unserializable* execution prefixes valid under a weak
/// isolation level (causal or rc), and extract one if it exists.
///
/// Prediction strategies (Table 2):
///  - ExactStrict:   exact unserializability (∀co. ¬IsSerializable(co)),
///                   strict prediction boundary.
///  - ApproxStrict:  sufficient condition via a cyclic pco with
///                   rank-based well-foundedness, strict boundary.
///  - ApproxRelaxed: same encoding, relaxed boundary (excludes whole
///                   transactions, so more predictions but divergence may
///                   cause false predictions).
///
/// The prediction boundary (§4.5): each session gets a boundary event —
/// either a read observing a different writer than in the observed
/// execution, or the session's last event (encoded as "infinity"). Reads
/// strictly before the boundary keep their observed writer; events after
/// the *cut* (the boundary read itself under strict; the end of its
/// transaction under relaxed) are excluded from the predicted history.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_PREDICT_PREDICT_H
#define ISOPREDICT_PREDICT_PREDICT_H

#include "checker/Checkers.h"
#include "history/History.h"
#include "smt/Smt.h"

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace isopredict {

enum class Strategy { ExactStrict, ApproxStrict, ApproxRelaxed };

const char *toString(Strategy S);

/// Parses a strategy name: the CLI short forms ("exact", "strict",
/// "relaxed") and the canonical toString spellings, ASCII
/// case-insensitively. std::nullopt on anything else.
std::optional<Strategy> strategyFromString(std::string_view Name);

/// The short spellings strategyFromString accepts, for CLI error lists.
const char *strategyValidNames(); // "exact, strict, relaxed"

/// How the approximate strategies realize the "minimal relation"
/// requirement on pco (§4.2.2).
enum class PcoEncoding {
  /// The paper's encoding, and the only one: free relation variables
  /// guarded by integer `rank` terms that forbid self-justifying edges
  /// (§4.2.2, Fig. 6). Complete for any derivation depth. The enum stays
  /// because job specs, reports, and spec hashes name it ("pco=rank").
  Rank,
};

const char *toString(PcoEncoding E);

/// Parses a pco-encoding name ("rank", ASCII case-insensitively).
/// std::nullopt on anything else.
std::optional<PcoEncoding> pcoEncodingFromString(std::string_view Name);

/// The spellings pcoEncodingFromString accepts, for error messages.
const char *pcoEncodingValidNames(); // "rank"

struct PredictOptions {
  IsolationLevel Level = IsolationLevel::Causal;
  Strategy Strat = Strategy::ApproxRelaxed;
  /// Per-query solver timeout; 0 = none (the paper used 24 hours).
  unsigned TimeoutMs = 0;
  /// Ablation knob: include anti-dependency (rw) edges in pco (§4.2.2,
  /// Fig. 5). Disabling loses predictions; used by bench/ablation_rw.
  bool EnableRw = true;
  /// pco realization for the approximate strategies; see PcoEncoding.
  PcoEncoding Pco = PcoEncoding::Rank;
  /// Bench-only: build and assert the constraint system but skip the
  /// solver query (Result stays Unknown). Lets bench/micro_encoding
  /// measure constraint generation in isolation.
  bool GenerateOnly = false;
  /// Which relevance plan the encoding reads (src/encode/Prune.h). On
  /// (the default): the relevance analysis over the observed history —
  /// wr/hb pairs outside the skeleton become constant false and
  /// single-writer reads lose their choice atoms, and the passes fold
  /// the constants out of their terms. Off: the identity plan, which
  /// substitutes only the observed session order. Both are
  /// sat/unsat-equivalent (validated against the golden fixtures with
  /// replay-validated Sat models) but not bit-identical: models,
  /// witnesses, and literal counts differ. Data, not a code path: the
  /// passes have one body either way.
  bool PruneFormula = true;
  /// Extra Z3 solver parameters applied after solver creation
  /// (name = value, via SmtSolver::setOption). Portfolio lanes use these
  /// for sat/unsat-preserving heuristic presets ("smt.arith.solver",
  /// "smt.random_seed", ...); they never change the encoded formula, so
  /// they are not part of the canonical job spec.
  std::vector<std::pair<std::string, std::string>> SolverParams;
};

/// Literals emitted and wall-clock spent by one encoding pass (the
/// pipeline stages of src/encode/).
struct PassStats {
  std::string Name;
  uint64_t Literals = 0;
  double Seconds = 0;
};

/// Sizing and timing of one predictive-analysis query (the paper's
/// # Literals / constraint-generation / solving-time columns).
struct EncodingStats {
  uint64_t NumLiterals = 0;
  double GenSeconds = 0;
  double SolveSeconds = 0;
  /// True when this query ran on a PredictSession whose base prefix was
  /// already on the solver: those literals were not re-emitted, so
  /// NumLiterals/GenSeconds/Passes cover only the per-query passes.
  /// False for one-shot queries and for the session query that paid
  /// for the base (its stats include the base passes).
  bool BasePrefixReused = false;
  /// Per-pass attribution, in pipeline order; literals sum to
  /// NumLiterals and seconds sum to (just under) GenSeconds.
  std::vector<PassStats> Passes;
};

/// Outcome of a prediction query.
struct Prediction {
  SmtResult Result = SmtResult::Unknown;
  EncodingStats Stats;
  /// True when Result == Unknown because the solver hit the TimeoutMs
  /// budget (Z3's reason-unknown says timeout/canceled, or the solve
  /// time reached the budget) — distinguishing "ran out of time" from a
  /// genuine incompleteness unknown. Always false for decided results.
  bool TimedOut = false;
  /// True when Result == Unknown because *we* interrupted the solve
  /// (SmtSolver::interrupt — a losing portfolio lane), never because of
  /// a timeout or incompleteness. Mutually exclusive with TimedOut: a
  /// canceled query does not count against solver.timeouts, and a
  /// canceled lane must never surface as a job's outcome.
  bool Canceled = false;
  /// Z3 search statistics for this query's check() (Collected == false
  /// when the query skipped the solver, i.e. GenerateOnly).
  SolverStatistics SolverStats;

  // The fields below are meaningful only when Result == Sat.

  /// The predicted execution prefix: the observed transactions with
  /// events beyond each session's cut removed and the included reads'
  /// writers replaced by the predicted choice. Transaction ids equal the
  /// observed history's ids.
  History Predicted;
  /// Per-session boundary read position (InfPos when the session did not
  /// diverge).
  std::vector<uint32_t> BoundaryPos;
  /// Per-session cut: last included event position (InfPos = everything).
  std::vector<uint32_t> CutPos;
  /// A pco cycle witnessing unserializability of the prediction, as
  /// transaction ids (empty for ExactStrict, where no explicit cycle is
  /// produced).
  std::vector<TxnId> Witness;
};

/// Runs IsoPredict's predictive analysis on \p Observed: one query on a
/// fresh PredictSession, encoding the same constraint system as
/// PredictSession::query() but asserting it at root solver scope (no
/// push/pop — Z3 keeps its non-incremental solver, which decides more
/// one-shot queries within a budget).
Prediction predict(const History &Observed, const PredictOptions &Opts);

} // namespace isopredict

#endif // ISOPREDICT_PREDICT_PREDICT_H
