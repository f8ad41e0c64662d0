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
/// An Approx query is answered exact-first: the exact formula under the
/// query's boundary mode decides it when it is unsat, or sat with a pco
/// cycle in the predicted history (the cycle is the witness); the rank
/// encoding runs only when that stage cannot settle the answer (see
/// PredictSession::runQuery). The answer is the rank encoding's; the
/// model and witness are those of the stage that settled it. Under the
/// strict boundary that exact stage is the Exact-Strict formula itself,
/// so a caller holding the Exact-Strict answer on the same history can
/// hand it to the Approx-Strict query instead of solving it twice (see
/// predict()'s \p ExactStage).
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
  /// Fig. 5). Disabling loses predictions (the rw ablation,
  /// end2end_test `Headline.DisablingRwOnlyLosesPredictions`).
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
  /// Literals of the formula the query solves first (for an Approx
  /// query, its exact stage). Whether the rank-encoding fallback runs
  /// depends on that stage's answer, which a canceled query never
  /// learns, so its literals are counted apart: NumLiterals is the
  /// same however far a query got.
  uint64_t NumLiterals = 0;
  /// Literals of an Approx query's rank-encoding fallback scope (never
  /// the base prefix); 0 when it did not run.
  uint64_t FallbackLiterals = 0;
  double GenSeconds = 0;
  double SolveSeconds = 0;
  /// True when this query ran on a PredictSession whose base prefix was
  /// already on the solver: those literals were not re-emitted, so
  /// NumLiterals/GenSeconds/Passes cover only the per-query passes.
  /// False for one-shot queries and for the session query that paid
  /// for the base (its stats include the base passes).
  bool BasePrefixReused = false;
  /// Per-pass attribution, in pipeline order; literals sum to
  /// NumLiterals + FallbackLiterals and seconds sum to (just under)
  /// GenSeconds. A query whose exact stage was supplied (predict()'s
  /// \p ExactStage) lists only the passes it ran itself: none, or the
  /// base prefix and the fallback's scope (then they sum to the base
  /// plus FallbackLiterals).
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
  /// (SmtSolver::interruptAll on SIGINT or server shutdown), never
  /// because of a timeout or incompleteness. Mutually exclusive with
  /// TimedOut: a canceled query does not count against solver.timeouts,
  /// and is never cached (cache::cacheable).
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
  /// transaction ids: the cycle pcoCycle finds in Predicted when the
  /// exact stage settled an Approx query, the rank model's pco cycle
  /// when the fallback did. Empty for ExactStrict, where no explicit
  /// cycle is produced.
  std::vector<TxnId> Witness;
};

/// Runs IsoPredict's predictive analysis on \p Observed: the first
/// query of a fresh PredictSession, answered exactly as
/// PredictSession::query() answers it (same encoding, same solver
/// scopes, same model).
///
/// \p ExactStage, when non-null, says "this query's exact stage is
/// already solved": it must be the Exact-Strict answer of predict() on
/// the same \p Observed with the same Level, TimeoutMs and
/// PruneFormula, and \p Opts must ask for Approx-Strict (whose stage 1
/// is that formula). It must not be Canceled — a canceled stage says
/// nothing about the formula. The query then skips stage 1: unsat stays
/// unsat, a timeout stays a timeout, a sat is settled by pcoCycle, and
/// a sat without a cycle (always, under the rw ablation) falls back to
/// the rank encoding with the budget stage 1 left. The answer's default
/// report fields (Result, NumLiterals, Witness, Predicted) equal those
/// of the same query solved from scratch; GenSeconds, SolveSeconds,
/// Passes and SolverStats cover only what this query ran (nothing when
/// no fallback ran). Each use counts in predict.exact_stage_reuses.
Prediction predict(const History &Observed, const PredictOptions &Opts,
                   const Prediction *ExactStage = nullptr);

} // namespace isopredict

#endif // ISOPREDICT_PREDICT_PREDICT_H
