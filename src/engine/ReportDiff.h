//===- ReportDiff.h - Campaign-report comparison ---------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compares two campaign JSON reports (Report::toJson documents) job by
/// job and classifies the differences, flagging *outcome regressions* —
/// a prediction lost (sat → unsat/unknown), a validation downgraded
/// (validated → diverged/failed), a job that stopped running — so tests
/// and incremental re-runs can gate on them (ROADMAP "report diffing").
///
/// Jobs are matched on the stable `spec_hash` (engine::specHash's
/// FNV-1a over the canonical JobSpec) when both reports carry it on
/// every job; older reports fall back to a reconstructed identity key
/// (kind, app, workload, seed, level, strategy, pco, store seed). Both
/// cover the fields that make a JobSpec a pure function of its outcome,
/// so two reports produced from different campaign orderings still
/// diff correctly.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_REPORTDIFF_H
#define ISOPREDICT_ENGINE_REPORTDIFF_H

#include <optional>
#include <string>
#include <vector>

namespace isopredict {
namespace engine {

/// One field-level difference between matched jobs.
struct JobDelta {
  /// Human-readable job identity ("predict|smallbank|3x4|seed=1|causal|...").
  std::string Job;
  /// Field that changed ("result", "validation", "ok", ...).
  std::string Field;
  std::string Before, After;
  /// True when the change is a regression (see file comment), not a
  /// neutral or improving change.
  bool Regression = false;
};

/// Outcome of diffing two reports.
struct ReportDiffResult {
  std::vector<JobDelta> Deltas;
  unsigned MatchedJobs = 0;
  /// Jobs present in only one report (identity keys).
  std::vector<std::string> OnlyInA, OnlyInB;
  /// "tool_version" stamps of the two documents; empty for reports
  /// from before the field existed (schema 1). Purely informational —
  /// a mismatch never gates, but callers may want to surface that
  /// outcome changes across versions are expected.
  std::string ToolVersionA, ToolVersionB;

  bool hasRegressions() const {
    for (const JobDelta &D : Deltas)
      if (D.Regression)
        return true;
    return false;
  }
  unsigned numRegressions() const {
    unsigned R = 0;
    for (const JobDelta &D : Deltas)
      R += D.Regression;
    return R;
  }
};

/// Parses two campaign-report JSON documents and diffs their jobs.
/// Returns std::nullopt (and sets \p Error when non-null) when either
/// document is not a parseable campaign report.
///
/// \p MatchByKey forces the reconstructed identity-key matching even
/// when both reports carry spec hashes. That is the right mode for
/// comparing the same grid run under different *spec* knobs — e.g. the
/// identity plan (--no-prune) against default runs, whose hashes
/// differ by design (prune is part of the canonical spec) while their
/// identity keys, which deliberately omit encoding knobs, coincide.
std::optional<ReportDiffResult> diffReports(const std::string &JsonA,
                                            const std::string &JsonB,
                                            std::string *Error = nullptr,
                                            bool MatchByKey = false);

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_REPORTDIFF_H
