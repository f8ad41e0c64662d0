//===- JobIo.h - JobSpec / JobResult JSON round-trip ----------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON wire format of one campaign job, shared by every document
/// that carries jobs: the "jobs" array of Report::toJson, shard
/// campaign files (src/cache/Shard.h), and result-cache entries
/// (src/cache/ResultStore.h).
///
/// The writer and parser are exact inverses for all
/// outcome-determining fields: parsing a job entry and re-emitting it
/// reproduces the original bytes (timing fields included when the
/// entry carried them). Since schema 2 every entry serializes the
/// *complete* JobSpec — including fields irrelevant to the job's kind
/// — so a parsed spec re-hashes (engine::specHash) to exactly the
/// recorded spec_hash. That is the property the cache and the shard
/// merger stand on: a JobResult reconstructed from JSON is
/// indistinguishable from one the engine just computed, and a merged
/// shard report is byte-identical to an unsharded run.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_JOBIO_H
#define ISOPREDICT_ENGINE_JOBIO_H

#include "engine/Report.h"
#include "support/Json.h"

#include <optional>
#include <string_view>

namespace isopredict {
namespace engine {

/// Human/JSON label for a workload shape ("3x4", "3x8", ...).
std::string workloadLabel(const WorkloadConfig &Cfg);

/// Inverse of workloadLabel, plus the named shapes: "small" (3x4),
/// "large" (3x8) or "<sessions>x<txns>" with both in [1, UINT_MAX],
/// ASCII case-insensitively, with workload seed \p Seed. std::nullopt
/// on anything else.
std::optional<WorkloadConfig> workloadFromLabel(std::string_view Label,
                                                uint64_t Seed);

/// Emits every JobSpec field (plus the derived spec_hash and workload
/// label) into the currently open JSON object.
void writeJobSpecFields(JsonWriter &J, const JobSpec &S);

/// Emits one job entry's fields — spec (writeJobSpecFields) followed by
/// the outcome — into the currently open JSON object. The "jobs" array
/// element format of Report::toJson, minus the positional "index".
void writeJobFields(JsonWriter &J, const JobResult &R,
                    const ReportOptions &Opts);

/// Parses the spec fields of a job object back into a JobSpec. Exact
/// inverse of writeJobSpecFields; the recorded spec_hash is verified
/// against the reconstructed spec. Returns std::nullopt (and sets
/// \p Error when non-null) on missing/ill-typed fields or a hash
/// mismatch (an entry written by an incompatible serialization).
std::optional<JobSpec> jobSpecFromJson(const JsonValue &Obj,
                                       std::string *Error = nullptr);

/// Parses a full job entry (spec + outcome, timing fields when present)
/// back into a JobResult. Exact inverse of writeJobFields.
std::optional<JobResult> jobResultFromJson(const JsonValue &Obj,
                                           std::string *Error = nullptr);

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_JOBIO_H
