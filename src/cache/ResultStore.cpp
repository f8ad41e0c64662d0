//===- ResultStore.cpp - Persistent job-result cache ----------------------===//

#include "cache/ResultStore.h"

#include "engine/JobIo.h"
#include "obs/Metrics.h"
#include "support/Fs.h"
#include "support/Json.h"
#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::cache;
using namespace isopredict::engine;

namespace {

constexpr const char *EntrySchema = "isopredict-cache-entry/1";

const char *modeName(EncodingMode M) {
  switch (M) {
  case EncodingMode::Session:
    return "session";
  case EncodingMode::OneShot:
    break;
  }
  return "one-shot";
}

/// Tallies entries that existed on disk but could not be served —
/// damaged JSON, wrong schema/version, mode mismatch, spec-hash
/// collision. Distinct from a plain miss (no file): a rising
/// corrupt count on a warm cache points at a damaged or cross-version
/// cache directory.
void countUnusableEntry() {
  static obs::Counter &Corrupt =
      obs::Metrics::global().counter("cache.corrupt");
  Corrupt.inc();
}

} // namespace

EncodingMode isopredict::cache::encodingModeFor(const JobSpec &S,
                                                bool BySession) {
  return S.Kind == JobKind::Predict && BySession ? EncodingMode::Session
                                                 : EncodingMode::OneShot;
}

bool isopredict::cache::cacheable(const JobResult &R) {
  if (!R.Ok || R.Canceled)
    return false; // Failed, or cut short by an interrupt: not the spec's.
  const JobSpec &S = R.Spec;
  if (S.Kind == JobKind::Predict) {
    if (R.Outcome == SmtResult::Unknown)
      return false; // Solver timeout: a longer run may still decide it.
    // A Sat prediction whose validation check timed out is equally
    // transient — the replay's serializability query gave up.
    if (S.Validate && R.Outcome == SmtResult::Sat &&
        R.ValStatus == ValidationResult::Status::Unknown)
      return false;
  }
  if (S.Kind == JobKind::RandomWeak && S.CheckSerializability &&
      R.Serializability == SerResult::Unknown)
    return false;
  return true;
}

ResultStore::ResultStore(std::string RootDir) : Root(std::move(RootDir)) {}

std::string ResultStore::entryPath(const JobSpec &S,
                                   EncodingMode Mode) const {
  const char *Suffix = Mode == EncodingMode::Session ? ".session" : "";
  return pathJoin(
      pathJoin(Root, toolVersion()),
      formatString("%016llx%s.json",
                   static_cast<unsigned long long>(specHash(S)), Suffix));
}

namespace {

/// The integrity gauntlet over one entry's raw bytes; std::nullopt on
/// any rejection (the caller has already established the file exists).
std::optional<JobResult> parseEntry(const std::string &Raw, const JobSpec &S,
                                    EncodingMode Mode) {
  std::optional<JsonValue> Doc = parseJson(Raw);
  if (!Doc || Doc->K != JsonValue::Kind::Object)
    return std::nullopt;

  // Version pinning is defense in depth: the directory name already
  // namespaces versions, but an entry copied across directories (or a
  // future layout change) must still never cross versions.
  const JsonValue *Schema = Doc->field("schema");
  const JsonValue *Version = Doc->field("tool_version");
  if (!Schema || Schema->Text != EntrySchema || !Version ||
      Version->Text != toolVersion())
    return std::nullopt;

  // Same-mode only: a session-encoded Predict result has different
  // default-report bytes (literals, base_prefix_reused) than a
  // one-shot one, so serving it into the other mode would fabricate
  // reports no cache-off run of that mode could write. Fields this
  // reader does not know are ignored.
  const JsonValue *Encoding = Doc->field("encoding_mode");
  if (!Encoding || Encoding->Text != modeName(Mode))
    return std::nullopt;

  // The entry must be *for this spec*, not merely for this hash:
  // canonicalSpec comparison rejects FNV-1a collisions and corrupt
  // spec fields in one check.
  const JsonValue *Canonical = Doc->field("canonical_spec");
  if (!Canonical || Canonical->Text != canonicalSpec(S))
    return std::nullopt;

  const JsonValue *Job = Doc->field("job");
  if (!Job || Job->K != JsonValue::Kind::Object)
    return std::nullopt;
  std::optional<JobResult> R = jobResultFromJson(*Job);
  if (!R || canonicalSpec(R->Spec) != canonicalSpec(S))
    return std::nullopt;
  R->CacheHit = true;
  return R;
}

} // namespace

std::optional<JobResult> ResultStore::lookup(const JobSpec &S,
                                             EncodingMode Mode) const {
  std::string Raw;
  if (!readFile(entryPath(S, Mode), Raw))
    return std::nullopt; // Plain miss: nothing on disk for this spec.
  std::optional<JobResult> R = parseEntry(Raw, S, Mode);
  if (!R)
    countUnusableEntry();
  return R;
}

std::optional<std::vector<JobResult>>
ResultStore::lookupGroup(const Campaign &C,
                         const std::vector<size_t> &Indices) const {
  std::vector<JobResult> Hits;
  Hits.reserve(Indices.size());
  for (size_t I : Indices) {
    std::optional<JobResult> Hit = lookup(C.Jobs[I]);
    if (!Hit)
      return std::nullopt;
    Hits.push_back(std::move(*Hit));
  }
  return Hits;
}

bool ResultStore::store(const JobResult &R, EncodingMode Mode,
                        std::string *Error) const {
  if (!createDirectories(pathJoin(Root, toolVersion()), Error))
    return false;

  JsonWriter J;
  J.openObject();
  J.str("schema", EntrySchema);
  J.str("tool_version", toolVersion());
  J.str("encoding_mode", modeName(Mode));
  J.str("canonical_spec", canonicalSpec(R.Spec));
  J.openObjectIn("job");
  ReportOptions Opts;
  Opts.IncludeTimings = true; // Preserve the original compute cost.
  writeJobFields(J, R, Opts);
  J.closeObject();
  J.closeObject();

  return writeFileAtomic(entryPath(R.Spec, Mode), J.take(), Error);
}
