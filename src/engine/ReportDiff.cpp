//===- ReportDiff.cpp - Campaign-report comparison ------------------------===//

#include "engine/ReportDiff.h"

#include "smt/Smt.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <cstdlib>
#include <map>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

//===----------------------------------------------------------------------===
// Job matching and classification
//===----------------------------------------------------------------------===

std::string scalarField(const JsonValue &Job, const char *Name) {
  const JsonValue *F = Job.field(Name);
  return F ? F->scalar() : std::string();
}

/// Identity key of one job: everything that determines its outcome.
/// Built from the fields *relevant to the job's kind* — not the fields
/// present in the entry — because schema 2 serializes the complete
/// spec while schema 1 emitted only kind-relevant fields, and the
/// fallback key must match across both.
std::string jobKey(const JsonValue &Job) {
  std::string Kind = scalarField(Job, "kind");
  std::string Key = Kind + "|" + scalarField(Job, "app") + "|" +
                    scalarField(Job, "workload") + "|seed=" +
                    scalarField(Job, "seed");
  auto append = [&](const char *F) {
    std::string V = scalarField(Job, F);
    if (!V.empty())
      Key += "|" + V;
  };
  if (Kind == "predict" || Kind == "random-weak")
    append("level");
  if (Kind == "predict") {
    append("strategy");
    append("pco");
  }
  if (Kind == "random-weak" || Kind == "locking-rc")
    append("store_seed");
  return Key;
}

/// Ranks a predict result for regression direction: losing a prediction
/// (sat → anything) or losing a verdict (unsat → unknown) regresses.
int resultRank(const std::string &R) {
  switch (smtResultFromString(R).value_or(SmtResult::Unknown)) {
  case SmtResult::Sat:
    return 2;
  case SmtResult::Unsat:
    return 1;
  case SmtResult::Unknown:
    return 0;
  }
  return 0;
}

void compareJobs(const std::string &Key, const JsonValue &A,
                 const JsonValue &B, std::vector<JobDelta> &Out) {
  auto emit = [&](const char *Field, const std::string &Before,
                  const std::string &After, bool Regression) {
    Out.push_back({Key, Field, Before, After, Regression});
  };

  std::string OkA = scalarField(A, "ok"), OkB = scalarField(B, "ok");
  if (OkA != OkB) {
    emit("ok", OkA, OkB, OkB == "false");
    return; // Nothing else is comparable when one side failed to run.
  }

  std::string ResA = scalarField(A, "result"), ResB = scalarField(B, "result");
  if (ResA != ResB)
    emit("result", ResA, ResB, resultRank(ResB) < resultRank(ResA));

  std::string ValA = scalarField(A, "validation"),
              ValB = scalarField(B, "validation");
  if (ValA != ValB)
    emit("validation", ValA, ValB,
         ValA == "validated-unserializable" &&
             ValB != "validated-unserializable");

  std::string SerA = scalarField(A, "serializability"),
              SerB = scalarField(B, "serializability");
  if (SerA != SerB)
    emit("serializability", SerA, SerB,
         SerA == "unserializable" && SerB != "unserializable");

  std::string AsA = scalarField(A, "assertion_failed"),
              AsB = scalarField(B, "assertion_failed");
  if (AsA != AsB)
    emit("assertion_failed", AsA, AsB,
         /*a found bug disappeared=*/AsA == "true" && AsB == "false");

  std::string LitA = scalarField(A, "literals"),
              LitB = scalarField(B, "literals");
  if (LitA != LitB)
    emit("literals", LitA, LitB, /*informational*/ false);
}

} // namespace

std::optional<ReportDiffResult>
isopredict::engine::diffReports(const std::string &JsonA,
                                const std::string &JsonB,
                                std::string *Error, bool MatchByKey) {
  auto parse = [&](const std::string &Src,
                   const char *Which) -> std::optional<JsonValue> {
    std::optional<JsonValue> Doc = parseJson(Src, Error);
    if (!Doc) {
      if (Error)
        *Error = std::string(Which) + ": " + *Error;
      return std::nullopt;
    }
    const JsonValue *Jobs = Doc->field("jobs");
    if (!Jobs || Jobs->K != JsonValue::Kind::Array) {
      if (Error)
        *Error = std::string(Which) + ": not a campaign report (no jobs[])";
      return std::nullopt;
    }
    return Doc;
  };

  // Both documents stay alive for the whole diff; the indexes point
  // into them.
  std::optional<JsonValue> DocA = parse(JsonA, "report A");
  if (!DocA)
    return std::nullopt;
  std::optional<JsonValue> DocB = parse(JsonB, "report B");
  if (!DocB)
    return std::nullopt;

  // Match on the stable spec hash when *both* reports carry one on
  // every job (reports from before the field fall back to the
  // reconstructed identity key). The hash is the ground-truth identity
  // — one FNV-1a over the full canonical JobSpec — so hash matching
  // also distinguishes specs whose reconstructed keys would collide
  // (e.g. jobs differing only in a field jobKey omits).
  auto allHashed = [](const JsonValue &Doc) {
    for (const JsonValue &Job : Doc.field("jobs")->Items)
      if (scalarField(Job, "spec_hash").empty())
        return false;
    return true;
  };
  bool ByHash = !MatchByKey && allHashed(*DocA) && allHashed(*DocB);

  auto index = [&](const JsonValue &Doc) {
    std::map<std::string, const JsonValue *> Index;
    for (const JsonValue &Job : Doc.field("jobs")->Items)
      Index.emplace(ByHash ? scalarField(Job, "spec_hash") : jobKey(Job),
                    &Job);
    return Index;
  };
  std::map<std::string, const JsonValue *> IndexA = index(*DocA);
  std::map<std::string, const JsonValue *> IndexB = index(*DocB);

  ReportDiffResult R;
  // Tolerated to be absent (reports from before the tool_version
  // field): comparison proceeds either way, the stamps are only
  // surfaced for context.
  R.ToolVersionA = scalarField(*DocA, "tool_version");
  R.ToolVersionB = scalarField(*DocB, "tool_version");
  for (const auto &[Key, JobA] : IndexA) {
    auto It = IndexB.find(Key);
    if (It == IndexB.end()) {
      R.OnlyInA.push_back(jobKey(*JobA)); // human-readable identity
      continue;
    }
    ++R.MatchedJobs;
    compareJobs(jobKey(*JobA), *JobA, *It->second, R.Deltas);
  }
  for (const auto &[Key, JobB] : IndexB) {
    if (!IndexA.count(Key))
      R.OnlyInB.push_back(jobKey(*JobB));
  }
  return R;
}
