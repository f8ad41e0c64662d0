//===- Protocol.cpp - Wire protocol of the prediction service -------------===//

#include "server/Protocol.h"

#include "checker/Checkers.h"
#include "engine/JobIo.h"
#include "support/StrUtil.h"

#include <limits>

using namespace isopredict;
using namespace isopredict::server;
using engine::JobSpec;

std::optional<Request> server::parseRequest(const std::string &Line,
                                            std::string *Error) {
  JsonParseLimits Limits;
  Limits.MaxBytes = MaxRequestBytes;
  Limits.MaxDepth = MaxRequestDepth;
  std::optional<JsonValue> V = parseJson(Line, Limits, Error);
  if (!V)
    return std::nullopt;
  if (V->K != JsonValue::Kind::Object) {
    if (Error)
      *Error = "request must be a JSON object";
    return std::nullopt;
  }
  Request R;
  R.Body = std::move(*V);
  if (const JsonValue *Id = R.Body.field("id")) {
    if (Id->K == JsonValue::Kind::Number) {
      if (std::optional<int64_t> N = parseInt(Id->Text); N && *N >= 0) {
        R.HasId = true;
        R.Id = static_cast<uint64_t>(*N);
      }
    }
  }
  const JsonValue *Verb = R.Body.field("verb");
  if (!Verb || Verb->K != JsonValue::Kind::String || Verb->Text.empty()) {
    if (Error)
      *Error = "missing string field \"verb\"";
    return std::nullopt;
  }
  R.Verb = Verb->Text;
  return R;
}

namespace {

/// Reads an unsigned integer member; absent leaves \p Out untouched,
/// present-but-ill-typed fails.
bool readUint(const JsonValue &Obj, const char *Name, uint64_t &Out,
              std::string *Error) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return true;
  std::optional<int64_t> N =
      F->K == JsonValue::Kind::Number ? parseInt(F->Text) : std::nullopt;
  if (!N || *N < 0) {
    if (Error)
      *Error = formatString("field \"%s\" must be a non-negative integer",
                            Name);
    return false;
  }
  Out = static_cast<uint64_t>(*N);
  return true;
}

/// readUint for spec fields stored as `unsigned`: a larger value would
/// wrap ("timeout_ms": 2^32 into 0, "no timeout") into a different spec.
bool readUnsigned(const JsonValue &Obj, const char *Name, unsigned &Out,
                  std::string *Error) {
  uint64_t V = Out;
  if (!readUint(Obj, Name, V, Error))
    return false;
  if (V > std::numeric_limits<unsigned>::max()) {
    if (Error)
      *Error = formatString("field \"%s\" must be at most %u", Name,
                            std::numeric_limits<unsigned>::max());
    return false;
  }
  Out = static_cast<unsigned>(V);
  return true;
}

bool readBool(const JsonValue &Obj, const char *Name, bool &Out,
              std::string *Error) {
  const JsonValue *F = Obj.field(Name);
  if (!F)
    return true;
  if (F->K != JsonValue::Kind::Bool) {
    if (Error)
      *Error = formatString("field \"%s\" must be a boolean", Name);
    return false;
  }
  Out = F->B;
  return true;
}

} // namespace

std::optional<JobSpec> server::parseQuerySpec(const JsonValue &Spec,
                                              std::string *Error) {
  if (Spec.K != JsonValue::Kind::Object) {
    if (Error)
      *Error = "\"spec\" must be a JSON object";
    return std::nullopt;
  }
  // The exact JobIo wire form is self-certifying via its spec_hash;
  // everything else is the lenient hand-written form.
  if (Spec.field("spec_hash"))
    return engine::jobSpecFromJson(Spec, Error);

  JobSpec S;
  const JsonValue *App = Spec.field("app");
  if (!App || App->K != JsonValue::Kind::String || App->Text.empty()) {
    if (Error)
      *Error = "spec missing string field \"app\"";
    return std::nullopt;
  }
  S.App = App->Text;

  if (const JsonValue *Kind = Spec.field("kind")) {
    std::optional<engine::JobKind> K = engine::jobKindFromString(Kind->Text);
    if (!K) {
      if (Error)
        *Error = "unknown job kind '" + Kind->Text + "'";
      return std::nullopt;
    }
    S.Kind = *K;
  }

  if (const JsonValue *W = Spec.field("workload")) {
    std::string Label = toLowerAscii(W->Text);
    if (Label == "small") {
      S.Cfg = WorkloadConfig::small(S.Cfg.Seed);
    } else if (Label == "large") {
      S.Cfg = WorkloadConfig::large(S.Cfg.Seed);
    } else {
      // "SxT" — the label workloadLabel() emits.
      std::vector<std::string_view> Parts = splitString(Label, 'x');
      std::optional<int64_t> Sess, Txns;
      if (Parts.size() == 2) {
        Sess = parseInt(Parts[0]);
        Txns = parseInt(Parts[1]);
      }
      constexpr int64_t Max = std::numeric_limits<unsigned>::max();
      if (!Sess || !Txns || *Sess <= 0 || *Txns <= 0 || *Sess > Max ||
          *Txns > Max) {
        if (Error)
          *Error = "field \"workload\" must be \"small\", \"large\" or "
                   "\"<sessions>x<txns>\"";
        return std::nullopt;
      }
      S.Cfg.Sessions = static_cast<unsigned>(*Sess);
      S.Cfg.TxnsPerSession = static_cast<unsigned>(*Txns);
    }
  }

  if (!readUnsigned(Spec, "sessions", S.Cfg.Sessions, Error) ||
      !readUnsigned(Spec, "txns_per_session", S.Cfg.TxnsPerSession, Error) ||
      !readUint(Spec, "seed", S.Cfg.Seed, Error) ||
      !readUint(Spec, "store_seed", S.StoreSeed, Error))
    return std::nullopt;

  if (!parseQueryOptions(Spec, S, Error))
    return std::nullopt;
  if (!readBool(Spec, "validate", S.Validate, Error) ||
      !readBool(Spec, "check_serializability", S.CheckSerializability,
                Error))
    return std::nullopt;
  return S;
}

bool server::parseQueryOptions(const JsonValue &Obj, JobSpec &S,
                               std::string *Error) {
  if (const JsonValue *L = Obj.field("level")) {
    std::optional<IsolationLevel> Level = isolationLevelFromString(L->Text);
    if (!Level) {
      if (Error)
        *Error = "unknown isolation level '" + L->Text + "'";
      return false;
    }
    S.Level = *Level;
  }
  if (const JsonValue *St = Obj.field("strategy")) {
    std::optional<Strategy> Strat = strategyFromString(St->Text);
    if (!Strat) {
      if (Error)
        *Error = "unknown strategy '" + St->Text + "'";
      return false;
    }
    S.Strat = *Strat;
  }
  if (const JsonValue *P = Obj.field("pco")) {
    std::optional<PcoEncoding> Pco = pcoEncodingFromString(P->Text);
    if (!Pco) {
      if (Error)
        *Error = "unknown pco encoding '" + P->Text +
                 "' (field \"pco\"; accepted: " + pcoEncodingValidNames() +
                 ")";
      return false;
    }
    S.Pco = *Pco;
  }
  if (!readUnsigned(Obj, "timeout_ms", S.TimeoutMs, Error))
    return false;
  return readBool(Obj, "prune", S.Prune, Error);
}

void server::beginResponse(JsonWriter &J, const Request &Req, bool Ok) {
  J.openObject();
  if (Req.HasId)
    J.num("id", Req.Id);
  J.boolean("ok", Ok);
  if (!Req.Verb.empty())
    J.str("verb", Req.Verb);
}

std::string server::errorResponse(const Request &Req, const char *Code,
                                  const std::string &Message) {
  JsonWriter J(JsonWriter::Style::Compact);
  beginResponse(J, Req, false);
  J.openObjectIn("error");
  J.str("code", Code);
  J.str("message", Message);
  J.closeObject();
  J.closeObject();
  return J.take();
}

std::string server::errorResponseNoId(const char *Code,
                                      const std::string &Message) {
  Request Empty;
  return errorResponse(Empty, Code, Message);
}
