//===- Protocol.h - Wire protocol of the prediction service ---*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol isopredict_server speaks. One
/// request per line, one response per line; requests are independent
/// and responses carry the request's "id", so a client may pipeline —
/// query responses stream back in *completion* order.
///
/// Requests: {"id": N, "verb": "...", ...verb fields...}
///
///   ping                                     liveness probe
///   auth      tenant, api_key                bind the connection to a tenant
///   upload    name, trace                    register a history (TraceIO text)
///   observe   app, workload|sessions/txns,   run a serializable observed
///             seed [, name]                  execution server-side; "name"
///                                            registers the history; at most
///                                            MaxObserveTxns transactions
///   extend    name, trace                    append a headerless trace delta
///                                            (TraceIO parseTraceDelta) to a
///                                            registered history; warm pooled
///                                            sessions grow in place
///                                            (PredictSession::extend) and are
///                                            re-keyed under the new content
///                                            hash
///   query     spec | history+level/strategy  one prediction job (see below)
///   status    —                              server/tenant/latency/metrics
///                                            snapshot (rolling p50/p95/p99
///                                            per verb and tenant)
///   metrics   [format]                       metrics exposition: "prometheus"
///                                            (default; text format under
///                                            "exposition") or "json" (the
///                                            status "metrics" block alone)
///   shutdown  —                              drain and exit (admin tenants)
///
/// A query carries either a full engine JobSpec under "spec" — the
/// JobIo wire format; with "spec_hash" it is verified exactly, without
/// it missing fields take JobSpec defaults — or "history": a name
/// registered by upload/observe, plus level/strategy/pco/timeout_ms
/// fields. Responses to ok queries embed the complete job entry
/// (JobIo::writeJobFields, timings included) under "job", so a client
/// can reconstruct engine::JobResults and build a campaign report that
/// report_diff compares against a batch run.
///
/// Responses: {"id": N, "ok": true, "verb": "...", ...}
///        or  {"id": N, "ok": false, "error": {"code": "...",
///             "message": "..."}}
///
/// Error codes are a stable surface (README "Serving"): bad_request,
/// too_large, unknown_verb, auth_failed, auth_required, not_authorized,
/// unknown_application, unknown_history, quota_exceeded, shutting_down,
/// internal.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_SERVER_PROTOCOL_H
#define ISOPREDICT_SERVER_PROTOCOL_H

#include "engine/Campaign.h"
#include "support/Json.h"

#include <optional>
#include <string>

namespace isopredict {
namespace server {

/// Hard ceilings on request documents (support/Json JsonParseLimits):
/// an upload carrying a few-thousand-transaction trace fits comfortably;
/// hostile payloads bounce with too_large / bad_request.
constexpr size_t MaxRequestBytes = 8u << 20;
constexpr unsigned MaxRequestDepth = 32;
/// Ceiling on an observe request's sessions × txns_per_session (larger
/// shapes answer too_large without running). The daemon runs observe
/// inline and answers with the whole trace, which grows faster than the
/// shape: voter 16×256 took 5.5 s and answered 385 MB. At 512 the
/// largest trace of any bundled app is voter's 1×512 (512×1 alike):
/// 5.73 MB, a 5.99 MB response, under MaxRequestBytes, so the trace can
/// be uploaded back.
constexpr uint64_t MaxObserveTxns = 512;

//===----------------------------------------------------------------------===
// Error codes
//===----------------------------------------------------------------------===

namespace errc {
constexpr const char *BadRequest = "bad_request";
constexpr const char *TooLarge = "too_large";
constexpr const char *UnknownVerb = "unknown_verb";
constexpr const char *AuthFailed = "auth_failed";
constexpr const char *AuthRequired = "auth_required";
constexpr const char *NotAuthorized = "not_authorized";
constexpr const char *UnknownApplication = "unknown_application";
constexpr const char *UnknownHistory = "unknown_history";
constexpr const char *QuotaExceeded = "quota_exceeded";
constexpr const char *ShuttingDown = "shutting_down";
constexpr const char *Internal = "internal";
} // namespace errc

//===----------------------------------------------------------------------===
// Requests
//===----------------------------------------------------------------------===

/// One parsed request line: the id/verb envelope plus the raw object
/// for verb-specific field access.
struct Request {
  bool HasId = false;
  uint64_t Id = 0;
  std::string Verb;
  JsonValue Body;
};

/// Parses one request line. std::nullopt (and a diagnostic in \p Error)
/// on malformed JSON, a non-object document, a missing/ill-typed verb,
/// or a document exceeding the limits above.
std::optional<Request> parseRequest(const std::string &Line,
                                    std::string *Error);

/// Parses the "spec" object of a query. With a "spec_hash" member it is
/// the exact JobIo form (engine::jobSpecFromJson — hash verified);
/// without one it is the lenient hand-written form: "app" required,
/// everything else (kind, workload "SxT" or sessions/txns_per_session,
/// seed, level, strategy, pco, store_seed, timeout_ms, validate,
/// check_serializability, prune) defaulting as JobSpec does.
std::optional<engine::JobSpec> parseQuerySpec(const JsonValue &Spec,
                                              std::string *Error);

/// Parses the per-query option fields of \p Obj — level, strategy,
/// pco, timeout_ms, prune — into \p S, leaving absent fields at their
/// current values. Shared by parseQuerySpec and the history-query form
/// (where those fields sit at the request's top level).
bool parseQueryOptions(const JsonValue &Obj, engine::JobSpec &S,
                       std::string *Error);

//===----------------------------------------------------------------------===
// Responses
//===----------------------------------------------------------------------===

/// Opens a response object and emits the envelope ("id" when the
/// request carried one, then "ok"/"verb"). The caller appends verb
/// fields and calls closeObject()/take().
void beginResponse(JsonWriter &J, const Request &Req, bool Ok);

/// A complete error-response line (trailing newline included).
std::string errorResponse(const Request &Req, const char *Code,
                          const std::string &Message);

/// An error-response line for input that never parsed into a Request
/// (no id to echo).
std::string errorResponseNoId(const char *Code, const std::string &Message);

} // namespace server
} // namespace isopredict

#endif // ISOPREDICT_SERVER_PROTOCOL_H
