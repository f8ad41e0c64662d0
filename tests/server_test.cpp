//===- server_test.cpp - Prediction-service daemon tests ------*- C++ -*-===//
//
// Protocol parsing, tenant quotas and cache namespacing, the TaskPool,
// and the full daemon end-to-end over loopback sockets — including
// concurrent connections, cross-tenant isolation, and graceful shutdown.
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "TestUtil.h"
#include "cache/ResultStore.h"
#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "engine/TaskPool.h"
#include "history/TraceIO.h"
#include "obs/Log.h"
#include "obs/Tracer.h"
#include "store/Store.h"
#include "support/Fs.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <netinet/in.h>
#include <regex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace isopredict;
using namespace isopredict::server;
using engine::JobSpec;
using testutil::scratchDir;

namespace {

/// A small observed history for upload/session tests.
History observedHistory(uint64_t Seed) {
  auto App = makeApplication("voter");
  DataStore::Options SO;
  SO.Mode = StoreMode::SerialObserved;
  SO.Level = IsolationLevel::Serializable;
  SO.Seed = Seed;
  DataStore DS(SO);
  return WorkloadRunner::run(*App, DS, WorkloadConfig::small(Seed)).Hist;
}

//===----------------------------------------------------------------------===
// Protocol
//===----------------------------------------------------------------------===

TEST(Protocol, ParseRequestEnvelope) {
  std::string Error;
  std::optional<Request> R =
      parseRequest(R"({"id": 7, "verb": "ping"})", &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_TRUE(R->HasId);
  EXPECT_EQ(R->Id, 7u);
  EXPECT_EQ(R->Verb, "ping");

  // The id is optional; the verb is not.
  R = parseRequest(R"({"verb": "status"})", &Error);
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->HasId);

  EXPECT_FALSE(parseRequest("not json", &Error).has_value());
  EXPECT_FALSE(parseRequest("[1, 2]", &Error).has_value());
  EXPECT_FALSE(parseRequest(R"({"id": 1})", &Error).has_value());
  EXPECT_NE(Error.find("verb"), std::string::npos);
  EXPECT_FALSE(parseRequest(R"({"verb": 9})", &Error).has_value());
}

TEST(Protocol, ParseRequestAppliesJsonLimits) {
  // Nesting beyond MaxRequestDepth bounces instead of recursing.
  std::string Deep = R"({"verb": "query", "spec": )";
  Deep.append(MaxRequestDepth + 8, '[');
  Deep += "1";
  Deep.append(MaxRequestDepth + 8, ']');
  Deep += "}";
  std::string Error;
  EXPECT_FALSE(parseRequest(Deep, &Error).has_value());
  EXPECT_NE(Error.find("depth"), std::string::npos) << Error;
}

TEST(Protocol, ErrorResponsesAreWellFormedFrames) {
  Request Req;
  Req.HasId = true;
  Req.Id = 3;
  Req.Verb = "query";
  std::string Line = errorResponse(Req, errc::QuotaExceeded, "over quota");
  ASSERT_EQ(Line.back(), '\n');
  std::optional<JsonValue> V = parseJson(Line, nullptr);
  ASSERT_TRUE(V.has_value());
  EXPECT_FALSE(V->field("ok")->B);
  EXPECT_EQ(V->field("id")->Text, "3");
  EXPECT_EQ(V->field("error")->field("code")->Text, "quota_exceeded");
  EXPECT_EQ(V->field("error")->field("message")->Text, "over quota");
}

TEST(Protocol, LenientSpecFormFillsDefaults) {
  std::string Error;
  std::optional<JsonValue> Obj = parseJson(
      R"({"app": "voter", "workload": "small", "seed": 3,
          "level": "causal", "strategy": "relaxed", "timeout_ms": 1234})",
      &Error);
  ASSERT_TRUE(Obj.has_value());
  std::optional<JobSpec> S = parseQuerySpec(*Obj, &Error);
  ASSERT_TRUE(S.has_value()) << Error;
  EXPECT_EQ(S->App, "voter");
  EXPECT_EQ(S->Cfg.Sessions, 3u);
  EXPECT_EQ(S->Cfg.Seed, 3u);
  EXPECT_EQ(S->Level, IsolationLevel::Causal);
  EXPECT_EQ(S->Strat, Strategy::ApproxRelaxed);
  EXPECT_EQ(S->TimeoutMs, 1234u);

  // "SxT" workload labels round-trip.
  Obj = parseJson(R"({"app": "voter", "workload": "3x8"})", &Error);
  S = parseQuerySpec(*Obj, &Error);
  ASSERT_TRUE(S.has_value()) << Error;
  EXPECT_EQ(S->Cfg.TxnsPerSession, 8u);

  // Unknown enum values are rejected with a diagnostic.
  Obj = parseJson(R"({"app": "voter", "level": "dirty"})", &Error);
  EXPECT_FALSE(parseQuerySpec(*Obj, &Error).has_value());
  EXPECT_NE(Error.find("dirty"), std::string::npos);
}

// sessions, txns_per_session, timeout_ms and the "SxT" workload label
// land in `unsigned` spec fields. A value above UINT_MAX must be
// rejected: wrapped, "timeout_ms": 4294967296 would be 0 ("no
// timeout"), and the query would be answered, hashed and cached as
// that other spec.
TEST(Protocol, OutOfRangeUnsignedFieldsAreRejected) {
  std::string Error;
  for (const char *Field : {"sessions", "txns_per_session", "timeout_ms"}) {
    std::optional<JsonValue> Obj = parseJson(
        formatString(R"({"app": "voter", "%s": 4294967296})", Field),
        &Error);
    ASSERT_TRUE(Obj.has_value()) << Error;
    Error.clear();
    EXPECT_FALSE(parseQuerySpec(*Obj, &Error).has_value()) << Field;
    EXPECT_NE(Error.find(formatString("field \"%s\" must be at most "
                                      "4294967295",
                                      Field)),
              std::string::npos)
        << Error;
  }
  // History queries read timeout_ms through the query-options form.
  std::optional<JsonValue> Obj =
      parseJson(R"({"timeout_ms": 4294967296})", &Error);
  ASSERT_TRUE(Obj.has_value()) << Error;
  JobSpec S;
  EXPECT_FALSE(parseQueryOptions(*Obj, S, &Error));
  EXPECT_NE(Error.find("\"timeout_ms\""), std::string::npos) << Error;

  for (const char *Label : {"4294967299x4", "3x4294967300"}) {
    Obj = parseJson(
        formatString(R"({"app": "voter", "workload": "%s"})", Label), &Error);
    ASSERT_TRUE(Obj.has_value()) << Error;
    EXPECT_FALSE(parseQuerySpec(*Obj, &Error).has_value()) << Label;
    EXPECT_NE(Error.find("\"workload\""), std::string::npos) << Error;
  }

  // UINT_MAX itself is in range.
  Obj = parseJson(R"({"app": "voter", "timeout_ms": 4294967295})", &Error);
  ASSERT_TRUE(Obj.has_value()) << Error;
  std::optional<JobSpec> Max = parseQuerySpec(*Obj, &Error);
  ASSERT_TRUE(Max.has_value()) << Error;
  EXPECT_EQ(Max->TimeoutMs, 4294967295u);
}

TEST(Protocol, OnlyRankPcoIsAccepted) {
  // "rank" is the only pco encoding; the removed "layered" one bounces
  // with an error naming the field and the accepted spelling.
  std::string Error;
  std::optional<JsonValue> Obj =
      parseJson(R"({"app": "voter", "pco": "layered"})", &Error);
  ASSERT_TRUE(Obj.has_value());
  EXPECT_FALSE(parseQuerySpec(*Obj, &Error).has_value());
  EXPECT_NE(Error.find("'layered'"), std::string::npos) << Error;
  EXPECT_NE(Error.find("\"pco\""), std::string::npos) << Error;
  EXPECT_NE(Error.find("accepted: rank"), std::string::npos) << Error;

  // The query-options form (history queries) shares the check.
  JobSpec S;
  EXPECT_FALSE(parseQueryOptions(*Obj, S, &Error));
  EXPECT_NE(Error.find("accepted: rank"), std::string::npos) << Error;

  Obj = parseJson(R"({"app": "voter", "pco": "rank"})", &Error);
  ASSERT_TRUE(Obj.has_value());
  std::optional<JobSpec> Ok = parseQuerySpec(*Obj, &Error);
  ASSERT_TRUE(Ok.has_value()) << Error;
  EXPECT_EQ(Ok->Pco, PcoEncoding::Rank);
}

TEST(Protocol, StrictSpecFormRoundTripsThroughJobIo) {
  JobSpec S;
  S.Kind = engine::JobKind::Predict;
  S.App = "smallbank";
  S.Cfg = WorkloadConfig::small(2);
  S.Level = IsolationLevel::Causal;
  S.Strat = Strategy::ApproxRelaxed;
  S.TimeoutMs = 2500;

  JsonWriter J(JsonWriter::Style::Compact);
  J.openObject();
  engine::writeJobSpecFields(J, S);
  J.closeObject();
  std::string Error;
  std::optional<JsonValue> Obj = parseJson(J.take(), &Error);
  ASSERT_TRUE(Obj.has_value());
  std::optional<JobSpec> Back = parseQuerySpec(*Obj, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(engine::specHash(*Back), engine::specHash(S));
}

//===----------------------------------------------------------------------===
// TaskPool
//===----------------------------------------------------------------------===

TEST(TaskPool, ZeroThreadsRunsInline) {
  engine::TaskPool Pool(0);
  std::thread::id Caller = std::this_thread::get_id();
  std::atomic<int> Ran{0};
  Pool.submit([&] {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    ++Ran;
  });
  EXPECT_EQ(Ran.load(), 1);
  Pool.drain();
}

TEST(TaskPool, DrainWaitsForAllTasks) {
  engine::TaskPool Pool(4);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&] { ++Ran; });
  Pool.drain();
  EXPECT_EQ(Ran.load(), 64);
  // The pool is reusable after a drain.
  Pool.submit([&] { ++Ran; });
  Pool.drain();
  EXPECT_EQ(Ran.load(), 65);
  Pool.shutdown();
}

TEST(TaskPool, TasksRunConcurrently) {
  engine::TaskPool Pool(2);
  // Two tasks that each wait for the other prove two workers exist.
  std::atomic<int> Arrived{0};
  for (int I = 0; I < 2; ++I)
    Pool.submit([&] {
      ++Arrived;
      while (Arrived.load() < 2)
        std::this_thread::yield();
    });
  Pool.drain();
  EXPECT_EQ(Arrived.load(), 2);
}

//===----------------------------------------------------------------------===
// Tenants: quotas and cache namespacing
//===----------------------------------------------------------------------===

TEST(Tenant, HistoryQuotaAllowsReplacement) {
  TenantConfig Cfg;
  Cfg.Name = "t";
  Cfg.AppId = "t";
  Cfg.MaxHistories = 2;
  Tenant T(Cfg);
  EXPECT_TRUE(T.putHistory("a", observedHistory(1)));
  EXPECT_TRUE(T.putHistory("b", observedHistory(2)));
  // At quota: a new name fails, replacing an existing one succeeds.
  EXPECT_FALSE(T.putHistory("c", observedHistory(3)));
  EXPECT_TRUE(T.putHistory("a", observedHistory(3)));
  EXPECT_EQ(T.numHistories(), 2u);
  EXPECT_TRUE(T.getHistory("a").has_value());
  EXPECT_FALSE(T.getHistory("c").has_value());
}

TEST(Tenant, QuotaAdmissionLifecycle) {
  TenantConfig Cfg;
  Cfg.Name = "t";
  Cfg.MaxConcurrent = 1;
  Cfg.MaxQueued = 1;
  Tenant T(Cfg);

  EXPECT_EQ(T.admitQuery(), Tenant::Admit::Run);
  EXPECT_EQ(T.admitQuery(), Tenant::Admit::Queue);
  EXPECT_EQ(T.admitQuery(), Tenant::Admit::Reject);
  Tenant::Counters C = T.counters();
  EXPECT_EQ(C.Running, 1u);
  EXPECT_EQ(C.Queued, 1u);
  EXPECT_EQ(C.Rejected, 1u);

  // Finishing the runner reports the waiter; promotion frees the queue.
  EXPECT_TRUE(T.finishQuery());
  T.promoteQueued();
  C = T.counters();
  EXPECT_EQ(C.Running, 1u);
  EXPECT_EQ(C.Queued, 0u);
  EXPECT_EQ(C.Completed, 1u);
  EXPECT_FALSE(T.finishQuery());
  EXPECT_EQ(T.counters().Completed, 2u);
}

TEST(Tenant, ScopedSpecsNamespaceTheSharedCache) {
  TenantConfig A, B;
  A.Name = A.AppId = "acme";
  B.Name = B.AppId = "bravo";
  Tenant TA(A), TB(B);

  JobSpec S;
  S.Kind = engine::JobKind::Predict;
  S.App = "voter";
  S.Cfg = WorkloadConfig::small(1);

  JobSpec SA = scopedSpec(TA, S), SB = scopedSpec(TB, S);
  EXPECT_EQ(SA.App, "acme:voter");
  EXPECT_EQ(SB.App, "bravo:voter");
  EXPECT_NE(engine::canonicalSpec(SA), engine::canonicalSpec(SB));

  // The pin the acceptance criteria name: identical queries from two
  // tenants land on different result-cache entries.
  cache::ResultStore Store(scratchDir("scoped"));
  EXPECT_NE(Store.entryPath(SA), Store.entryPath(SB));

  // History scoping is content-addressed per tenant: the same trace
  // under two tenants differs, the same trace under two names does not.
  History H = observedHistory(1);
  ASSERT_TRUE(TA.putHistory("one", observedHistory(1)));
  ASSERT_TRUE(TA.putHistory("two", observedHistory(1)));
  ASSERT_TRUE(TB.putHistory("one", observedHistory(1)));
  StoredHistory HA1 = *TA.getHistory("one"), HA2 = *TA.getHistory("two"),
                HB = *TB.getHistory("one");
  JobSpec QA1 = scopedHistorySpec(TA, HA1, S),
          QA2 = scopedHistorySpec(TA, HA2, S),
          QB = scopedHistorySpec(TB, HB, S);
  EXPECT_EQ(QA1.App, QA2.App);
  EXPECT_NE(QA1.App, QB.App);
  EXPECT_EQ(QA1.App.find("@acme/"), 0u) << QA1.App;
}

TEST(TenantRegistry, OpenModeHasImplicitAdmin) {
  TenantRegistry R;
  Tenant *Default = R.defaultTenant();
  ASSERT_NE(Default, nullptr);
  EXPECT_TRUE(Default->config().Admin);
  EXPECT_EQ(R.authenticate("default", ""), Default);
  EXPECT_EQ(R.authenticate("nobody", ""), nullptr);
}

TEST(TenantRegistry, ConfigFileLocksDownAuth) {
  std::string Error;
  std::optional<TenantRegistry> R = TenantRegistry::fromJson(
      R"({"tenants": [
           {"name": "acme", "api_key": "k1", "max_concurrent": 2},
           {"name": "ops", "admin": true}]})",
      &Error);
  ASSERT_TRUE(R.has_value()) << Error;
  EXPECT_EQ(R->defaultTenant(), nullptr); // auth is mandatory
  EXPECT_EQ(R->authenticate("acme", "wrong"), nullptr);
  Tenant *Acme = R->authenticate("acme", "k1");
  ASSERT_NE(Acme, nullptr);
  EXPECT_EQ(Acme->config().MaxConcurrent, 2u);
  EXPECT_FALSE(Acme->config().Admin);
  EXPECT_NE(R->authenticate("ops", ""), nullptr);

  // Duplicate names are a config error.
  EXPECT_FALSE(TenantRegistry::fromJson(
                   R"({"tenants": [{"name": "a"}, {"name": "a"}]})", &Error)
                   .has_value());
}

// Quotas are `unsigned`: 2^32 must be rejected, not wrapped to 0 (a
// max_concurrent of 0 admits no query at all).
TEST(TenantRegistry, OutOfRangeQuotasAreConfigErrors) {
  for (const char *Field : {"max_concurrent", "max_queued", "max_histories"}) {
    SCOPED_TRACE(Field);
    std::string Error;
    std::string Ok = formatString(
        R"({"tenants": [{"name": "acme", "%s": 4294967295}]})", Field);
    EXPECT_TRUE(TenantRegistry::fromJson(Ok, &Error).has_value()) << Error;
    std::string Wrapped = formatString(
        R"({"tenants": [{"name": "acme", "%s": 4294967296}]})", Field);
    EXPECT_FALSE(TenantRegistry::fromJson(Wrapped, &Error).has_value());
    EXPECT_NE(Error.find(Field), std::string::npos) << Error;
  }
  std::string Error;
  EXPECT_FALSE(TenantRegistry::fromJson(
                   R"({"tenants": [{"name": "a", "max_concurrent": 0}]})",
                   &Error)
                   .has_value());
}

//===----------------------------------------------------------------------===
// End-to-end over loopback
//===----------------------------------------------------------------------===

/// A blocking NDJSON client for one loopback connection.
struct TestClient {
  int Fd = -1;
  std::string Buf;
  uint64_t NextId = 1;

  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connect(unsigned Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }

  /// Bounds every later read: a read that times out ends readLine()
  /// with std::nullopt instead of blocking the test.
  void setReadTimeout(double Seconds) {
    timeval TV;
    TV.tv_sec = static_cast<time_t>(Seconds);
    TV.tv_usec = static_cast<suseconds_t>((Seconds - TV.tv_sec) * 1e6);
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  }

  bool sendLine(const std::string &Line) {
    size_t Off = 0;
    while (Off < Line.size()) {
      ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  std::optional<std::string> readLine() {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Out = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Out;
      }
      char Chunk[4096];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return std::nullopt;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// One request/response round trip, parsed.
  std::optional<JsonValue> request(const std::string &BodyFields) {
    std::string Line = formatString("{\"id\": %llu%s%s}\n",
                                    static_cast<unsigned long long>(NextId++),
                                    BodyFields.empty() ? "" : ", ",
                                    BodyFields.c_str());
    if (!sendLine(Line))
      return std::nullopt;
    std::optional<std::string> Resp = readLine();
    if (!Resp)
      return std::nullopt;
    return parseJson(*Resp, nullptr);
  }
};

/// Body fields of an upload request (spliced into the id envelope).
std::string uploadBody(const char *Name, const History &H) {
  return formatString("\"verb\": \"upload\", \"name\": \"%s\", \"trace\": \"%s\"",
                      Name, jsonEscape(writeTrace(H)).c_str());
}

bool isOk(const std::optional<JsonValue> &V) {
  if (!V || V->K != JsonValue::Kind::Object)
    return false;
  const JsonValue *Ok = V->field("ok");
  return Ok && Ok->K == JsonValue::Kind::Bool && Ok->B;
}

std::string errorCode(const std::optional<JsonValue> &V) {
  if (!V)
    return "<no response>";
  const JsonValue *E = V->field("error");
  const JsonValue *C = E ? E->field("code") : nullptr;
  return C ? C->Text : "<no code>";
}

/// A Server running on its own thread for one test's lifetime.
struct TestServer {
  Server S;
  std::thread Thread;

  TestServer(ServerOptions O, TenantRegistry R)
      : S(std::move(O), std::move(R)) {}

  bool start() {
    std::string Error;
    if (!S.start(&Error)) {
      ADD_FAILURE() << Error;
      return false;
    }
    Thread = std::thread([this] { S.serve(); });
    return true;
  }

  ~TestServer() {
    S.requestStop();
    if (Thread.joinable())
      Thread.join();
  }
};

TEST(ServerE2E, PingUploadQueryAndCacheHit) {
  ServerOptions O;
  O.Workers = 2;
  O.CacheDir = scratchDir("e2e-cache");
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  EXPECT_TRUE(isOk(C.request(R"("verb": "ping")")));

  // Upload a locally observed trace, then query it twice: the second
  // answer must come from the result cache.
  History H = observedHistory(2);
  std::optional<JsonValue> R = C.request(uploadBody("h1", H));
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("name")->Text, "h1");

  // One line: a newline inside the body would split the NDJSON frame.
  const char *Query = R"("verb": "query", "history": "h1", )"
                      R"("level": "causal", "strategy": "relaxed", )"
                      R"("timeout_ms": 30000)";
  std::optional<JsonValue> First = C.request(Query);
  ASSERT_TRUE(isOk(First)) << errorCode(First);
  EXPECT_FALSE(First->field("cache_hit")->B);
  ASSERT_NE(First->field("job"), nullptr);
  std::string Outcome = First->field("job")->field("result")->Text;

  std::optional<JsonValue> Second = C.request(Query);
  ASSERT_TRUE(isOk(Second)) << errorCode(Second);
  EXPECT_TRUE(Second->field("cache_hit")->B);
  EXPECT_EQ(Second->field("answered_by")->Text, "cache");
  EXPECT_EQ(Second->field("job")->field("result")->Text, Outcome);
  // The cached answer surfaces the client-facing identity, not the
  // tenant-scoped cache key.
  EXPECT_EQ(Second->field("job")->field("app")->Text, "@h1");
}

TEST(ServerE2E, ExtendGrowsHistoryAndWarmSessions) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));

  // Split an observed trace into a base prefix and a headerless delta
  // tail at a transaction boundary (the TraceIO split contract).
  History Full = observedHistory(5);
  TxnId Cut = static_cast<TxnId>(Full.numTxns() / 2);
  ASSERT_GE(Cut, 1u);
  ASSERT_LT(Cut + 1, Full.numTxns());
  std::string Text = writeTrace(Full);
  size_t Lines = 1; // history directive
  for (TxnId T = 1; T <= Cut; ++T)
    Lines += Full.txn(T).Events.size() + 2; // txn + events + commit
  size_t Off = 0;
  for (size_t I = 0; I < Lines; ++I)
    Off = Text.find('\n', Off) + 1;
  std::string BaseText = Text.substr(0, Off), DeltaText = Text.substr(Off);

  // Upload the prefix and warm a session on it.
  std::optional<JsonValue> R = C.request(formatString(
      "\"verb\": \"upload\", \"name\": \"h\", \"trace\": \"%s\"",
      jsonEscape(BaseText).c_str()));
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  // Read committed: on this trace (at most one writing transaction) a
  // causal query short-circuits without encoding anything, so the
  // extended session would have no base prefix to grow.
  const char *Query = R"("verb": "query", "history": "h", )"
                      R"("level": "rc", "strategy": "relaxed", )"
                      R"("timeout_ms": 30000)";
  R = C.request(Query);
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_FALSE(R->field("warm_session")->B);
  // A cold session encodes its base prefix in this query.
  EXPECT_EQ(R->field("job")->field("base_prefix_reused"), nullptr);

  // Extend: the stored history grows to the full trace and the pooled
  // warm session is grown in place and re-keyed.
  R = C.request(formatString(
      "\"verb\": \"extend\", \"name\": \"h\", \"trace\": \"%s\"",
      jsonEscape(DeltaText).c_str()));
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("txns")->Text,
            formatString("%u", static_cast<unsigned>(Full.numTxns() - 1)));
  EXPECT_EQ(R->field("delta_txns")->Text,
            formatString("%u", static_cast<unsigned>(Full.numTxns() - 1 - Cut)));
  EXPECT_EQ(R->field("extended_sessions")->Text, "1");
  std::string GrownHash = R->field("content_hash")->Text;

  // The grown history is content-identical to uploading the unsplit
  // trace — extend-then-hash equals upload-of-full hash.
  R = C.request(formatString(
      "\"verb\": \"upload\", \"name\": \"full\", \"trace\": \"%s\"",
      jsonEscape(Text).c_str()));
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("content_hash")->Text, GrownHash);

  // Re-query: answered by the extended warm session, and the outcome
  // matches a cold session over the full trace.
  R = C.request(Query);
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_TRUE(R->field("warm_session")->B);
  EXPECT_EQ(R->field("answered_by")->Text, "warm_session");
  // The grown session's base prefix was already on its solver.
  const JsonValue *Reused = R->field("job")->field("base_prefix_reused");
  ASSERT_NE(Reused, nullptr);
  EXPECT_TRUE(Reused->B);
  std::string WarmOutcome = R->field("job")->field("result")->Text;
  R = C.request(R"("verb": "query", "history": "full", )"
                R"("level": "rc", "strategy": "relaxed", )"
                R"("timeout_ms": 30000)");
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("job")->field("result")->Text, WarmOutcome);

  // Error surface: unknown names and malformed deltas bounce.
  R = C.request(R"("verb": "extend", "name": "nope", "trace": "txn 0")");
  EXPECT_FALSE(isOk(R));
  EXPECT_EQ(errorCode(R), "unknown_history");
  R = C.request(
      R"("verb": "extend", "name": "h", "trace": "history 3\n")");
  EXPECT_FALSE(isOk(R));
  EXPECT_EQ(errorCode(R), "bad_request");
}

TEST(ServerE2E, SpecQueryMatchesBatchEngine) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  // One code path answers both sides (ServerCli.* in cli_test drives
  // the same grid through the client binary).
  engine::Campaign Grid = engine::Campaign::predictGrid(
      "server-grid", {"smallbank", "voter"},
      {IsolationLevel::Causal, IsolationLevel::ReadCommitted},
      {Strategy::ApproxStrict, Strategy::ApproxRelaxed}, {false}, 1, 30000);
  ASSERT_EQ(Grid.size(), 8u);
  engine::EngineOptions EO;
  EO.NumWorkers = 2;
  engine::Report Batch = engine::Engine(EO).run(Grid);

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  for (size_t I = 0; I < Grid.size(); ++I) {
    const JobSpec &S = Grid.Jobs[I];
    JsonWriter J(JsonWriter::Style::Compact);
    J.openObjectIn("spec");
    engine::writeJobSpecFields(J, S);
    J.closeObject();
    std::string Spec = J.take();
    Spec.pop_back();

    std::optional<JsonValue> R = C.request("\"verb\": \"query\", " + Spec);
    ASSERT_TRUE(isOk(R)) << errorCode(R);
    const JsonValue *Job = R->field("job");
    ASSERT_NE(Job, nullptr);
    EXPECT_EQ(Job->field("result")->Text,
              toString(Batch.results()[I].Outcome))
        << engine::canonicalSpec(S);
    EXPECT_EQ(Job->field("spec_hash")->Text,
              formatString("%016llx", static_cast<unsigned long long>(
                                          engine::specHash(S))));
  }
}

TEST(ServerE2E, SpecQueriesCountCacheProbes) {
  ServerOptions O;
  O.Workers = 1;
  O.CacheDir = scratchDir("probe-cache");
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  auto Count = [](const char *Name) {
    return obs::Metrics::global().snapshot().counter(Name);
  };
  const char *Query = R"("verb": "query", "spec": {"app": "voter", )"
                      R"("workload": "small", "seed": 2, )"
                      R"("level": "causal", "timeout_ms": 30000})";
  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  uint64_t Hits = Count("cache.hits"), Misses = Count("cache.misses");
  std::optional<JsonValue> R = C.request(Query);
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("answered_by")->Text, "engine");
  EXPECT_EQ(Count("cache.misses"), Misses + 1);
  EXPECT_EQ(Count("cache.hits"), Hits);

  // The repeat is a cache answer, counted like a batch run's hit.
  R = C.request(Query);
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("answered_by")->Text, "cache");
  EXPECT_EQ(Count("cache.hits"), Hits + 1);
  EXPECT_EQ(Count("cache.misses"), Misses + 1);
}

TEST(ServerE2E, TenantsAreIsolated) {
  std::string Error;
  std::optional<TenantRegistry> Reg = TenantRegistry::fromJson(
      R"({"tenants": [{"name": "acme", "api_key": "k1"},
                      {"name": "bravo", "api_key": "k2"}]})",
      &Error);
  ASSERT_TRUE(Reg.has_value()) << Error;
  ServerOptions O;
  O.Workers = 2;
  TestServer TS(std::move(O), std::move(*Reg));
  ASSERT_TRUE(TS.start());

  // Unauthenticated connections can ping but not query.
  TestClient A, B;
  ASSERT_TRUE(A.connect(TS.S.port()));
  ASSERT_TRUE(B.connect(TS.S.port()));
  std::optional<JsonValue> R =
      A.request(R"("verb": "query", "history": "h")");
  EXPECT_FALSE(isOk(R));
  EXPECT_EQ(errorCode(R), "auth_required");

  EXPECT_FALSE(isOk(A.request(R"("verb": "auth", "tenant": "acme")")));
  ASSERT_TRUE(isOk(
      A.request(R"("verb": "auth", "tenant": "acme", "api_key": "k1")")));
  ASSERT_TRUE(isOk(
      B.request(R"("verb": "auth", "tenant": "bravo", "api_key": "k2")")));

  // acme's history is invisible to bravo.
  ASSERT_TRUE(isOk(A.request(uploadBody("secret", observedHistory(3)))));
  R = B.request(R"("verb": "query", "history": "secret")");
  EXPECT_FALSE(isOk(R));
  EXPECT_EQ(errorCode(R), "unknown_history");

  // Neither may shut the server down.
  R = A.request(R"("verb": "shutdown")");
  EXPECT_FALSE(isOk(R));
  EXPECT_EQ(errorCode(R), "not_authorized");
}

TEST(ServerE2E, ConcurrentConnectionsAllAnswer) {
  ServerOptions O;
  O.Workers = 2;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  constexpr int NumClients = 6;
  std::atomic<int> OkCount{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < NumClients; ++I)
    Threads.emplace_back([&, I] {
      TestClient C;
      if (!C.connect(TS.S.port()))
        return;
      for (int K = 0; K < 5; ++K)
        if (isOk(C.request(R"("verb": "ping")")))
          ++OkCount;
      // A real query on some of the connections keeps workers busy.
      if (I % 3 == 0) {
        std::optional<JsonValue> R = C.request(
            R"("verb": "query", "spec": {"app": "voter", "seed": 1, )"
            R"("level": "causal", "timeout_ms": 30000})");
        if (isOk(R))
          ++OkCount;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(OkCount.load(), NumClients * 5 + 2);
}

/// The process's virtual size in KiB, from /proc/self/status (0 when
/// unreadable).
uint64_t vmSizeKib() {
  std::string Status;
  if (!readFile("/proc/self/status", Status))
    return 0;
  size_t Pos = Status.find("VmSize:");
  return Pos == std::string::npos
             ? 0
             : std::strtoull(Status.c_str() + Pos + 7, nullptr, 10);
}

// Each connection gets a reader thread. The daemon joins it once the
// client hangs up, not only at shutdown: an exited but unjoined thread
// keeps its stack mapped (8 MiB by default), which VmSize shows and the
// thread count in /proc/self/task does not.
TEST(ServerE2E, SequentialConnectionsDoNotAccumulateReaderThreads) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  auto Cycle = [&] {
    TestClient C;
    return C.connect(TS.S.port()) && isOk(C.request(R"("verb": "ping")"));
  };
  for (int I = 0; I < 10; ++I) // Warm up allocator arenas and pools.
    ASSERT_TRUE(Cycle());
  uint64_t Before = vmSizeKib();
  ASSERT_GT(Before, 0u);
  for (int I = 0; I < 200; ++I)
    ASSERT_TRUE(Cycle()) << "cycle " << I;
  uint64_t After = vmSizeKib();
  EXPECT_LT(After, Before + 256u * 1024)
      << "VmSize grew from " << Before << " to " << After << " KiB";
}

/// Threads of this process, from /proc/self/task.
size_t taskCount() {
  std::error_code EC;
  std::filesystem::directory_iterator It("/proc/self/task", EC), End;
  return EC ? 0 : static_cast<size_t>(std::distance(It, End));
}

/// Seconds since \p Start.
double since(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

// One poll() loop serves every connection: open connections cost no
// thread of their own.
TEST(ServerE2E, IdleConnectionsAddNoThreads) {
  ServerOptions O;
  O.Workers = 2;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  {
    TestClient C;
    ASSERT_TRUE(C.connect(TS.S.port()));
    ASSERT_TRUE(isOk(C.request(R"("verb": "ping")")));
  }
  size_t Before = taskCount();
  ASSERT_GT(Before, 0u);
  std::vector<TestClient> Idle(50);
  for (TestClient &C : Idle) {
    ASSERT_TRUE(C.connect(TS.S.port()));
    C.setReadTimeout(5);
    ASSERT_TRUE(isOk(C.request(R"("verb": "ping")"))); // Accepted.
  }
  EXPECT_EQ(taskCount(), Before);
}

// A client holding half a request line stalls nobody: the loop keeps
// the bytes and serves the others; the line is answered once complete.
TEST(ServerE2E, HalfSentLineDoesNotDelayOtherClients) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient A, B;
  ASSERT_TRUE(A.connect(TS.S.port()) && B.connect(TS.S.port()));
  A.setReadTimeout(5);
  B.setReadTimeout(5);
  ASSERT_TRUE(A.sendLine(R"({"id": 7, "verb": "pi)"));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(isOk(B.request(R"("verb": "ping")")));
  EXPECT_LT(since(Start), 1.0);
  ASSERT_TRUE(A.sendLine("ng\"}\n"));
  std::optional<std::string> Line = A.readLine();
  ASSERT_TRUE(Line.has_value());
  std::optional<JsonValue> R = parseJson(*Line, nullptr);
  ASSERT_TRUE(isOk(R)) << *Line;
  EXPECT_EQ(R->field("id")->Text, "7");
}

// A client that pipelines requests and never reads its answers fills
// its socket. The server stops reading it, keeps serving the others,
// and closes it once its answers have waited for the send timeout.
TEST(ServerE2E, ClientThatStopsReadingIsDisconnected) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient A, B;
  ASSERT_TRUE(A.connect(TS.S.port()) && B.connect(TS.S.port()));
  B.setReadTimeout(5);
  const std::string Status = "{\"verb\": \"status\"}\n";
  // Write without blocking until the socket stays full for 200 ms: the
  // server has stopped reading A.
  auto LastProgress = std::chrono::steady_clock::now();
  size_t Sent = 0;
  while (since(LastProgress) < 0.2) {
    ssize_t N = ::send(A.Fd, Status.data(), Status.size(), MSG_DONTWAIT);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      LastProgress = std::chrono::steady_clock::now();
    } else if (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR) {
      break; // Already closed by the server.
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_LT(Sent, 256u << 20) << "the server never stopped reading";
  }
  auto Start = std::chrono::steady_clock::now();
  EXPECT_TRUE(isOk(B.request(R"("verb": "ping")")));
  EXPECT_LT(since(Start), 2.5);
  // A's queued answers end in EOF or a reset, not in a hang, once A has
  // left them unread for longer than the send timeout (1 s).
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  A.setReadTimeout(5);
  char Chunk[64 * 1024];
  ssize_t N;
  while ((N = ::read(A.Fd, Chunk, sizeof(Chunk))) > 0 ||
         (N < 0 && errno == EINTR)) {
  }
  EXPECT_TRUE(N == 0 || errno == ECONNRESET) << std::strerror(errno);
}

// A client that pipelines requests and reads its answers a few KB/s
// never makes the serve loop wait: another client's pings come straight
// back, and the slow client is closed once its answers have waited for
// the send timeout.
TEST(ServerE2E, SlowReaderDoesNotDelayOtherClients) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient A, B;
  ASSERT_TRUE(A.connect(TS.S.port()) && B.connect(TS.S.port()));
  A.setReadTimeout(5);
  B.setReadTimeout(5);
  std::string Batch;
  while (Batch.size() < (64u << 10))
    Batch += "{\"verb\": \"status\"}\n";
  ASSERT_TRUE(A.sendLine(Batch));
  // A reads 1 KiB every 250 ms while B pings, then the rest at once: it
  // ends in EOF or a reset only if the server has closed it.
  std::atomic<bool> Pinging{true}, Ended{false};
  std::thread Reader([&] {
    char Chunk[1024];
    ssize_t N;
    while ((N = ::read(A.Fd, Chunk, sizeof(Chunk))) > 0 ||
           (N < 0 && errno == EINTR))
      if (Pinging.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
    Ended.store(N == 0 || errno == ECONNRESET);
  });
  double Slowest = 0;
  for (int I = 0; I < 20; ++I) {
    auto Start = std::chrono::steady_clock::now();
    EXPECT_TRUE(isOk(B.request(R"("verb": "ping")")));
    Slowest = std::max(Slowest, since(Start));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Pinging.store(false);
  EXPECT_LT(Slowest, 0.5);
  Reader.join();
  EXPECT_TRUE(Ended.load());
}

// A frame over MaxRequestBytes is answered with too_large and skipped
// up to its newline, even when that arrives reads later; the
// connection keeps serving.
TEST(ServerE2E, OversizedFrameIsSkippedToItsNewline) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  C.setReadTimeout(30);
  std::string Frames(MaxRequestBytes + (1u << 20), 'x');
  Frames += "\n{\"id\": 2, \"verb\": \"ping\"}\n";
  ASSERT_TRUE(C.sendLine(Frames));
  std::optional<std::string> Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  EXPECT_EQ(errorCode(parseJson(*Line, nullptr)), "too_large") << *Line;
  Line = C.readLine();
  ASSERT_TRUE(Line.has_value());
  std::optional<JsonValue> Pong = parseJson(*Line, nullptr);
  ASSERT_TRUE(isOk(Pong)) << *Line;
  EXPECT_EQ(Pong->field("id")->Text, "2");
}

// Requests on one connection are handled in arrival order: a query
// pipelined right behind an extend, without waiting for its answer,
// runs on the extended trace.
TEST(ServerE2E, PipelinedQueryAfterExtendSeesTheExtendedTrace) {
  ServerOptions O;
  O.Workers = 1;
  O.CacheDir = scratchDir("e2e-pipelined-extend");
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  C.setReadTimeout(60);

  std::string Text = writeTrace(observedHistory(5));
  size_t Cut = Text.find("\ncommit\n", Text.size() / 2);
  ASSERT_LT(Cut + 8, Text.size()); // Found, and not the last commit.
  Cut += 8;
  std::optional<JsonValue> R = C.request(formatString(
      "\"verb\": \"upload\", \"name\": \"h\", \"trace\": \"%s\"",
      jsonEscape(Text.substr(0, Cut)).c_str()));
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  std::string BaseHash = R->field("content_hash")->Text;

  const std::string QueryFields = R"("level": "rc", "strategy": "relaxed", )"
                                  R"("timeout_ms": 30000)";
  ASSERT_TRUE(C.sendLine(
      formatString("{\"id\": 10, \"verb\": \"extend\", \"name\": \"h\", "
                   "\"trace\": \"%s\"}\n"
                   "{\"id\": 11, \"verb\": \"query\", \"history\": \"h\", "
                   "%s}\n",
                   jsonEscape(Text.substr(Cut)).c_str(),
                   QueryFields.c_str())));
  std::optional<std::string> ExtendLine = C.readLine();
  std::optional<std::string> QueryLine = C.readLine();
  ASSERT_TRUE(ExtendLine && QueryLine);
  std::optional<JsonValue> Extended = parseJson(*ExtendLine, nullptr);
  std::optional<JsonValue> Query = parseJson(*QueryLine, nullptr);
  ASSERT_TRUE(isOk(Extended)) << *ExtendLine;
  ASSERT_TRUE(isOk(Query)) << *QueryLine;
  EXPECT_EQ(Extended->field("id")->Text, "10");
  EXPECT_EQ(Query->field("id")->Text, "11");
  std::string GrownHash = Extended->field("content_hash")->Text;
  EXPECT_NE(GrownHash, BaseHash);
  EXPECT_EQ(Query->field("job")->field("committed_txns")->Text,
            Extended->field("txns")->Text);

  // The whole trace uploaded under another name has the grown hash,
  // and its query is the pipelined query's cached answer: the cache key
  // carries the content hash the pipelined query ran on.
  R = C.request(formatString(
      "\"verb\": \"upload\", \"name\": \"full\", \"trace\": \"%s\"",
      jsonEscape(Text).c_str()));
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("content_hash")->Text, GrownHash);
  R = C.request(R"("verb": "query", "history": "full", )" + QueryFields);
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("answered_by")->Text, "cache");
  EXPECT_EQ(R->field("job")->field("result")->Text,
            Query->field("job")->field("result")->Text);
}

// A shutdown while another client is mid-frame: the daemon exits, and
// the unfinished frame gets no answer.
TEST(ServerE2E, ShutdownDiscardsAHalfWrittenFrame) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient Admin, Half;
  ASSERT_TRUE(Admin.connect(TS.S.port()) && Half.connect(TS.S.port()));
  Admin.setReadTimeout(5);
  Half.setReadTimeout(5);
  // The ping's answer shows the server has read this connection.
  ASSERT_TRUE(Half.sendLine("{\"id\": 1, \"verb\": \"ping\"}\n"
                            "{\"id\": 2, \"verb\": \"st"));
  std::optional<std::string> Pong = Half.readLine();
  ASSERT_TRUE(Pong.has_value());
  EXPECT_TRUE(isOk(parseJson(*Pong, nullptr))) << *Pong;
  ASSERT_TRUE(isOk(Admin.request(R"("verb": "shutdown")")));
  TS.Thread.join();
  EXPECT_EQ(Half.readLine(), std::nullopt);
}

// Observe runs on the serve loop, so its workload is capped: a larger
// shape bounces without running, and the connection stays usable.
TEST(ServerE2E, ObserveOverTheCapIsTooLargeWithoutRunning) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());
  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  C.setReadTimeout(30);
  auto Start = std::chrono::steady_clock::now();
  std::optional<JsonValue> R = C.request(
      R"("verb": "observe", "app": "wikipedia", "workload": "16x256")");
  EXPECT_LT(since(Start), 1.0);
  EXPECT_EQ(errorCode(R), "too_large");
  EXPECT_TRUE(isOk(C.request(R"("verb": "ping")")));
  EXPECT_GT(16u * 256, MaxObserveTxns); // The shape above is over the cap.
}

TEST(ServerE2E, QuotaRejectionsAreWellFormedErrors) {
  std::string Error;
  std::optional<TenantRegistry> Reg = TenantRegistry::fromJson(
      R"({"tenants": [{"name": "tiny", "max_concurrent": 1,
                       "max_queued": 1}]})",
      &Error);
  ASSERT_TRUE(Reg.has_value()) << Error;
  ServerOptions O;
  O.Workers = 2;
  TestServer TS(std::move(O), std::move(*Reg));
  ASSERT_TRUE(TS.start());

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  ASSERT_TRUE(isOk(C.request(R"("verb": "auth", "tenant": "tiny")")));

  // Pipeline a burst: with 1 running + 1 queued, the rest must come
  // back as quota_exceeded errors on the same connection (never a
  // disconnect), and the admitted ones must still answer.
  constexpr int Burst = 6;
  for (int I = 0; I < Burst; ++I)
    ASSERT_TRUE(C.sendLine(formatString(
        "{\"id\": %d, \"verb\": \"query\", \"spec\": {\"app\": \"voter\", "
        "\"seed\": 1, \"level\": \"causal\", \"timeout_ms\": 30000}}\n",
        100 + I)));
  int OkCount = 0, Rejected = 0;
  for (int I = 0; I < Burst; ++I) {
    std::optional<std::string> Line = C.readLine();
    ASSERT_TRUE(Line.has_value()) << "connection dropped mid-burst";
    std::optional<JsonValue> V = parseJson(*Line, nullptr);
    ASSERT_TRUE(V.has_value());
    if (isOk(V))
      ++OkCount;
    else {
      EXPECT_EQ(errorCode(V), "quota_exceeded");
      ++Rejected;
    }
  }
  EXPECT_GE(OkCount, 2); // the running + queued pair at minimum
  EXPECT_EQ(OkCount + Rejected, Burst);
  // The connection survived the burst.
  EXPECT_TRUE(isOk(C.request(R"("verb": "ping")")));
}

TEST(ServerE2E, ShutdownVerbDrainsAndStatusReports) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  std::optional<JsonValue> St = C.request(R"("verb": "status")");
  ASSERT_TRUE(isOk(St));
  EXPECT_EQ(St->field("schema")->Text, "isopredict-server-status/1");
  ASSERT_NE(St->field("metrics"), nullptr);
  EXPECT_NE(St->field("metrics")->field("counters"), nullptr);

  // Open mode's implicit tenant is admin: shutdown is accepted and the
  // server thread winds down on its own.
  std::optional<JsonValue> R = C.request(R"("verb": "shutdown")");
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  TS.Thread.join();
  EXPECT_FALSE(TS.Thread.joinable());
}

//===----------------------------------------------------------------------===
// Serving telemetry
//===----------------------------------------------------------------------===

/// Restores the global logger (stderr, info, text) when a test that
/// retargeted it finishes.
struct LogRestore {
  ~LogRestore() {
    std::string Error;
    obs::Log::global().configure(obs::Log::Options(), &Error);
  }
};

TEST(ServerE2E, MetricsVerbServesPrometheusAndJson) {
  std::string Error;
  std::optional<TenantRegistry> Reg = TenantRegistry::fromJson(
      R"({"tenants": [{"name": "acme", "api_key": "k1"},
                      {"name": "bravo", "api_key": "k2"}]})",
      &Error);
  ASSERT_TRUE(Reg.has_value()) << Error;
  ServerOptions O;
  O.Workers = 2;
  TestServer TS(std::move(O), std::move(*Reg));
  ASSERT_TRUE(TS.start());

  // Each tenant runs one query so both mint labeled series.
  const char *Query = R"("verb": "query", "spec": {"app": "voter", )"
                      R"("workload": "small", "seed": 1, )"
                      R"("timeout_ms": 30000})";
  TestClient A, B;
  ASSERT_TRUE(A.connect(TS.S.port()));
  ASSERT_TRUE(B.connect(TS.S.port()));
  ASSERT_TRUE(isOk(A.request(
      R"("verb": "auth", "tenant": "acme", "api_key": "k1")")));
  ASSERT_TRUE(isOk(B.request(
      R"("verb": "auth", "tenant": "bravo", "api_key": "k2")")));
  ASSERT_TRUE(isOk(A.request(Query)));
  ASSERT_TRUE(isOk(B.request(Query)));

  // Default format is the Prometheus text exposition.
  std::optional<JsonValue> R = A.request(R"("verb": "metrics")");
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_EQ(R->field("schema")->Text, "isopredict-server-metrics/1");
  EXPECT_EQ(R->field("format")->Text, "prometheus");
  const JsonValue *Expo = R->field("exposition");
  ASSERT_NE(Expo, nullptr);
  const std::string &Text = Expo->Text;
  EXPECT_NE(Text.find("# TYPE server_requests counter"), std::string::npos);
  // Per-tenant, per-verb labeled series — one per tenant, never shared.
  EXPECT_NE(
      Text.find(
          "server_requests{tenant=\"acme\",verb=\"query\",outcome=\"ok\"}"),
      std::string::npos);
  EXPECT_NE(
      Text.find(
          "server_requests{tenant=\"bravo\",verb=\"query\",outcome=\"ok\"}"),
      std::string::npos);
  EXPECT_NE(Text.find("server_queries{tenant=\"acme\""), std::string::npos);
  // The per-tenant latency family shares its name with the unlabeled
  // total histogram; both live under one TYPE line.
  EXPECT_NE(Text.find("# TYPE server_query_seconds histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("server_query_seconds_bucket{tenant=\"acme\",le="),
            std::string::npos);
  EXPECT_TRUE(std::regex_search(
      Text, std::regex(R"(server_requests\{tenant="acme",verb="query",)"
                       R"(outcome="ok"\} [1-9])")));
  EXPECT_NE(Text.find("server_queries{tenant=\"bravo\""), std::string::npos);
  // acme's latency buckets are cumulative and end at its query count.
  std::regex Bucket(
      R"(server_query_seconds_bucket\{tenant="acme",le="[^"]*"\} (\d+))");
  std::vector<double> Buckets;
  for (std::sregex_iterator It(Text.begin(), Text.end(), Bucket), End;
       It != End; ++It)
    Buckets.push_back(std::stod((*It)[1]));
  ASSERT_FALSE(Buckets.empty());
  EXPECT_TRUE(std::is_sorted(Buckets.begin(), Buckets.end()));
  std::smatch Count;
  ASSERT_TRUE(std::regex_search(
      Text, Count,
      std::regex(R"(server_query_seconds_count\{tenant="acme"\} (\d+))")));
  EXPECT_EQ(Buckets.back(), std::stod(Count[1]));

  // JSON variant carries the status-style metrics block.
  R = A.request(R"("verb": "metrics", "format": "json")");
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  const JsonValue *M = R->field("metrics");
  ASSERT_NE(M, nullptr);
  ASSERT_NE(M->field("counters"), nullptr);
  const JsonValue *Families = M->field("families");
  ASSERT_NE(Families, nullptr);
  ASSERT_NE(Families->field("server.requests"), nullptr);

  // Unknown formats bounce as bad_request.
  R = A.request(R"("verb": "metrics", "format": "xml")");
  EXPECT_FALSE(isOk(R));
  EXPECT_EQ(errorCode(R), "bad_request");
}

TEST(ServerE2E, StatusReportsRollingLatencyPercentiles) {
  ServerOptions O;
  O.Workers = 1;
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  ASSERT_TRUE(isOk(C.request(
      R"("verb": "query", "spec": {"app": "voter", )"
      R"("workload": "small", "seed": 2, "timeout_ms": 30000})")));

  std::optional<JsonValue> St = C.request(R"("verb": "status")");
  ASSERT_TRUE(isOk(St));
  const JsonValue *Latency = St->field("latency");
  ASSERT_NE(Latency, nullptr);
  const JsonValue *Verbs = Latency->field("verbs");
  ASSERT_NE(Verbs, nullptr);
  const JsonValue *Q = Verbs->field("query");
  ASSERT_NE(Q, nullptr);
  for (const char *Win : {"1m", "5m"}) {
    const JsonValue *W = Q->field(Win);
    ASSERT_NE(W, nullptr) << Win;
    ASSERT_NE(W->field("count"), nullptr);
    EXPECT_GE(std::stod(W->field("count")->Text), 1.0);
    double P50 = std::stod(W->field("p50")->Text);
    double P95 = std::stod(W->field("p95")->Text);
    double P99 = std::stod(W->field("p99")->Text);
    EXPECT_GT(P50, 0.0);
    EXPECT_GE(P95, P50);
    EXPECT_GE(P99, P95);
  }
  // The per-tenant rings see the query too (open mode → "default").
  const JsonValue *Tenants = Latency->field("tenants");
  ASSERT_NE(Tenants, nullptr);
  ASSERT_NE(Tenants->field("default"), nullptr);
  for (const JsonValue *Section : {Verbs, Tenants})
    for (const auto &[Name, Windows] : Section->Fields)
      for (const char *Win : {"1m", "5m"}) {
        const JsonValue *W = Windows.field(Win);
        ASSERT_NE(W, nullptr) << Name << " " << Win;
        EXPECT_LE(std::stod(W->field("p50")->Text),
                  std::stod(W->field("p95")->Text));
        EXPECT_LE(std::stod(W->field("p95")->Text),
                  std::stod(W->field("p99")->Text));
      }
}

TEST(ServerE2E, SlowQueryLogCapturesTenantAndSpec) {
  LogRestore Restore;
  std::string LogPath =
      pathJoin(scratchDir("slowlog"), "server.ndjson");
  obs::Log::Options LO;
  LO.Ndjson = true;
  LO.Path = LogPath;
  std::string Error;
  ASSERT_TRUE(obs::Log::global().configure(LO, &Error)) << Error;

  ServerOptions O;
  O.Workers = 1;
  O.SlowQueryMs = 1e-6; // every query crosses a nanosecond threshold
  TestServer TS(std::move(O), TenantRegistry());
  ASSERT_TRUE(TS.start());

  TestClient C;
  ASSERT_TRUE(C.connect(TS.S.port()));
  ASSERT_TRUE(isOk(C.request(
      R"("verb": "query", "spec": {"app": "voter", )"
      R"("workload": "small", "seed": 3, "timeout_ms": 30000})")));

  std::string Text;
  ASSERT_TRUE(readFile(LogPath, Text, &Error)) << Error;
  const JsonValue *Fields = nullptr;
  std::optional<JsonValue> Slow;
  for (std::string_view L : splitString(Text, '\n')) {
    if (L.empty())
      continue;
    std::optional<JsonValue> Doc = parseJson(std::string(L), &Error);
    ASSERT_TRUE(Doc.has_value()) << Error;
    const JsonValue *Event = Doc->field("event");
    if (Event && Event->Text == "slow_query") {
      Slow = std::move(*Doc);
      Fields = Slow->field("fields");
      break;
    }
  }
  ASSERT_NE(Fields, nullptr) << "no slow_query event in:\n" << Text;
  EXPECT_EQ(Slow->field("level")->Text, "warn");
  ASSERT_NE(Fields->field("tenant"), nullptr);
  EXPECT_EQ(Fields->field("tenant")->Text, "default");
  ASSERT_NE(Fields->field("spec_hash"), nullptr);
  EXPECT_EQ(Fields->field("spec_hash")->Text.size(), 16u); // %016llx
  ASSERT_NE(Fields->field("seconds"), nullptr);
  ASSERT_NE(Fields->field("outcome"), nullptr);
  // Z3 search statistics ride along when the solver ran.
  EXPECT_NE(Fields->field("solver_conflicts"), nullptr);

  // The slow-query counter family saw it too.
  TestClient M;
  ASSERT_TRUE(M.connect(TS.S.port()));
  std::optional<JsonValue> R = M.request(R"("verb": "metrics")");
  ASSERT_TRUE(isOk(R)) << errorCode(R);
  EXPECT_TRUE(std::regex_search(
      R->field("exposition")->Text,
      std::regex(R"(server_slow_queries\{tenant="default"\} [1-9])")));
}

TEST(ServerE2E, TraceDirRotatesRingFlushes) {
  std::string Dir = scratchDir("tracedir");
  ServerOptions O;
  O.Workers = 1;
  O.TraceDir = Dir;
  O.TraceFlushSec = 3600; // only the final drain flush fires
  O.TraceRingCapacity = 32;
  {
    TestServer TS(std::move(O), TenantRegistry());
    ASSERT_TRUE(TS.start());
    TestClient C;
    ASSERT_TRUE(C.connect(TS.S.port()));
    ASSERT_TRUE(isOk(C.request(
        R"("verb": "query", "spec": {"app": "voter", )"
        R"("workload": "small", "seed": 4, "timeout_ms": 30000})")));
  } // ~TestServer drains; the flusher writes its final rotation

  // The drain restored the global tracer for later tests and wrote at
  // least one rotated trace file with spans in it.
  EXPECT_EQ(obs::Tracer::global().ringCapacity(), 0u);
  std::string Text, Error;
  ASSERT_TRUE(readFile(pathJoin(Dir, "trace-000000.json"), Text, &Error))
      << Error;
  std::optional<JsonValue> Doc = parseJson(Text, &Error);
  ASSERT_TRUE(Doc.has_value()) << Error;
  const JsonValue *Events = Doc->field("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_FALSE(Events->Items.empty());
}

} // namespace
