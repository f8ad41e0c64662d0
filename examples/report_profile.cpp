//===- report_profile.cpp - Wall-clock breakdown of a campaign -*- C++ -*-===//
//
// Reads a campaign report (campaign_cli --out, ideally with --timings),
// a Chrome trace (campaign_cli --trace-out), or a server status dump
// (isopredict_client --status-out) and prints where the wall-clock
// went: a per-phase breakdown, a per-configuration table (the report's
// summary groups, with the columns of the paper's Tables 4/5), and the
// top-N slowest jobs.
//
// Usage:
//   report_profile [--top N] FILE
//   report_profile --follow HOST:PORT [--interval SEC] [--count N]
//
// --follow turns the tool into a live dashboard: it connects to a
// running isopredict_server, polls the `status` verb every --interval
// seconds (default 2), and redraws a traffic / per-tenant / rolling-
// percentile view with deltas between polls (ANSI clear-screen when
// stdout is a terminal, plain appended frames otherwise). --count N
// stops after N polls (0 = forever) so scripts and CI can smoke it.
//
// For file input, the kind is detected from the JSON shape: a "traceEvents"
// array is a Chrome trace (phases are span categories, slow entries
// are the longest spans); an "isopredict-campaign-report/2" document
// is a report (phases come from its `metrics` block when present,
// else from the jobs' gen/solve seconds; slow entries are the jobs by
// wall-clock); an "isopredict-server-status/1" document is a running
// server's snapshot (traffic, tenants, warm-session pool, and the same
// metrics-derived phase breakdown). Reports written without --timings
// carry no timing fields — the tool still prints outcome aggregates
// but says so.
//
//===----------------------------------------------------------------------===//

#include "engine/Engine.h"
#include "engine/JobIo.h"
#include "engine/Report.h"
#include "support/Fs.h"
#include "support/Json.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr after \p Msg (exit 2).
int usage(const char *Msg = nullptr, std::FILE *Out = stderr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n", Msg);
  std::fprintf(Out,
               "usage: report_profile [--top N] FILE\n"
               "       report_profile --follow HOST:PORT [--interval SEC]"
               " [--count N]\n"
               "  FILE   campaign report JSON (campaign_cli --out),\n"
               "         Chrome trace JSON (campaign_cli --trace-out), or\n"
               "         server status JSON (isopredict_client "
               "--status-out)\n"
               "  --top  slowest entries to list (default: 5)\n"
               "  --follow    live dashboard off a running server's status"
               " verb\n"
               "  --interval  seconds between polls (default: 2)\n"
               "  --count     stop after N polls, 0 = forever (default: "
               "0)\n");
  return Out == stdout ? 0 : 2;
}

double numberOf(const JsonValue *V) {
  if (!V || V->K != JsonValue::Kind::Number)
    return 0;
  return std::strtod(V->Text.c_str(), nullptr);
}

std::string secondsCell(double S) { return formatString("%.3fs", S); }

/// Percentage cell guarded against a zero denominator.
std::string shareCell(double Part, double Whole) {
  return Whole > 0 ? formatString("%5.1f%%", 100.0 * Part / Whole)
                   : std::string("-");
}

//===----------------------------------------------------------------------===//
// Trace mode
//===----------------------------------------------------------------------===//

int profileTrace(const JsonValue &Doc, unsigned TopN) {
  const JsonValue *Events = Doc.field("traceEvents");
  if (!Events || Events->K != JsonValue::Kind::Array)
    return usage("trace document has no traceEvents array");

  struct SpanRow {
    std::string Name;
    std::string Cat;
    double StartUs = 0;
    double DurUs = 0;
  };
  std::vector<SpanRow> Spans;
  std::map<std::string, std::pair<uint64_t, double>> ByCat; // count, us
  double EndUs = 0;
  for (const JsonValue &E : Events->Items) {
    if (E.K != JsonValue::Kind::Object)
      continue;
    const JsonValue *Name = E.field("name");
    const JsonValue *Cat = E.field("cat");
    SpanRow R;
    R.Name = Name ? Name->Text : "?";
    R.Cat = Cat ? Cat->Text : "?";
    R.StartUs = numberOf(E.field("ts"));
    R.DurUs = numberOf(E.field("dur"));
    auto &Slot = ByCat[R.Cat];
    ++Slot.first;
    Slot.second += R.DurUs;
    EndUs = std::max(EndUs, R.StartUs + R.DurUs);
    Spans.push_back(std::move(R));
  }

  // Wall-clock proxy: the latest span end (timestamps are normalized
  // to campaign start). The leaf categories never nest in each other,
  // so their shares are comparable; the container categories
  // (engine/session) overlap them and naturally exceed-or-meet any
  // leaf's total.
  double WallS = EndUs * 1e-6;
  std::printf("trace: %zu spans, %.3fs wall (last span end)\n\n",
              Spans.size(), WallS);

  TablePrinter T;
  T.setHeader({"Phase", "Spans", "Seconds", "Share"});
  for (const auto &KV : ByCat) {
    double S = KV.second.second * 1e-6;
    T.addRow({KV.first, formatString("%llu",
                                     static_cast<unsigned long long>(
                                         KV.second.first)),
              secondsCell(S), shareCell(S, WallS)});
  }
  T.print(stdout);

  std::sort(Spans.begin(), Spans.end(),
            [](const SpanRow &A, const SpanRow &B) {
              return A.DurUs > B.DurUs;
            });
  std::printf("\nslowest spans:\n");
  for (size_t I = 0; I < Spans.size() && I < TopN; ++I)
    std::printf("  %8.3fs  %-10s %s (at %.3fs)\n", Spans[I].DurUs * 1e-6,
                Spans[I].Cat.c_str(), Spans[I].Name.c_str(),
                Spans[I].StartUs * 1e-6);
  return 0;
}

/// Histogram second-sum out of a document's `metrics` block (0 when
/// absent — a report written without --timings, or an older tool).
double metricsHistogramSum(const JsonValue &Doc, const char *Name) {
  const JsonValue *Metrics = Doc.field("metrics");
  const JsonValue *Histograms =
      Metrics ? Metrics->field("histograms") : nullptr;
  const JsonValue *H = Histograms ? Histograms->field(Name) : nullptr;
  return H ? numberOf(H->field("sum_seconds")) : 0;
}

//===----------------------------------------------------------------------===//
// Server-status mode
//===----------------------------------------------------------------------===//

/// Profiles a server `status` response line saved by
/// `isopredict_client --status-out` — uptime, per-tenant traffic, the
/// warm-session pool, and the same metrics-derived phase breakdown a
/// report gets. Diff two dumps by hand for interval rates; the solver
/// counters are the CI signal that a repeated query really answered
/// from the cache (zero solver.checks delta).
int profileStatus(const JsonValue &Doc, unsigned TopN) {
  const JsonValue *Metrics = Doc.field("metrics");
  const JsonValue *Counters = Metrics ? Metrics->field("counters") : nullptr;
  auto counter = [&](const char *Name) -> uint64_t {
    const JsonValue *C = Counters ? Counters->field(Name) : nullptr;
    return static_cast<uint64_t>(numberOf(C));
  };

  std::printf("server status: %.1fs up, %.0f worker(s)%s\n",
              numberOf(Doc.field("uptime_seconds")),
              numberOf(Doc.field("workers")),
              Doc.field("draining") && Doc.field("draining")->B
                  ? ", draining"
                  : "");
  std::printf("traffic: %llu request(s) on %llu connection(s), "
              "%llu error(s)\n",
              static_cast<unsigned long long>(counter("server.requests")),
              static_cast<unsigned long long>(counter("server.connections")),
              static_cast<unsigned long long>(counter("server.errors")));
  std::printf("queries: %llu total — %llu cache answer(s), %llu warm "
              "session(s), %llu quota rejection(s)\n",
              static_cast<unsigned long long>(counter("server.queries")),
              static_cast<unsigned long long>(
                  counter("server.cache_answers")),
              static_cast<unsigned long long>(counter("server.session_hits")),
              static_cast<unsigned long long>(
                  counter("server.quota_rejections")));
  std::printf("solver: %llu check(s), %llu timeout(s)\n",
              static_cast<unsigned long long>(counter("solver.checks")),
              static_cast<unsigned long long>(counter("solver.timeouts")));

  if (const JsonValue *P = Doc.field("session_pool"))
    std::printf("session pool: %.0f/%.0f warm, %.0f hit(s) / %.0f "
                "miss(es) / %.0f eviction(s)\n",
                numberOf(P->field("size")), numberOf(P->field("capacity")),
                numberOf(P->field("hits")), numberOf(P->field("misses")),
                numberOf(P->field("evictions")));

  if (const JsonValue *Tenants = Doc.field("tenants");
      Tenants && Tenants->K == JsonValue::Kind::Array &&
      !Tenants->Items.empty()) {
    std::printf("\n");
    TablePrinter T;
    T.setHeader({"Tenant", "Running", "Queued", "Done", "Rejected", "Cache",
                 "Warm", "Histories"});
    for (const JsonValue &TV : Tenants->Items) {
      if (TV.K != JsonValue::Kind::Object)
        continue;
      const JsonValue *Name = TV.field("name");
      T.addRow({Name ? Name->Text : "?",
                formatString("%.0f", numberOf(TV.field("running"))),
                formatString("%.0f", numberOf(TV.field("queued"))),
                formatString("%.0f", numberOf(TV.field("completed"))),
                formatString("%.0f", numberOf(TV.field("rejected"))),
                formatString("%.0f", numberOf(TV.field("cache_hits"))),
                formatString("%.0f", numberOf(TV.field("session_hits"))),
                formatString("%.0f", numberOf(TV.field("histories")))});
    }
    T.print(stdout);
  }

  double Encode = metricsHistogramSum(Doc, "encode.pass_seconds");
  double Solve = metricsHistogramSum(Doc, "solver.check_seconds");
  double Cache = metricsHistogramSum(Doc, "cache.probe_seconds");
  double Validate = metricsHistogramSum(Doc, "validate.seconds");
  double Query = metricsHistogramSum(Doc, "server.query_seconds");
  std::printf("\nper-phase (since start): query %.3fs — encode %.3fs / "
              "solve %.3fs / cache %.3fs / validate %.3fs\n",
              Query, Encode, Solve, Cache, Validate);
  (void)TopN;
  return 0;
}

//===----------------------------------------------------------------------===//
// Report mode
//===----------------------------------------------------------------------===//

int profileReport(const JsonValue &Doc, unsigned TopN) {
  const JsonValue *Jobs = Doc.field("jobs");
  if (!Jobs || Jobs->K != JsonValue::Kind::Array)
    return usage("report document has no jobs array");

  std::vector<JobResult> Results;
  for (const JsonValue &JV : Jobs->Items) {
    if (JV.K != JsonValue::Kind::Object)
      continue;
    std::string Error;
    std::optional<JobResult> R = jobResultFromJson(JV, &Error);
    if (!R) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    Results.push_back(std::move(*R));
  }

  double TotalWall = 0, TotalGen = 0, TotalSolve = 0;
  for (const JobResult &R : Results) {
    TotalWall += R.WallSeconds;
    TotalGen += R.Stats.GenSeconds;
    TotalSolve += R.Stats.SolveSeconds;
  }
  bool HasTimings = TotalWall > 0 || TotalGen > 0 || TotalSolve > 0;

  const JsonValue *Campaign = Doc.field("campaign");
  std::printf("report: campaign '%s', %zu jobs\n",
              Campaign ? Campaign->Text.c_str() : "?", Results.size());
  if (!HasTimings)
    std::printf("note: no timing fields — rerun campaign_cli with "
                "--timings for a wall-clock breakdown\n");

  // Phase totals: the metrics block measures the phases directly
  // (every encode pass / solver check / cache probe / validation
  // replay in the run); per-job gen/solve sums are the fallback for
  // reports predating it.
  double Encode = metricsHistogramSum(Doc, "encode.pass_seconds");
  double Solve = metricsHistogramSum(Doc, "solver.check_seconds");
  double Cache = metricsHistogramSum(Doc, "cache.probe_seconds");
  double Validate = metricsHistogramSum(Doc, "validate.seconds");
  if (Encode == 0 && Solve == 0)
    std::printf("\nper-phase (from per-job timings): encode %.3fs / "
                "solve %.3fs\n",
                TotalGen, TotalSolve);
  else
    std::printf("\nper-phase (from metrics): encode %.3fs / solve %.3fs "
                "/ cache %.3fs / validate %.3fs\n",
                Encode, Solve, Cache, Validate);

  // A strict pair's Approx-Strict job that took the Exact-Strict answer
  // as its exact stage (exact_stage_reused; Engine::planGroups pairs
  // them) recorded none of that encode or solve time. Its row charges
  // the pair's Exact-Strict seconds to it, as if it had solved alone,
  // like the paper's columns. A job that solved its own exact stage (a
  // daemon answers each query alone) keeps its own seconds.
  engine::Campaign Specs;
  for (const JobResult &R : Results)
    Specs.Jobs.push_back(R.Spec);
  unsigned Pairs = 0;
  for (const std::vector<size_t> &G : Engine::planGroups(Specs)) {
    if (G.size() != 2)
      continue;
    bool ExactFirst = Results[G[0]].Spec.Strat == Strategy::ExactStrict;
    const JobResult &Exact = Results[G[ExactFirst ? 0 : 1]];
    JobResult &Approx = Results[G[ExactFirst ? 1 : 0]];
    if (!Approx.ExactStageReused)
      continue;
    Approx.Stats.GenSeconds += Exact.Stats.GenSeconds;
    Approx.Stats.SolveSeconds += Exact.Stats.SolveSeconds;
    ++Pairs;
  }

  // Per-configuration rows: the report's own summary groups (one per
  // app x workload x level x strategy), with the columns of the paper's
  // Tables 4/5 plus the false predictions of the boundary ablation.
  // Averages are per job (literals, gen) or per answer (solve).
  auto avgCell = [&](double Total, unsigned Count) {
    return HasTimings && Count ? secondsCell(Total / Count)
                               : std::string("-");
  };
  std::printf("\n");
  TablePrinter T;
  T.setHeader({"Config", "Jobs", "T/O+Unk", "Unsat", "Sat", "Validated",
               "(Diverged)", "False preds", "Avg literals", "Gen",
               "Solve Sat", "Solve Unsat", "Wall", "Share"});
  for (const auto &[Key, G] : groupResults(Results))
    T.addRow({Key, formatString("%u", G.Jobs), formatString("%u", G.Unknown),
              formatString("%u", G.Unsat), formatString("%u", G.Sat),
              formatString("%u", G.Validated),
              formatString("(%u)", G.Diverged),
              formatString("%u", G.FalsePredictions),
              formatString("%llu", static_cast<unsigned long long>(
                                       G.Jobs ? G.Literals / G.Jobs : 0)),
              avgCell(G.GenSeconds, G.Jobs),
              avgCell(G.SatSolveSeconds, G.Sat),
              avgCell(G.UnsatSolveSeconds, G.Unsat),
              secondsCell(G.WallSeconds), shareCell(G.WallSeconds, TotalWall)});
  T.print(stdout);
  if (HasTimings && Pairs)
    std::printf("Approx-Strict Gen/Solve include the Exact-Strict seconds "
                "of its strict pair (%u pair(s) solve that formula once)\n",
                Pairs);

  // Slowest jobs by wall-clock, with the solver-difficulty signal.
  std::vector<const JobResult *> ByWall;
  for (const JobResult &R : Results)
    ByWall.push_back(&R);
  std::sort(ByWall.begin(), ByWall.end(),
            [](const JobResult *A, const JobResult *B) {
              return A->WallSeconds > B->WallSeconds;
            });
  std::printf("\nslowest jobs:\n");
  for (size_t I = 0; I < ByWall.size() && I < TopN; ++I) {
    const JobResult &R = *ByWall[I];
    std::string Extra;
    if (R.TimedOut)
      Extra += " TIMEOUT";
    if (R.CacheHit)
      Extra += " (cached)";
    if (R.SolverStats.Collected)
      Extra += formatString(
          " [%llu conflicts, %llu decisions, %.0f MB]",
          static_cast<unsigned long long>(R.SolverStats.Conflicts),
          static_cast<unsigned long long>(R.SolverStats.Decisions),
          R.SolverStats.MaxMemoryMb);
    std::printf("  %8.3fs  %s %s %s %s seed=%llu: %s%s\n", R.WallSeconds,
                toString(R.Spec.Kind), R.Spec.App.c_str(),
                toString(R.Spec.Level), toString(R.Spec.Strat),
                static_cast<unsigned long long>(R.Spec.Cfg.Seed),
                R.Ok ? toString(R.Outcome) : "failed", Extra.c_str());
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Follow mode (--follow HOST:PORT)
//===----------------------------------------------------------------------===//

/// Blocking connect to HOST:PORT; -1 (with a diagnostic) on failure.
int connectTo(const std::string &Host, unsigned Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    std::fprintf(stderr, "error: connect %s:%u: %s\n", Host.c_str(), Port,
                 std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, const std::string &Line) {
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool readLine(int Fd, std::string &Buf, std::string &Out) {
  for (;;) {
    size_t Nl = Buf.find('\n');
    if (Nl != std::string::npos) {
      Out = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      return true;
    }
    char Chunk[64 * 1024];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

double counterOf(const JsonValue &Doc, const char *Name) {
  const JsonValue *M = Doc.field("metrics");
  const JsonValue *C = M ? M->field("counters") : nullptr;
  if (const JsonValue *V = C ? C->field(Name) : nullptr)
    return numberOf(V);
  // Family-only counters (e.g. server.slow_queries{tenant}) have no
  // unlabeled twin: sum the cells instead.
  const JsonValue *Fams = M ? M->field("families") : nullptr;
  const JsonValue *F = Fams ? Fams->field(Name) : nullptr;
  const JsonValue *Series = F ? F->field("series") : nullptr;
  double Sum = 0;
  if (Series && Series->K == JsonValue::Kind::Array)
    for (const JsonValue &Cell : Series->Items)
      Sum += numberOf(Cell.field("value"));
  return Sum;
}

/// One row per verb/tenant out of a status "latency" sub-object, both
/// rolling windows side by side.
void printLatencyTable(const char *Title, const JsonValue *Sect) {
  if (!Sect || Sect->K != JsonValue::Kind::Object || Sect->Fields.empty())
    return;
  std::printf("\n");
  TablePrinter T;
  T.setHeader({Title, "1m n", "1m p50", "1m p95", "1m p99", "5m n",
               "5m p50", "5m p95", "5m p99"});
  for (const auto &F : Sect->Fields) {
    std::vector<std::string> Row = {F.first};
    for (const char *Win : {"1m", "5m"}) {
      const JsonValue *W = F.second.field(Win);
      Row.push_back(formatString("%.0f", numberOf(W ? W->field("count")
                                                    : nullptr)));
      for (const char *P : {"p50", "p95", "p99"})
        Row.push_back(
            secondsCell(numberOf(W ? W->field(P) : nullptr)));
    }
    T.addRow(std::move(Row));
  }
  T.print(stdout);
}

/// A counter cell with its delta since the previous poll ("120 (+12)").
std::string deltaCell(double Now, const std::map<std::string, double> &Prev,
                      const char *Name) {
  auto It = Prev.find(Name);
  std::string S = formatString("%.0f", Now);
  if (It != Prev.end())
    S += formatString(" (%+.0f)", Now - It->second);
  return S;
}

int followLoop(const std::string &HostPort, double IntervalSec,
               unsigned Count) {
  size_t Colon = HostPort.rfind(':');
  auto Port = Colon != std::string::npos
                  ? parseUnsigned(HostPort.substr(Colon + 1), 1, 65535)
                  : std::nullopt;
  if (!Port)
    return usage("--follow needs HOST:PORT");
  std::string Host = HostPort.substr(0, Colon);

  int Fd = connectTo(Host, *Port);
  if (Fd < 0)
    return 1;
  bool Tty = ::isatty(STDOUT_FILENO) == 1;
  std::string Buf;
  std::map<std::string, double> Prev;
  static const char *Tracked[] = {
      "server.requests",     "server.queries",       "server.errors",
      "server.cache_answers", "server.session_hits", "server.quota_rejections",
      "solver.checks",       "solver.timeouts",      "server.slow_queries"};

  for (uint64_t Poll = 1; Count == 0 || Poll <= Count; ++Poll) {
    std::string Req =
        formatString("{\"id\":%llu,\"verb\":\"status\"}\n",
                     static_cast<unsigned long long>(Poll));
    std::string Resp, Error;
    if (!sendAll(Fd, Req) || !readLine(Fd, Buf, Resp)) {
      std::fprintf(stderr, "error: connection lost (server gone?)\n");
      ::close(Fd);
      return 1;
    }
    std::optional<JsonValue> Doc = parseJson(Resp, &Error);
    if (!Doc || Doc->K != JsonValue::Kind::Object) {
      std::fprintf(stderr, "error: malformed status: %s\n", Error.c_str());
      ::close(Fd);
      return 1;
    }
    const JsonValue *Ok = Doc->field("ok");
    if (!Ok || Ok->K != JsonValue::Kind::Bool || !Ok->B) {
      std::fprintf(stderr, "error: status refused: %s\n", Resp.c_str());
      ::close(Fd);
      return 1;
    }

    if (Tty)
      std::printf("\x1b[H\x1b[J"); // home + clear: redraw in place
    std::printf("isopredict_server %s — up %.1fs, %.0f worker(s)%s"
                "   [poll %llu%s, every %.1fs]\n",
                HostPort.c_str(), numberOf(Doc->field("uptime_seconds")),
                numberOf(Doc->field("workers")),
                Doc->field("draining") && Doc->field("draining")->B
                    ? ", DRAINING"
                    : "",
                static_cast<unsigned long long>(Poll),
                Count ? formatString("/%u", Count).c_str() : "",
                IntervalSec);
    std::printf("traffic: %s requests, %s queries, %s errors, %s slow\n",
                deltaCell(counterOf(*Doc, "server.requests"), Prev,
                          "server.requests")
                    .c_str(),
                deltaCell(counterOf(*Doc, "server.queries"), Prev,
                          "server.queries")
                    .c_str(),
                deltaCell(counterOf(*Doc, "server.errors"), Prev,
                          "server.errors")
                    .c_str(),
                deltaCell(counterOf(*Doc, "server.slow_queries"), Prev,
                          "server.slow_queries")
                    .c_str());
    std::printf("answers: %s cache, %s warm session, %s quota-rejected; "
                "solver: %s checks, %s timeouts\n",
                deltaCell(counterOf(*Doc, "server.cache_answers"), Prev,
                          "server.cache_answers")
                    .c_str(),
                deltaCell(counterOf(*Doc, "server.session_hits"), Prev,
                          "server.session_hits")
                    .c_str(),
                deltaCell(counterOf(*Doc, "server.quota_rejections"), Prev,
                          "server.quota_rejections")
                    .c_str(),
                deltaCell(counterOf(*Doc, "solver.checks"), Prev,
                          "solver.checks")
                    .c_str(),
                deltaCell(counterOf(*Doc, "solver.timeouts"), Prev,
                          "solver.timeouts")
                    .c_str());

    if (const JsonValue *Tenants = Doc->field("tenants");
        Tenants && Tenants->K == JsonValue::Kind::Array &&
        !Tenants->Items.empty()) {
      std::printf("\n");
      TablePrinter T;
      T.setHeader({"Tenant", "Running", "Queued", "Done", "Rejected",
                   "Cache", "Warm", "Histories"});
      for (const JsonValue &TV : Tenants->Items) {
        if (TV.K != JsonValue::Kind::Object)
          continue;
        const JsonValue *Name = TV.field("name");
        T.addRow({Name ? Name->Text : "?",
                  formatString("%.0f", numberOf(TV.field("running"))),
                  formatString("%.0f", numberOf(TV.field("queued"))),
                  formatString("%.0f", numberOf(TV.field("completed"))),
                  formatString("%.0f", numberOf(TV.field("rejected"))),
                  formatString("%.0f", numberOf(TV.field("cache_hits"))),
                  formatString("%.0f", numberOf(TV.field("session_hits"))),
                  formatString("%.0f", numberOf(TV.field("histories")))});
      }
      T.print(stdout);
    }

    const JsonValue *Latency = Doc->field("latency");
    printLatencyTable("Verb",
                      Latency ? Latency->field("verbs") : nullptr);
    printLatencyTable("Tenant",
                      Latency ? Latency->field("tenants") : nullptr);
    std::fflush(stdout);

    for (const char *Name : Tracked)
      Prev[Name] = counterOf(*Doc, Name);
    if (Count == 0 || Poll < Count)
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<long>(IntervalSec * 1000)));
  }
  ::close(Fd);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  unsigned TopN = 5;
  std::string Path, Follow;
  double IntervalSec = 2.0;
  unsigned Count = 0;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--help" || Flag == "-h")
      return usage(nullptr, stdout);
    if (Flag == "--top") {
      const char *V = I + 1 < argc ? argv[++I] : nullptr;
      auto N = V ? parseUnsigned(V, 1) : std::nullopt;
      if (!N)
        return usage("--top needs a positive integer (at most 4294967295)");
      TopN = *N;
    } else if (Flag == "--follow") {
      const char *V = I + 1 < argc ? argv[++I] : nullptr;
      if (!V)
        return usage("--follow needs HOST:PORT");
      Follow = V;
    } else if (Flag == "--interval") {
      const char *V = I + 1 < argc ? argv[++I] : nullptr;
      double S = V ? std::strtod(V, nullptr) : 0;
      if (S <= 0)
        return usage("--interval needs a positive number of seconds");
      IntervalSec = S;
    } else if (Flag == "--count") {
      const char *V = I + 1 < argc ? argv[++I] : nullptr;
      auto N = V ? parseUnsigned(V) : std::nullopt;
      if (!N)
        return usage("--count needs a non-negative integer "
                     "(at most 4294967295)");
      Count = *N;
    } else if (!Flag.empty() && Flag[0] == '-') {
      return usage(("unknown option '" + Flag + "'").c_str());
    } else if (Path.empty()) {
      Path = Flag;
    } else {
      return usage("exactly one input file expected");
    }
  }
  if (!Follow.empty()) {
    if (!Path.empty())
      return usage("--follow takes no input file");
    return followLoop(Follow, IntervalSec, Count);
  }
  if (Path.empty())
    return usage();

  std::string Raw, Error;
  if (!readFile(Path, Raw, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::optional<JsonValue> Doc = parseJson(Raw, &Error);
  if (!Doc || Doc->K != JsonValue::Kind::Object) {
    std::fprintf(stderr, "error: '%s': %s\n", Path.c_str(),
                 Doc ? "not a JSON object" : Error.c_str());
    return 1;
  }

  if (Doc->field("traceEvents"))
    return profileTrace(*Doc, TopN);
  const JsonValue *Schema = Doc->field("schema");
  if (Schema && Schema->Text.rfind("isopredict-campaign-report/", 0) == 0)
    return profileReport(*Doc, TopN);
  if (Schema && Schema->Text.rfind("isopredict-server-status/", 0) == 0)
    return profileStatus(*Doc, TopN);
  return usage(
      "input is not a Chrome trace, campaign report, or server status");
}
