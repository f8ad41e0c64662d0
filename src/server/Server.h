//===- Server.h - Multi-tenant prediction-as-a-service daemon --*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived TCP daemon behind examples/isopredict_server. One
/// accept loop (poll()-driven so a stop request wakes it), one reader
/// thread per connection, and the engine TaskPool executing prediction
/// jobs — the same share-nothing workers a batch campaign uses, fed by
/// the network instead of a campaign vector.
///
/// Queries are answered by one engine::Executor, the same answer path
/// batch campaigns use: result-cache hit (tenant-scoped spec) → warm
/// PredictSession from its SessionPool (history queries; sessions are
/// streaming with an unbounded window, so the extend verb grows them in
/// place and re-keys them under the grown trace's content hash) → cold
/// compute (a fresh session for history queries, the full job pipeline
/// for spec queries) → cache store. The server itself is protocol,
/// admission, telemetry and response writing.
///
/// Lifecycle: SIGINT/SIGTERM (support/Signal) or the shutdown verb stop
/// the accept loop, flush queued-but-unstarted queries as well-formed
/// shutting_down errors, interrupt in-flight solvers
/// (SmtSolver::interruptAll), drain the pool — every started job still
/// gets its response — then close connections and join every thread.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_SERVER_SERVER_H
#define ISOPREDICT_SERVER_SERVER_H

#include "engine/Executor.h"
#include "engine/TaskPool.h"
#include "obs/Metrics.h"
#include "obs/Rolling.h"
#include "server/Protocol.h"
#include "server/Tenant.h"
#include "support/Env.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <thread>

namespace isopredict {
namespace server {

struct ServerOptions {
  /// Listen address; loopback by default (no accidental exposure).
  std::string Host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (port() reports it).
  unsigned Port = 0;
  /// Worker threads of the job pool; 0 = hardware concurrency.
  unsigned Workers = 0;
  /// Idle warm sessions kept across queries (SessionPool LRU).
  size_t SessionCapacity = 8;
  /// Result-cache root shared with batch runs; empty = no cache.
  std::string CacheDir;
  /// Queries slower than this log a structured `slow_query` event (with
  /// tenant, spec hash, outcome and Z3 solver stats) and count in
  /// server.slow_queries{tenant}. Fractional values allow
  /// sub-millisecond thresholds; 0 disables.
  double SlowQueryMs = 1000;
  /// When set, continuous tracing: the Tracer runs in ring-buffer mode
  /// (bounded memory) and rotated Chrome trace files are flushed into
  /// this directory every TraceFlushSec seconds.
  std::string TraceDir;
  unsigned TraceFlushSec = 10;
  size_t TraceRingCapacity = 16384;
  /// Rotated trace files kept in TraceDir (older ones are deleted).
  unsigned TraceKeepFiles = 8;
};

class Server {
public:
  Server(ServerOptions Opts, TenantRegistry Registry);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens. False + \p Error on failure.
  bool start(std::string *Error);

  /// The bound port (after start(); resolves Port == 0).
  unsigned port() const { return BoundPort; }

  /// Serves until a stop is requested (signal or shutdown verb), then
  /// drains and tears down. Call after start(), from the owning thread.
  void serve();

  /// Asks serve() to wind down; safe from any thread.
  void requestStop();

private:
  /// One client connection. send() is the only writer and serializes
  /// frames under WriteMutex, so responses from reader threads and pool
  /// workers interleave at line granularity only.
  struct Conn {
    int Fd = -1;
    std::mutex WriteMutex;
    std::atomic<bool> Closed{false};
    /// Set by the reader thread as its last act, so the accept loop can
    /// join it without blocking.
    std::atomic<bool> ReaderDone{false};
    std::atomic<Tenant *> T{nullptr};
    ~Conn();
    void send(const std::string &Line);
  };

  /// One admitted query waiting for / occupying a pool slot.
  struct QueryJob {
    std::shared_ptr<Conn> C;
    Request Req;
    /// Spec as the client sees it, the tenant-scoped CacheSpec, and
    /// the stored trace of a history query.
    engine::Executor::Query Q;
    Tenant *T = nullptr;
  };

  /// Counts a server.errors and answers \p Req with an error frame.
  /// Returns false, the error outcome of the verb handlers below.
  static bool sendError(Conn &C, const Request &Req, const char *Code,
                        const std::string &Message);
  void connectionLoop(std::shared_ptr<Conn> C);
  void handleRequest(const std::shared_ptr<Conn> &C, Request Req);
  /// Sync verb handlers return false when they answered with an error
  /// (feeds the server.requests{tenant,verb,outcome} family).
  bool handleAuth(const std::shared_ptr<Conn> &C, const Request &Req);
  bool handleUpload(const std::shared_ptr<Conn> &C, const Request &Req,
                    Tenant &T);
  bool handleObserve(const std::shared_ptr<Conn> &C, const Request &Req,
                     Tenant &T);
  bool handleExtend(const std::shared_ptr<Conn> &C, const Request &Req,
                    Tenant &T);
  /// Returns true when it dispatched the query, which it counts in
  /// server.requests itself, before a worker can answer it.
  bool handleQuery(const std::shared_ptr<Conn> &C, Request Req, Tenant &T);
  void submitJob(QueryJob Job);
  void executeQuery(QueryJob &Job);
  /// Mirrors per-tenant and session-pool state into labeled gauges and
  /// snapshots the registry — the one source behind statusJson and the
  /// metrics verb (JSON and Prometheus agree by construction).
  obs::MetricsSnapshot telemetrySnapshot();
  std::string statusJson(const Request &Req);
  std::string metricsJson(const Request &Req);
  /// Per-verb request / per-tenant query latency rings (status
  /// percentiles).
  obs::RollingHistogram &latencyRing(std::map<std::string, obs::RollingHistogram> &M,
                                     const std::string &Key);
  void writeLatencyJson(JsonWriter &J);
  void traceFlushLoop();
  /// Joins and drops the readers whose connection has ended.
  void reapReaders();
  void drainAndClose();

  ServerOptions Opts;
  TenantRegistry Registry;
  engine::TaskPool Pool;
  engine::Executor Exec;

  /// Guards ListenFd between requestStop() and its close.
  std::mutex ListenMutex;
  int ListenFd = -1;
  unsigned BoundPort = 0;
  std::atomic<bool> Stopping{false};
  Timer Uptime;

  /// One accepted connection and the thread reading it. serve() joins
  /// and drops the entries whose reader has finished, at its next poll
  /// wake-up (at most 200 ms later); the socket closes once that entry
  /// and every in-flight answer have let go of the Conn. drainAndClose()
  /// unblocks and joins the rest.
  struct Reader {
    std::shared_ptr<Conn> C;
    std::thread Thread;
  };
  std::mutex ConnMutex;
  std::vector<Reader> Readers;

  /// Per-tenant FIFO of admitted-but-not-running queries.
  std::mutex PendingMutex;
  std::map<Tenant *, std::deque<QueryJob>> Pending;

  /// 5-minute rings (5 s slices); status reads 1 m and 5 m windows.
  std::mutex LatencyMutex;
  std::map<std::string, obs::RollingHistogram> VerbLatency;
  std::map<std::string, obs::RollingHistogram> TenantLatency;

  /// Continuous-tracing flusher (TraceDir mode).
  std::thread TraceFlusher;
  std::mutex FlushMutex;
  std::condition_variable FlushCv;
  unsigned TraceSeq = 0;
};

} // namespace server
} // namespace isopredict

#endif // ISOPREDICT_SERVER_SERVER_H
