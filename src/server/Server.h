//===- Server.h - Multi-tenant prediction-as-a-service daemon --*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived TCP daemon behind examples/isopredict_server. One
/// poll() loop on the serving thread watches the listening socket, the
/// stop signal and every client socket: it accepts, reads, frames
/// request lines and answers the sync verbs inline, in arrival order
/// per connection. Queries go to the engine TaskPool — the same
/// share-nothing workers a batch campaign uses, fed by the network
/// instead of a campaign vector — whose workers write their own
/// answers. Answers are written without blocking (Conn), so the loop
/// never waits on a client. The thread count does not grow with the
/// connections.
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
/// the serve loop, flush queued-but-unstarted queries as well-formed
/// shutting_down errors, interrupt in-flight solvers
/// (SmtSolver::interruptAll), drain the pool — every started job still
/// gets its response — then close the connections.
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
#include <chrono>
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
  /// One client connection. send() is the only writer: it queues a frame
  /// in Out and writes what the socket takes without blocking, so frames
  /// from the serve loop and pool workers interleave at line granularity
  /// only, and the loop never waits on a client. The loop writes the rest
  /// as the socket drains (and handles no more of the client's lines
  /// meanwhile); a pool worker waits for its own answer (drain()).
  /// Answers a client leaves queued for the send timeout (1 s) mark the
  /// Conn Closed and shut the socket down; the loop then drops it. The
  /// socket closes once the loop and every in-flight answer have let go.
  struct Conn {
    int Fd = -1;
    std::atomic<bool> Closed{false};
    /// Write side, under WriteMutex: the bytes the socket has not taken
    /// yet, and since when some have been waiting.
    std::mutex WriteMutex;
    std::string Out;
    std::chrono::steady_clock::time_point Queued;
    /// Read side, touched only by the serve loop: the bytes read and not
    /// yet handled, whether a line was handled last round (another may
    /// be buffered), whether the rest of an oversized frame is being
    /// swallowed, and the bound tenant.
    std::string Buf;
    bool Ready = false;
    bool Discarding = false;
    Tenant *T = nullptr;
    ~Conn();
    void send(const std::string &Line);
    /// Writes what the socket takes of the queued bytes; true while some
    /// are left.
    bool flush();
    /// Waits until the queued bytes are written or the Conn closes.
    void drain();
    void close();

  private:
    void flushLocked();
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
  /// One read() from \p C into its buffer. False once the client hung
  /// up or the read failed.
  static bool readFrom(Conn &C);
  /// Frames the next complete line in \p C's buffer and hands it to
  /// handleRequest. False when no line was left.
  bool handleLine(const std::shared_ptr<Conn> &C);
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
