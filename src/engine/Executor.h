//===- Executor.h - The one answer path of jobs and queries ----*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Answers one job the same way for every caller — Engine::run's
/// campaign groups and the server's queries:
///
///   1. result-cache probe (cache.probe span, cache.hits/misses);
///   2. warm session from the SessionPool (history queries);
///   3. compute: the observe → predict → validate pipeline of
///      Figure 4, or a session query on a stored history;
///   4. store the result when cache::cacheable() allows.
///
/// Strict pairs (Engine::planGroups) run the same steps per pair: an
/// all-or-nothing pair probe, the Exact-Strict job, then the
/// Approx-Strict job with that job's answer as its solved exact stage
/// (and, when that stage settles it, its validation too), per-member
/// stores. Encoding-share groups (EngineOptions::ShareEncodings) run
/// them per group: an all-or-nothing group probe, one plain
/// PredictSession for the group, one query per member, per-member
/// stores scoped by the group fingerprint.
///
/// The executor owns the result store and the warm-session pool; every
/// method is safe to call concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_EXECUTOR_H
#define ISOPREDICT_ENGINE_EXECUTOR_H

#include "cache/ResultStore.h"
#include "engine/Engine.h"
#include "engine/SessionPool.h"

#include <atomic>
#include <functional>
#include <memory>
#include <optional>

namespace isopredict {
namespace engine {

/// Runs \p App once against a fresh serial store: the observed
/// execution that Observe, Predict and Stream jobs (and the server's
/// observe verb) start from.
RunResult observe(Application &App, const WorkloadConfig &Cfg);

/// Which step of the answer path produced a result (the server's
/// "answered_by" field).
enum class AnsweredBy { Cache, WarmSession, Session, Engine };

const char *toString(AnsweredBy A); // "cache", "warm_session", ...

class Executor {
public:
  /// Cache, share and stream settings come from \p O; \p
  /// SessionCapacity bounds the warm-session pool (0 = no pooling, the
  /// batch engine's setting).
  explicit Executor(const EngineOptions &O, size_t SessionCapacity = 0);

  /// One query.
  struct Query {
    /// What was asked; the answer carries this identity.
    JobSpec Spec;
    /// Result-cache identity (the server scopes it per tenant).
    JobSpec CacheSpec;
    /// History queries: the trace to predict on (nothing is observed),
    /// its content hash, and the owner namespacing its warm sessions
    /// (the tenant's app-id). Null for jobs.
    std::shared_ptr<const History> Hist;
    uint64_t ContentHash = 0;
    std::string Owner;
  };

  struct Answer {
    JobResult R;
    AnsweredBy By = AnsweredBy::Engine;
  };

  /// Runs the answer path for \p Q.
  Answer answer(const Query &Q);

  /// Answers one scheduling group of \p C (Engine::planGroups) into the
  /// pre-allocated \p Results slots, calling \p Finished after each.
  void runGroup(const Campaign &C, const std::vector<size_t> &Indices,
                std::vector<JobResult> &Results,
                const std::function<void(size_t)> &Finished);

  /// After the server's extend verb: grows \p Owner's pooled sessions of
  /// the history \p OldHash (its pre-extend content hash, \p OldTxns
  /// transactions) by \p Delta in place and re-keys them under \p
  /// NewHash. A session a concurrent query holds is missed and ages out
  /// of the LRU. Returns the number of sessions grown.
  unsigned extendSessions(const std::string &Owner, uint64_t OldHash,
                          size_t OldTxns, const History &Delta,
                          uint64_t NewHash);

  SessionPool &sessions() { return Sessions; }
  bool caching() const { return Store.has_value(); }
  unsigned cacheHits() const { return Hits.load(); }
  unsigned cacheMisses() const { return Misses.load(); }

private:
  /// The Exact-Strict half of a strict pair, as its Approx-Strict half
  /// takes it over (defined in Executor.cpp).
  struct StrictStage;

  std::optional<JobResult> probe(const JobSpec &S, cache::EncodingMode Mode);
  /// The all-or-nothing probe of a multi-job group: when every member
  /// hits, delivers them all into \p Results and returns true.
  bool deliverCachedGroup(const Campaign &C, const std::vector<size_t> &Indices,
                          std::vector<JobResult> &Results,
                          const std::function<void(size_t)> &Finished);
  void store(const JobResult &R, const JobSpec &CacheSpec,
             cache::EncodingMode Mode, uint64_t GroupHash = 0);
  JobResult compute(const JobSpec &Spec, StrictStage *Stage = nullptr);
  Answer queryHistory(const Query &Q);
  void runStrictPair(const Campaign &C, const std::vector<size_t> &Indices,
                     std::vector<JobResult> &Results,
                     const std::function<void(size_t)> &Finished);
  void runShareGroup(const Campaign &C, const std::vector<size_t> &Indices,
                     std::vector<JobResult> &Results,
                     const std::function<void(size_t)> &Finished);
  /// Predict (through \p Shared when an encoding-share group runs, else
  /// one-shot) and validate a Sat answer. In a strict pair (\p Stage),
  /// the Exact-Strict job leaves its answer in \p Stage and the
  /// Approx-Strict job takes it over as its exact stage.
  void predictInto(JobResult &R, const JobSpec &Spec, const History &Observed,
                   PredictSession *Shared = nullptr,
                   StrictStage *Stage = nullptr);

  std::optional<cache::ResultStore> Store;
  bool ShareEncodings;
  bool StreamFromScratch;
  SessionPool Sessions;
  std::atomic<unsigned> Hits{0}, Misses{0};
};

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_EXECUTOR_H
