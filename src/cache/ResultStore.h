//===- ResultStore.h - Persistent job-result cache ------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A durable, content-addressed store of completed job outcomes. Jobs
/// are pure functions of their JobSpec (modulo solver timeouts), so a
/// result computed once is valid forever — until the *tool* changes in
/// a way that can alter outcomes. The layout encodes exactly that
/// invalidation story:
///
///   <root>/<tool_version>/<spec_hash>.json
///
/// One file per job, named by engine::specHash and namespaced by
/// engine::toolVersion(): bumping the version orphans every old entry
/// at once (no scanning, no TTLs), and entries are shareable across
/// machines — the cache directory can live on shared storage or be
/// rsynced between campaign workers.
///
/// Writes are atomic (tmp + rename, src/support/Fs.h), so concurrent
/// workers — or concurrent campaign_cli processes pointed at the same
/// directory — race benignly: both compute the same bytes and the last
/// rename wins. Reads are paranoid: a missing, unparsable, wrong-
/// version, or wrong-spec entry is simply a miss, and the engine will
/// recompute and overwrite it. Corruption can cost time, never
/// correctness.
///
/// Entries preserve the full JSON job entry (JobIo round-trip,
/// timings included), so a warm re-run reproduces the cold run's
/// report byte-for-byte (timing fields excepted) and can still
/// attribute the original compute cost.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_CACHE_RESULTSTORE_H
#define ISOPREDICT_CACHE_RESULTSTORE_H

#include "engine/Report.h"

#include <optional>
#include <string>

namespace isopredict {
namespace cache {

/// True when \p R is safe to persist: the job ran uninterrupted, and no
/// outcome smells of a solver timeout. Unknown outcomes are *not* pure
/// functions of the spec — a faster machine (or a luckier run) may
/// decide them — so caching them would freeze transient weakness into
/// every future run.
bool cacheable(const engine::JobResult &R);

/// How a Predict result's constraint system was encoded: one-shot
/// (campaign jobs, the server's spec queries) or by a server history
/// session. Sat/unsat outcomes agree across modes, but default-report
/// bytes do not: a session query on a warm session carries a
/// base_prefix_reused marker and per-query literal counts that no
/// one-shot run emits. Entries therefore record their mode and only
/// ever answer lookups from the same mode — a cache shared between
/// modes stays correct, each mode just fills its own entries.
enum class EncodingMode : uint8_t { OneShot, Session };

/// The mode of a result for \p S: Session when a history session
/// answered it (\p BySession), OneShot otherwise.
EncodingMode encodingModeFor(const engine::JobSpec &S, bool BySession);

class ResultStore {
public:
  /// \p RootDir is created lazily on the first store(); lookups
  /// against a non-existent directory are plain misses.
  explicit ResultStore(std::string RootDir);

  const std::string &root() const { return Root; }

  /// Path of the entry for \p S: <root>/<toolVersion()>/<hash>.json
  /// (OneShot) or <hash>.session.json (Session) — the two modes cache
  /// side by side rather than overwriting each other.
  std::string entryPath(const engine::JobSpec &S,
                        EncodingMode Mode = EncodingMode::OneShot) const;

  /// Returns the cached result for \p S, with CacheHit set, or
  /// std::nullopt on miss. Every integrity failure — unreadable file,
  /// malformed JSON, schema/version drift, an entry recorded under a
  /// different encoding mode than \p Mode, an entry whose recorded
  /// spec does not re-derive \p S's canonical spec (hash collision or
  /// tampering) — degrades to a miss.
  std::optional<engine::JobResult>
  lookup(const engine::JobSpec &S,
         EncodingMode Mode = EncodingMode::OneShot) const;

  /// All-or-nothing one-shot lookup for one scheduling group (job
  /// \p Indices into \p C, as planned by Engine::planGroups): the
  /// cached results of every member, or std::nullopt if any member
  /// misses. This is THE cache-consumption policy: the engine executes
  /// it and campaign_cli --dry-run previews it, so sharing it is what
  /// keeps preview == run.
  std::optional<std::vector<engine::JobResult>>
  lookupGroup(const engine::Campaign &C,
              const std::vector<size_t> &Indices) const;

  /// Persists \p R (computed under \p Mode) at its spec's entry path
  /// (atomic write; creates directories on demand). The caller gates
  /// on cacheable(). Returns false (and sets \p Error when non-null)
  /// on I/O failure.
  bool store(const engine::JobResult &R,
             EncodingMode Mode = EncodingMode::OneShot,
             std::string *Error = nullptr) const;

private:
  std::string Root;
};

} // namespace cache
} // namespace isopredict

#endif // ISOPREDICT_CACHE_RESULTSTORE_H
