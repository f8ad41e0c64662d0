//===- SessionPool.h - LRU pool of warm PredictSessions -------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps warm PredictSessions between queries, owned by the Executor. A
/// hot (tenant × history) pair answers repeat queries without
/// re-encoding the shared base prefix — prefix reuse
/// across requests instead of within one campaign group.
///
/// Checkout model: acquire() *removes* an idle session from the pool
/// (or reports a miss, in which case the caller builds one), the caller
/// runs its query outside any pool lock, and release() puts the session
/// back — inserting it fresh on a miss, evicting the least-recently
/// used entry beyond capacity. Two concurrent queries on the same key
/// simply see one hit and one miss; the second release replaces the
/// first session (newest wins), so the pool never holds more than one
/// idle session per key.
///
/// Keys bake in the tenant's app-id, the history's content hash, and
/// the prune flag (each plan has its own shared prefix), so warm
/// state never leaks across tenants or encoding variants.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENGINE_SESSIONPOOL_H
#define ISOPREDICT_ENGINE_SESSIONPOOL_H

#include "predict/PredictSession.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace isopredict {
namespace engine {

class SessionPool {
public:
  /// \p Capacity idle sessions at most; 0 disables pooling (every
  /// acquire misses, every release discards).
  explicit SessionPool(size_t Capacity) : Capacity(Capacity) {}

  /// The pool key of one (tenant app-id × history × prune) constellation.
  static std::string key(const std::string &AppId, uint64_t ContentHash,
                         bool Prune);

  /// Takes the idle session for \p Key out of the pool; nullptr on miss.
  std::unique_ptr<PredictSession> acquire(const std::string &Key);

  /// Returns \p S to the pool under \p Key, evicting the LRU entry when
  /// over capacity.
  void release(const std::string &Key, std::unique_ptr<PredictSession> S);

  /// Drops every pooled session (shutdown; Z3 contexts are freed).
  void clear();

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    size_t Size = 0;
    size_t Capacity = 0;
  };
  Stats stats() const;

private:
  struct Entry {
    std::unique_ptr<PredictSession> S;
    uint64_t LastUsed = 0;
  };

  const size_t Capacity;
  mutable std::mutex Mutex;
  std::map<std::string, Entry> Entries;
  uint64_t Tick = 0;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace engine
} // namespace isopredict

#endif // ISOPREDICT_ENGINE_SESSIONPOOL_H
