//===- SessionPool.cpp - LRU pool of warm PredictSessions -----------------===//

#include "engine/SessionPool.h"

#include "obs/Metrics.h"
#include "support/StrUtil.h"

using namespace isopredict;
using namespace isopredict::engine;

std::string SessionPool::key(const std::string &AppId, uint64_t ContentHash,
                             bool Prune) {
  return formatString("%s|%016llx|%u", AppId.c_str(),
                      static_cast<unsigned long long>(ContentHash),
                      Prune ? 1u : 0u);
}

std::unique_ptr<PredictSession> SessionPool::acquire(const std::string &Key) {
  static obs::Counter &MHits =
      obs::Metrics::global().counter("server.session_hits");
  static obs::Counter &MMisses =
      obs::Metrics::global().counter("server.session_misses");
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It == Entries.end()) {
    ++Misses;
    MMisses.inc();
    return nullptr;
  }
  std::unique_ptr<PredictSession> S = std::move(It->second.S);
  Entries.erase(It);
  ++Hits;
  MHits.inc();
  return S;
}

void SessionPool::release(const std::string &Key,
                          std::unique_ptr<PredictSession> S) {
  if (!S || Capacity == 0)
    return;
  static obs::Counter &MEvictions =
      obs::Metrics::global().counter("server.session_evictions");
  static obs::Gauge &MSize = obs::Metrics::global().gauge("server.sessions");
  // Destroy evicted/replaced sessions outside the lock (a session owns
  // a whole Z3 context; teardown is not cheap).
  std::unique_ptr<PredictSession> Replaced, Evicted;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Entry &E = Entries[Key];
    Replaced = std::move(E.S); // Newest wins on a same-key re-release.
    E.S = std::move(S);
    E.LastUsed = ++Tick;
    if (Entries.size() > Capacity) {
      auto Lru = Entries.begin();
      for (auto It = Entries.begin(); It != Entries.end(); ++It)
        if (It->second.LastUsed < Lru->second.LastUsed)
          Lru = It;
      Evicted = std::move(Lru->second.S);
      Entries.erase(Lru);
      ++Evictions;
      MEvictions.inc();
    }
    MSize.set(static_cast<int64_t>(Entries.size()));
  }
}

void SessionPool::clear() {
  std::map<std::string, Entry> Doomed;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Doomed.swap(Entries);
    obs::Metrics::global().gauge("server.sessions").set(0);
  }
}

SessionPool::Stats SessionPool::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  Stats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Size = Entries.size();
  S.Capacity = Capacity;
  return S;
}
