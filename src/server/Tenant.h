//===- Tenant.h - Tenant identity, quotas, and owned histories -*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-tenant state of the prediction service. A Tenant (name /
/// app-id / api-key) owns the histories its clients upload or observe,
/// a concurrency + queue quota for its prediction jobs, and its own
/// traffic counters. The app-id additionally namespaces everything the
/// tenant writes into the shared result cache: a tenant-scoped JobSpec
/// prefixes the spec's App with "<app_id>:" (or replaces it with
/// "@<app_id>/<content-hash>" for uploaded histories), so two tenants
/// asking the identical query occupy different cache entries and can
/// never read each other's results — pinned by tests/server_test.cpp.
///
/// The registry is loaded once from a JSON config file
/// ({"tenants": [{"name", "app_id", "api_key", ...}]}) or, without
/// one, runs open: a single implicit admin tenant every connection is
/// bound to.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_SERVER_TENANT_H
#define ISOPREDICT_SERVER_TENANT_H

#include "engine/Campaign.h"
#include "history/History.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace isopredict {
namespace server {

struct TenantConfig {
  std::string Name;
  /// Cache/identity namespace; defaults to Name.
  std::string AppId;
  /// Shared secret of the auth verb; empty = no key required.
  std::string ApiKey;
  /// Queries of this tenant executing at once; further ones queue.
  unsigned MaxConcurrent = 4;
  /// Queries held waiting for a worker; beyond this the server answers
  /// a well-formed quota_exceeded error (never a disconnect).
  unsigned MaxQueued = 64;
  /// Histories the tenant may keep registered.
  unsigned MaxHistories = 64;
  /// May issue the shutdown verb.
  bool Admin = false;
};

/// One registered history (upload / observe) with its identity.
struct StoredHistory {
  std::shared_ptr<const History> H;
  /// FNV-1a over the canonical trace text — the cache-namespacing
  /// identity: renaming or re-uploading the same trace hits the same
  /// entries.
  uint64_t ContentHash = 0;
};

class Tenant {
public:
  explicit Tenant(TenantConfig Cfg) : Cfg(std::move(Cfg)) {}

  const TenantConfig &config() const { return Cfg; }
  const std::string &name() const { return Cfg.Name; }

  /// Registers \p H under \p Name (replacing any previous history of
  /// that name). Fails (returns false) when the history quota is full.
  bool putHistory(const std::string &Name, History H);

  /// The named history, or std::nullopt.
  std::optional<StoredHistory> getHistory(const std::string &Name) const;

  size_t numHistories() const;

  //===--------------------------------------------------------------------===
  // Quota accounting (driven by the server's dispatch loop)
  //===--------------------------------------------------------------------===

  /// Outcome of offering one query to the tenant's quota.
  enum class Admit { Run, Queue, Reject };

  /// Accounts one incoming query: Run consumes a concurrency slot,
  /// Queue consumes a queue slot, Reject consumes nothing (and bumps
  /// the rejected counter).
  Admit admitQuery();

  /// A queued query was promoted to running (queue slot -> run slot).
  void promoteQueued();

  /// A running query finished. Returns true when a queued query is
  /// waiting for promotion.
  bool finishQuery();

  /// A queued query was flushed without running (shutdown drain):
  /// releases its queue slot and counts it rejected.
  void dropQueued();

  /// Traffic counters for the status verb.
  struct Counters {
    unsigned Running = 0;
    unsigned Queued = 0;
    uint64_t Completed = 0;
    uint64_t Rejected = 0;
    uint64_t CacheHits = 0;
    uint64_t SessionHits = 0;
  };
  Counters counters() const;

  void noteCacheHit();
  void noteSessionHit();

private:
  TenantConfig Cfg;
  mutable std::mutex Mutex;
  std::map<std::string, StoredHistory> Histories;
  Counters C;
};

/// Rewrites \p S into the tenant's cache namespace (see file comment).
/// Results destined for the shared ResultStore carry the scoped spec —
/// the store verifies that a recorded spec re-derives the looked-up
/// canonical spec, so scoping must happen on both store and lookup —
/// and are rewritten back before they leave the server.
engine::JobSpec scopedSpec(const Tenant &T, const engine::JobSpec &S);

/// The scoped spec of a query over an uploaded history: the App becomes
/// "@<app_id>/<content-hash-hex>" — content-addressed, so the same
/// trace under two names shares entries while two tenants never do.
engine::JobSpec scopedHistorySpec(const Tenant &T, const StoredHistory &H,
                                  const engine::JobSpec &S);

/// Loads every tenant from config JSON \p Text. On success the
/// registry owns one Tenant per entry; std::nullopt + \p Error on
/// malformed config (unknown fields are ignored; names must be
/// non-empty and unique; quotas must be integers an `unsigned` holds,
/// max_concurrent at least 1).
class TenantRegistry {
public:
  /// The open-mode registry: one implicit admin tenant ("default",
  /// empty api key) every connection binds to automatically.
  TenantRegistry();

  /// Parses {"tenants": [...]} config text.
  static std::optional<TenantRegistry> fromJson(const std::string &Text,
                                                std::string *Error);

  /// Authenticates the auth verb: the named tenant when the key
  /// matches, nullptr otherwise.
  Tenant *authenticate(const std::string &Name, const std::string &ApiKey);

  /// The implicit tenant connections start on in open mode; nullptr
  /// when a config file was loaded (auth required).
  Tenant *defaultTenant();

  std::vector<Tenant *> tenants();

private:
  bool Open = false;
  std::vector<std::unique_ptr<Tenant>> Tenants;
};

} // namespace server
} // namespace isopredict

#endif // ISOPREDICT_SERVER_TENANT_H
