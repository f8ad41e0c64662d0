//===- Tenant.cpp - Tenant identity, quotas, and owned histories ----------===//

#include "server/Tenant.h"

#include "history/TraceIO.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include <tuple>

using namespace isopredict;
using namespace isopredict::server;
using engine::JobSpec;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

} // namespace

bool Tenant::putHistory(const std::string &Name, History H) {
  uint64_t ContentHash = fnv1a(writeTrace(H));
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Histories.find(Name);
  if (It == Histories.end() && Histories.size() >= Cfg.MaxHistories)
    return false;
  StoredHistory S;
  S.H = std::make_shared<const History>(std::move(H));
  S.ContentHash = ContentHash;
  Histories[Name] = std::move(S);
  return true;
}

std::optional<StoredHistory>
Tenant::getHistory(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Histories.find(Name);
  if (It == Histories.end())
    return std::nullopt;
  return It->second;
}

size_t Tenant::numHistories() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Histories.size();
}

Tenant::Admit Tenant::admitQuery() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (C.Running < Cfg.MaxConcurrent) {
    ++C.Running;
    return Admit::Run;
  }
  if (C.Queued < Cfg.MaxQueued) {
    ++C.Queued;
    return Admit::Queue;
  }
  ++C.Rejected;
  return Admit::Reject;
}

void Tenant::promoteQueued() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (C.Queued > 0)
    --C.Queued;
  ++C.Running;
}

bool Tenant::finishQuery() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (C.Running > 0)
    --C.Running;
  ++C.Completed;
  return C.Queued > 0;
}

void Tenant::dropQueued() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (C.Queued > 0)
    --C.Queued;
  ++C.Rejected;
}

Tenant::Counters Tenant::counters() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return C;
}

void Tenant::noteCacheHit() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++C.CacheHits;
}

void Tenant::noteSessionHit() {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++C.SessionHits;
}

JobSpec server::scopedSpec(const Tenant &T, const JobSpec &S) {
  JobSpec Scoped = S;
  Scoped.App = T.config().AppId + ":" + S.App;
  return Scoped;
}

JobSpec server::scopedHistorySpec(const Tenant &T, const StoredHistory &H,
                                  const JobSpec &S) {
  JobSpec Scoped = S;
  Scoped.App =
      formatString("@%s/%016llx", T.config().AppId.c_str(),
                   static_cast<unsigned long long>(H.ContentHash));
  return Scoped;
}

TenantRegistry::TenantRegistry() : Open(true) {
  TenantConfig Cfg;
  Cfg.Name = "default";
  Cfg.AppId = "default";
  Cfg.Admin = true;
  // Open mode serves one implicit tenant, so give it room: the whole
  // worker pool and a deep queue.
  Cfg.MaxConcurrent = 64;
  Cfg.MaxQueued = 1024;
  Cfg.MaxHistories = 256;
  Tenants.push_back(std::make_unique<Tenant>(std::move(Cfg)));
}

std::optional<TenantRegistry>
TenantRegistry::fromJson(const std::string &Text, std::string *Error) {
  std::optional<JsonValue> Doc = parseJson(Text, Error);
  if (!Doc)
    return std::nullopt;
  const JsonValue *List = Doc->field("tenants");
  if (!List || List->K != JsonValue::Kind::Array || List->Items.empty()) {
    if (Error)
      *Error = "config must carry a non-empty \"tenants\" array";
    return std::nullopt;
  }
  TenantRegistry R;
  R.Open = false;
  R.Tenants.clear(); // Drop the implicit open-mode tenant.
  for (const JsonValue &Entry : List->Items) {
    TenantConfig Cfg;
    if (const JsonValue *F = Entry.field("name"))
      Cfg.Name = F->Text;
    if (Cfg.Name.empty()) {
      if (Error)
        *Error = "tenant entry missing \"name\"";
      return std::nullopt;
    }
    for (const auto &T : R.Tenants)
      if (T->name() == Cfg.Name) {
        if (Error)
          *Error = "duplicate tenant name '" + Cfg.Name + "'";
        return std::nullopt;
      }
    Cfg.AppId = Cfg.Name;
    if (const JsonValue *F = Entry.field("app_id"); F && !F->Text.empty())
      Cfg.AppId = F->Text;
    if (const JsonValue *F = Entry.field("api_key"))
      Cfg.ApiKey = F->Text;
    // Quotas are `unsigned`: a value out of range is a config error,
    // never wrapped (a max_concurrent of 2^32 would be 0, and that
    // tenant could never run a query).
    for (auto [Name, Min, Field] :
         {std::tuple{"max_concurrent", 1u, &Cfg.MaxConcurrent},
          std::tuple{"max_queued", 0u, &Cfg.MaxQueued},
          std::tuple{"max_histories", 0u, &Cfg.MaxHistories}}) {
      const JsonValue *F = Entry.field(Name);
      if (!F)
        continue;
      std::optional<unsigned> N = parseUnsigned(F->Text, Min);
      if (!N) {
        if (Error)
          *Error = formatString("tenant '%s': \"%s\" must be an integer in "
                                "[%u, 4294967295], got '%s'",
                                Cfg.Name.c_str(), Name, Min, F->Text.c_str());
        return std::nullopt;
      }
      *Field = *N;
    }
    if (const JsonValue *F = Entry.field("admin"))
      Cfg.Admin = F->K == JsonValue::Kind::Bool && F->B;
    R.Tenants.push_back(std::make_unique<Tenant>(std::move(Cfg)));
  }
  return R;
}

Tenant *TenantRegistry::authenticate(const std::string &Name,
                                     const std::string &ApiKey) {
  for (const auto &T : Tenants)
    if (T->name() == Name)
      return T->config().ApiKey == ApiKey ? T.get() : nullptr;
  return nullptr;
}

Tenant *TenantRegistry::defaultTenant() {
  return Open ? Tenants.front().get() : nullptr;
}

std::vector<Tenant *> TenantRegistry::tenants() {
  std::vector<Tenant *> Out;
  Out.reserve(Tenants.size());
  for (const auto &T : Tenants)
    Out.push_back(T.get());
  return Out;
}
