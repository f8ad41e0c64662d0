//===- Smt.cpp - RAII wrapper over the Z3 C API ---------------*- C++ -*-===//

#include "smt/Smt.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "support/Env.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include <z3.h>

using namespace isopredict;

const char *isopredict::toString(SmtResult R) {
  switch (R) {
  case SmtResult::Sat:
    return "sat";
  case SmtResult::Unsat:
    return "unsat";
  case SmtResult::Unknown:
    return "unknown";
  }
  return "unknown";
}

std::optional<SmtResult>
isopredict::smtResultFromString(std::string_view Name) {
  if (Name == "sat")
    return SmtResult::Sat;
  if (Name == "unsat")
    return SmtResult::Unsat;
  if (Name == "unknown")
    return SmtResult::Unknown;
  return std::nullopt;
}

/// Z3 errors indicate a malformed term or an internal failure; both are
/// programmatic errors for this code base, so die loudly.
static void errorHandler(Z3_context Ctx, Z3_error_code Code) {
  std::fprintf(stderr, "fatal Z3 error %d: %s\n", static_cast<int>(Code),
               Z3_get_error_msg(Ctx, Code));
  std::abort();
}

SmtContext::SmtContext() {
  Z3_config Cfg = Z3_mk_config();
  Z3_set_param_value(Cfg, "model", "true");
  // Legacy context: all ASTs live until Z3_del_context.
  Ctx = Z3_mk_context(Cfg);
  Z3_del_config(Cfg);
  Z3_set_error_handler(Ctx, errorHandler);
  TrueAst = Z3_mk_true(Ctx);
  FalseAst = Z3_mk_false(Ctx);
}

SmtContext::~SmtContext() { Z3_del_context(Ctx); }

SmtExpr SmtContext::boolVar(const std::string &Name) {
  Z3_symbol Sym = Z3_mk_string_symbol(Ctx, Name.c_str());
  return {Z3_mk_const(Ctx, Sym, Z3_mk_bool_sort(Ctx)), 1};
}

SmtExpr SmtContext::intVar(const std::string &Name) {
  Z3_symbol Sym = Z3_mk_string_symbol(Ctx, Name.c_str());
  // Integer terms are not literals by themselves; comparisons over them
  // are counted when built.
  return {Z3_mk_const(Ctx, Sym, Z3_mk_int_sort(Ctx)), 0};
}

SmtExpr SmtContext::boolVal(bool V) {
  return {V ? Z3_mk_true(Ctx) : Z3_mk_false(Ctx), 1};
}

SmtExpr SmtContext::intVal(int64_t V) {
  return {Z3_mk_int64(Ctx, V, Z3_mk_int_sort(Ctx)), 0};
}

SmtExpr SmtContext::mkNot(SmtExpr A) {
  assert(A.valid() && "mkNot on invalid expr");
  return {Z3_mk_not(Ctx, A.Ast), A.Lits};
}

SmtExpr SmtContext::mkAnd(const std::vector<SmtExpr> &Args) {
  if (Args.empty())
    return boolVal(true);
  if (Args.size() == 1)
    return Args[0];
  std::vector<Z3_ast> Asts;
  Asts.reserve(Args.size());
  uint64_t Lits = 0;
  for (const SmtExpr &A : Args) {
    assert(A.valid() && "mkAnd on invalid expr");
    Asts.push_back(A.Ast);
    Lits += A.Lits;
  }
  return {Z3_mk_and(Ctx, static_cast<unsigned>(Asts.size()), Asts.data()),
          Lits};
}

SmtExpr SmtContext::mkOr(const std::vector<SmtExpr> &Args) {
  if (Args.empty())
    return boolVal(false);
  if (Args.size() == 1)
    return Args[0];
  std::vector<Z3_ast> Asts;
  Asts.reserve(Args.size());
  uint64_t Lits = 0;
  for (const SmtExpr &A : Args) {
    assert(A.valid() && "mkOr on invalid expr");
    Asts.push_back(A.Ast);
    Lits += A.Lits;
  }
  return {Z3_mk_or(Ctx, static_cast<unsigned>(Asts.size()), Asts.data()),
          Lits};
}

SmtExpr SmtContext::mkAnd(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkAnd on invalid expr");
  Z3_ast Asts[2] = {A.Ast, B.Ast};
  return {Z3_mk_and(Ctx, 2, Asts), A.Lits + B.Lits};
}

SmtExpr SmtContext::mkOr(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkOr on invalid expr");
  Z3_ast Asts[2] = {A.Ast, B.Ast};
  return {Z3_mk_or(Ctx, 2, Asts), A.Lits + B.Lits};
}

SmtExpr SmtContext::mkImplies(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkImplies on invalid expr");
  return {Z3_mk_implies(Ctx, A.Ast, B.Ast), A.Lits + B.Lits};
}

SmtExpr SmtContext::mkIff(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkIff on invalid expr");
  return {Z3_mk_iff(Ctx, A.Ast, B.Ast), A.Lits + B.Lits};
}

SmtExpr SmtContext::mkEq(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkEq on invalid expr");
  // An equality over integer terms is one atom.
  uint64_t Lits = A.Lits + B.Lits;
  if (Lits == 0)
    Lits = 1;
  return {Z3_mk_eq(Ctx, A.Ast, B.Ast), Lits};
}

SmtExpr SmtContext::mkLt(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkLt on invalid expr");
  return {Z3_mk_lt(Ctx, A.Ast, B.Ast), 1};
}

SmtExpr SmtContext::mkLe(SmtExpr A, SmtExpr B) {
  assert(A.valid() && B.valid() && "mkLe on invalid expr");
  return {Z3_mk_le(Ctx, A.Ast, B.Ast), 1};
}

SmtExpr SmtContext::mkDistinct(const std::vector<SmtExpr> &Args) {
  assert(Args.size() >= 2 && "mkDistinct needs at least two terms");
  std::vector<Z3_ast> Asts;
  Asts.reserve(Args.size());
  for (const SmtExpr &A : Args)
    Asts.push_back(A.Ast);
  // Distinct over n terms stands for n*(n-1)/2 disequality atoms.
  uint64_t Lits = Args.size() * (Args.size() - 1) / 2;
  return {Z3_mk_distinct(Ctx, static_cast<unsigned>(Asts.size()),
                         Asts.data()),
          Lits};
}

SmtExpr SmtContext::mkForall(const std::vector<SmtExpr> &Bound, SmtExpr Body) {
  assert(!Bound.empty() && Body.valid() && "mkForall needs bound vars");
  std::vector<Z3_app> Apps;
  Apps.reserve(Bound.size());
  for (const SmtExpr &B : Bound)
    Apps.push_back(Z3_to_app(Ctx, B.Ast));
  return {Z3_mk_forall_const(Ctx, /*weight=*/0,
                             static_cast<unsigned>(Apps.size()), Apps.data(),
                             /*num_patterns=*/0, /*patterns=*/nullptr,
                             Body.Ast),
          Body.Lits};
}

//===----------------------------------------------------------------------===
// Atom interning
//===----------------------------------------------------------------------===

namespace {
enum InternOp : uint8_t { OpEq, OpLt, OpLe };
} // namespace

SmtExpr SmtContext::internIntVal(int64_t V) {
#ifdef ISO_INTERN_OFF
  return intVal(V);
#endif
  ++InternLookups;
  auto It = IntValCache.find(V);
  if (It != IntValCache.end()) {
    ++InternHits;
    return It->second;
  }
  SmtExpr E = intVal(V);
  IntValCache.emplace(V, E);
  return E;
}

SmtExpr SmtContext::internBinary(uint8_t Op, SmtExpr A, SmtExpr B) {
#ifdef ISO_INTERN_OFF
  switch (Op) { case OpEq: return mkEq(A, B); case OpLt: return mkLt(A, B); default: return mkLe(A, B); }
#endif
  ++InternLookups;
  AtomKey Key{Op, A.Ast, B.Ast};
  auto It = AtomCache.find(Key);
  if (It != AtomCache.end()) {
    ++InternHits;
    return It->second;
  }
  SmtExpr E;
  switch (Op) {
  case OpEq:
    E = mkEq(A, B);
    break;
  case OpLt:
    E = mkLt(A, B);
    break;
  default:
    E = mkLe(A, B);
    break;
  }
  AtomCache.emplace(Key, E);
  return E;
}

SmtExpr SmtContext::internEq(SmtExpr A, SmtExpr B) {
  return internBinary(OpEq, A, B);
}

SmtExpr SmtContext::internLt(SmtExpr A, SmtExpr B) {
  return internBinary(OpLt, A, B);
}

SmtExpr SmtContext::internLe(SmtExpr A, SmtExpr B) {
  return internBinary(OpLe, A, B);
}

//===----------------------------------------------------------------------===
// SmtSolver
//===----------------------------------------------------------------------===

namespace {

/// Registry of every live solver in the process, for interruptAll().
/// The registry mutex is strictly outer to any solver's InterruptMutex
/// (interruptAll holds it across interrupt() calls; nothing takes it
/// while holding a solver lock), so the order is deadlock-free.
struct SolverRegistry {
  std::mutex Mutex;
  std::vector<SmtSolver *> Live;

  static SolverRegistry &get() {
    static SolverRegistry R;
    return R;
  }
};

Z3_solver makeZ3Solver(Z3_context C, SolverKind Kind) {
  Z3_solver S = Kind == SolverKind::Kernel ? Z3_mk_simple_solver(C)
                                           : Z3_mk_solver(C);
  Z3_solver_inc_ref(C, S);
  return S;
}

/// Installs \p Value as the context's value of the uint parameter
/// \p Name ("timeout", "rlimit"), which the next Z3_solver_check on the
/// context reads.
void setContextUint(Z3_context C, const char *Name, unsigned Value) {
  Z3_update_param_value(C, Name, std::to_string(Value).c_str());
}

/// Growth of one of Z3's running counters over a check. A counter that
/// went down was reset (Z3 switched engines), so all of it is new.
uint64_t growth(uint64_t After, uint64_t Before) {
  return After >= Before ? After - Before : After;
}

} // namespace

SmtSolver::SmtSolver(SmtContext &Ctx, SolverKind Kind)
    : Parent(Ctx), Solver(makeZ3Solver(Ctx.raw(), Kind)) {
  SolverRegistry &R = SolverRegistry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Live.push_back(this);
}

SmtSolver::~SmtSolver() {
  {
    SolverRegistry &R = SolverRegistry::get();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    R.Live.erase(std::remove(R.Live.begin(), R.Live.end(), this),
                 R.Live.end());
  }
  releaseModel();
  Z3_solver_dec_ref(Parent.raw(), Solver);
}

void SmtSolver::interruptAll() {
  SolverRegistry &R = SolverRegistry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (SmtSolver *S : R.Live)
    S->interrupt();
}

void SmtSolver::releaseModel() {
  if (Model) {
    Z3_model_dec_ref(Parent.raw(), Model);
    Model = nullptr;
  }
}

void SmtSolver::add(SmtExpr E) {
  assert(E.valid() && "asserting invalid expr");
  releaseModel();
  Z3_solver_assert(Parent.raw(), Solver, E.Ast);
  Asserted.push_back(E.Ast);
  Parent.AssertedLits += E.Lits;
}

void SmtSolver::addAll(const std::vector<SmtExpr> &Es) {
  if (Es.empty())
    return;
  if (Es.size() == 1)
    return add(Es[0]);
  releaseModel();
  std::vector<Z3_ast> Asts;
  Asts.reserve(Es.size());
  uint64_t Lits = 0;
  for (const SmtExpr &E : Es) {
    assert(E.valid() && "asserting invalid expr");
    Asts.push_back(E.Ast);
    Lits += E.Lits;
  }
  Z3_ast Conj =
      Z3_mk_and(Parent.raw(), static_cast<unsigned>(Asts.size()), Asts.data());
  Z3_solver_assert(Parent.raw(), Solver, Conj);
  Asserted.push_back(Conj);
  Parent.AssertedLits += Lits;
}

void SmtSolver::interrupt() {
  Interrupted.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(InterruptMutex);
  // Only forward to Z3 while a check is actually running on the owner
  // thread (the documented safe use of Z3_solver_interrupt); outside
  // one, the sticky flag alone cancels the next check before it starts.
  if (Running)
    Z3_solver_interrupt(Parent.raw(), Running);
}

void SmtSolver::push() {
  releaseModel();
  Scopes.push_back({Parent.AssertedLits, Asserted.size()});
  Z3_solver_push(Parent.raw(), Solver);
}

void SmtSolver::pop() {
  assert(!Scopes.empty() && "pop without a matching push");
  releaseModel();
  Z3_solver_pop(Parent.raw(), Solver, 1);
  Parent.AssertedLits = Scopes.back().Lits;
  Asserted.resize(Scopes.back().Asserts);
  Scopes.pop_back();
}

SmtResult SmtSolver::guardedCheck(Z3_solver S, unsigned WallMs,
                                  unsigned Rlimit) {
  // Z3's timeout default is UINT_MAX ("none"); 0 would mean "give up
  // immediately", so map the documented 0 = no timeout onto the default.
  setContextUint(Parent.raw(), "timeout", WallMs == 0 ? ~0u : WallMs);
  setContextUint(Parent.raw(), "rlimit", Rlimit); // 0 = none
  {
    std::lock_guard<std::mutex> Lock(InterruptMutex);
    if (Interrupted.load(std::memory_order_acquire)) {
      // Canceled before the check started: don't enter Z3 at all
      // (Z3_solver_interrupt outside a running check would be lost).
      LastReasonUnknown = "canceled";
      return SmtResult::Unknown;
    }
    Running = S;
  }
  obs::Span Sp("Z3_solver_check", obs::CatSolver);
  Z3_lbool R = Z3_solver_check(Parent.raw(), S);
  {
    // Re-acquiring the mutex here means an interrupt() that saw Running
    // finishes its Z3_solver_interrupt before we move on.
    std::lock_guard<std::mutex> Lock(InterruptMutex);
    Running = nullptr;
  }
  SmtResult Out = SmtResult::Unknown;
  switch (R) {
  case Z3_L_TRUE:
    Model = Z3_solver_get_model(Parent.raw(), S);
    if (Model)
      Z3_model_inc_ref(Parent.raw(), Model);
    Out = SmtResult::Sat;
    break;
  case Z3_L_FALSE:
    Out = SmtResult::Unsat;
    break;
  case Z3_L_UNDEF:
    // The returned string lives until the next Z3 call; copy it now.
    if (Z3_string Reason = Z3_solver_get_reason_unknown(Parent.raw(), S))
      LastReasonUnknown = Reason;
    break;
  }
  Sp.arg("result", toString(Out));
  return Out;
}

SmtResult SmtSolver::check() {
  releaseModel();
  LastReasonUnknown.clear();
  static obs::Counter &Checks = obs::Metrics::global().counter("solver.checks");
  static obs::Counter &Sat = obs::Metrics::global().counter("solver.sat");
  static obs::Counter &Unsat = obs::Metrics::global().counter("solver.unsat");
  static obs::Counter &Unknown =
      obs::Metrics::global().counter("solver.unknown");
  static obs::Counter &Fallbacks =
      obs::Metrics::global().counter("solver.fallbacks");
  static obs::Histogram &CheckSeconds =
      obs::Metrics::global().histogram("solver.check_seconds");
  Checks.inc();
  Timer Clock;

  // Phase 1: the live solver; capped inside a scope (see Smt.h).
  bool Scoped = !Scopes.empty();
  unsigned Rlimit = 0;
  if (Scoped)
    Rlimit = static_cast<unsigned>(std::clamp<uint64_t>(
        ScopedCheckRlimitPerLiteral * Parent.AssertedLits, 1, ~0u));
  SmtResult Out = guardedCheck(Solver, TimeoutMs, Rlimit);
  // Z3's counters run across a solver's checks: report this one's growth.
  SolverStatistics After = readStatistics(Solver);
  LastStats.Conflicts = growth(After.Conflicts, Baseline.Conflicts);
  LastStats.Decisions = growth(After.Decisions, Baseline.Decisions);
  LastStats.Restarts = growth(After.Restarts, Baseline.Restarts);
  LastStats.Propagations = growth(After.Propagations, Baseline.Propagations);
  LastStats.MaxMemoryMb = After.MaxMemoryMb;
  LastStats.Collected = true;
  Baseline = After;

  // Phase 2: the one-shot fallback, with the wall budget phase 1 left.
  double LeftMs = TimeoutMs - Clock.seconds() * 1000.0;
  if (Out == SmtResult::Unknown && Scoped && !interrupted() &&
      (TimeoutMs == 0 || LeftMs >= 1)) {
    Fallbacks.inc();
    LastReasonUnknown.clear();
    Z3_solver F = makeZ3Solver(Parent.raw(), SolverKind::Combined);
    for (Z3_ast A : Asserted)
      Z3_solver_assert(Parent.raw(), F, A);
    Out = guardedCheck(F, TimeoutMs ? static_cast<unsigned>(LeftMs) : 0,
                       /*Rlimit=*/0);
    SolverStatistics FS = readStatistics(F);
    LastStats.Conflicts += FS.Conflicts;
    LastStats.Decisions += FS.Decisions;
    LastStats.Restarts += FS.Restarts;
    LastStats.Propagations += FS.Propagations;
    LastStats.MaxMemoryMb = std::max(LastStats.MaxMemoryMb, FS.MaxMemoryMb);
    Z3_solver_dec_ref(Parent.raw(), F); // The model holds its own ref.
  }

  CheckSeconds.observe(Clock.seconds());
  if (Out == SmtResult::Sat)
    Sat.inc();
  else if (Out == SmtResult::Unsat)
    Unsat.inc();
  else
    Unknown.inc();
  return Out;
}

SolverStatistics SmtSolver::readStatistics(Z3_solver S) const {
  SolverStatistics Out;
  Z3_stats Stats = Z3_solver_get_statistics(Parent.raw(), S);
  Z3_stats_inc_ref(Parent.raw(), Stats);
  unsigned N = Z3_stats_size(Parent.raw(), Stats);
  auto Value = [&](unsigned I) -> double {
    if (Z3_stats_is_uint(Parent.raw(), Stats, I))
      return static_cast<double>(Z3_stats_get_uint_value(Parent.raw(), Stats, I));
    return Z3_stats_get_double_value(Parent.raw(), Stats, I);
  };
  for (unsigned I = 0; I < N; ++I) {
    std::string_view Key = Z3_stats_get_key(Parent.raw(), Stats, I);
    // Z3 prefixes keys with the engine that produced them ("sat
    // conflicts" vs "conflicts"); sum the variants into one field.
    auto Matches = [&](std::string_view Suffix) {
      return Key == Suffix ||
             (Key.size() > Suffix.size() &&
              Key.substr(Key.size() - Suffix.size()) == Suffix &&
              Key[Key.size() - Suffix.size() - 1] == ' ');
    };
    if (Matches("conflicts"))
      Out.Conflicts += static_cast<uint64_t>(Value(I));
    else if (Matches("decisions"))
      Out.Decisions += static_cast<uint64_t>(Value(I));
    else if (Matches("restarts"))
      Out.Restarts += static_cast<uint64_t>(Value(I));
    else if (Matches("propagations"))
      Out.Propagations += static_cast<uint64_t>(Value(I));
    else if (Key == "max memory")
      Out.MaxMemoryMb = Value(I);
  }
  Z3_stats_dec_ref(Parent.raw(), Stats);
  return Out;
}

int64_t SmtSolver::modelInt(SmtExpr E) {
  assert(Model && "modelInt without a sat model");
  Z3_ast Out = nullptr;
  [[maybe_unused]] bool Ok = Z3_model_eval(Parent.raw(), Model, E.Ast,
                                           /*model_completion=*/true, &Out);
  assert(Ok && "Z3_model_eval failed");
  int64_t V = 0;
  [[maybe_unused]] bool Num = Z3_get_numeral_int64(Parent.raw(), Out, &V);
  assert(Num && "model value is not a numeral");
  return V;
}

bool SmtSolver::modelBool(SmtExpr E) {
  assert(Model && "modelBool without a sat model");
  Z3_ast Out = nullptr;
  [[maybe_unused]] bool Ok = Z3_model_eval(Parent.raw(), Model, E.Ast,
                                           /*model_completion=*/true, &Out);
  assert(Ok && "Z3_model_eval failed");
  return Z3_get_bool_value(Parent.raw(), Out) == Z3_L_TRUE;
}
