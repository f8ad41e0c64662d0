//===- smt_test.cpp - Z3 wrapper tests ------------------------*- C++ -*-===//

#include "smt/Smt.h"

#include "obs/Metrics.h"
#include "support/Env.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace isopredict;

namespace {

/// Boolean pigeonhole: \p Pigeons pigeons in \p Holes holes, each in
/// some hole, no two sharing one. Unsat after search when Pigeons >
/// Holes; CDCL needs exponentially many conflicts as the size grows.
std::vector<SmtExpr> pigeonhole(SmtContext &Ctx, int Pigeons, int Holes) {
  std::vector<std::vector<SmtExpr>> In(Pigeons);
  std::vector<SmtExpr> Out;
  for (int P = 0; P < Pigeons; ++P) {
    for (int H = 0; H < Holes; ++H)
      In[P].push_back(Ctx.boolVar("in" + std::to_string(P) + "_" +
                                  std::to_string(H)));
    Out.push_back(Ctx.mkOr(In[P]));
  }
  for (int H = 0; H < Holes; ++H)
    for (int P = 0; P < Pigeons; ++P)
      for (int Q = P + 1; Q < Pigeons; ++Q)
        Out.push_back(Ctx.mkNot(Ctx.mkAnd(In[P][H], In[Q][H])));
  return Out;
}

/// ∀x ∃z. x < z: true, and Z3's one-shot solver eliminates it at once,
/// but the incremental solver's model-based instantiation spins on it
/// until the scoped check's resource cap. Inside a scope it therefore
/// always takes the fallback path.
SmtExpr unboundedAbove(SmtContext &Ctx) {
  SmtExpr X = Ctx.intVar("x"), Z = Ctx.intVar("z");
  return Ctx.mkForall(
      {X}, Ctx.mkNot(Ctx.mkForall({Z}, Ctx.mkNot(Ctx.mkLt(X, Z)))));
}

uint64_t fallbacks() {
  return obs::Metrics::global().counter("solver.fallbacks").value();
}

} // namespace

TEST(Smt, TrivialSatAndModel) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr X = Ctx.intVar("x");
  SmtExpr B = Ctx.boolVar("b");
  Solver.add(Ctx.mkEq(X, Ctx.intVal(41)));
  Solver.add(B);
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.modelInt(X), 41);
  EXPECT_TRUE(Solver.modelBool(B));
}

TEST(Smt, Contradiction) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr B = Ctx.boolVar("b");
  Solver.add(B);
  Solver.add(Ctx.mkNot(B));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
}

TEST(Smt, EmptyConnectives) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  Solver.add(Ctx.mkAnd({})); // true
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
  Solver.add(Ctx.mkOr({})); // false
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
}

TEST(Smt, DistinctForcesDifferentValues) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  std::vector<SmtExpr> Vars;
  for (int I = 0; I < 3; ++I)
    Vars.push_back(Ctx.intVar("v" + std::to_string(I)));
  Solver.add(Ctx.mkDistinct(Vars));
  for (SmtExpr &V : Vars) {
    Solver.add(Ctx.mkLe(Ctx.intVal(0), V));
    Solver.add(Ctx.mkLe(V, Ctx.intVal(2)));
  }
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  int64_t A = Solver.modelInt(Vars[0]);
  int64_t B = Solver.modelInt(Vars[1]);
  int64_t C = Solver.modelInt(Vars[2]);
  EXPECT_NE(A, B);
  EXPECT_NE(B, C);
  EXPECT_NE(A, C);

  // Four distinct values in [0,2] is impossible.
  Vars.push_back(Ctx.intVar("v3"));
  Solver.add(Ctx.mkLe(Ctx.intVal(0), Vars[3]));
  Solver.add(Ctx.mkLe(Vars[3], Ctx.intVal(2)));
  Solver.add(Ctx.mkDistinct(Vars));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
}

TEST(Smt, ImpliesAndIff) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr A = Ctx.boolVar("a");
  SmtExpr B = Ctx.boolVar("b");
  Solver.add(Ctx.mkImplies(A, B));
  Solver.add(A);
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_TRUE(Solver.modelBool(B));

  Solver.add(Ctx.mkIff(B, Ctx.boolVal(false)));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
}

TEST(Smt, ForallRefutesExistentialClaim) {
  // ∀x. x != 5 is unsat over integers... as an assertion it means the
  // formula is false for x == 5.
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr X = Ctx.intVar("x");
  Solver.add(Ctx.mkForall({X}, Ctx.mkNot(Ctx.mkEq(X, Ctx.intVal(5)))));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
}

TEST(Smt, ForallTautologyIsSat) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr X = Ctx.intVar("x");
  Solver.add(Ctx.mkForall({X}, Ctx.mkOr({Ctx.mkLe(X, Ctx.intVal(0)),
                                         Ctx.mkLe(Ctx.intVal(0), X)})));
  EXPECT_EQ(Solver.check(), SmtResult::Sat);
}

TEST(Smt, ResultFromStringRoundTrips) {
  for (SmtResult R :
       {SmtResult::Sat, SmtResult::Unsat, SmtResult::Unknown})
    EXPECT_EQ(smtResultFromString(toString(R)), R);
  EXPECT_FALSE(smtResultFromString("maybe").has_value());
  EXPECT_FALSE(smtResultFromString("").has_value());
}

TEST(Smt, LiteralCounting) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr A = Ctx.boolVar("a");
  SmtExpr B = Ctx.boolVar("b");
  uint64_t Before = Ctx.literalCount();
  Solver.add(Ctx.mkOr({A, B, Ctx.mkNot(A)}));
  EXPECT_EQ(Ctx.literalCount() - Before, 3u);
  Solver.add(Ctx.mkLt(Ctx.intVar("x"), Ctx.intVal(3)));
  EXPECT_EQ(Ctx.literalCount() - Before, 4u);
}

TEST(Smt, ModelInvalidatedByAdd) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr X = Ctx.intVar("x");
  Solver.add(Ctx.mkLe(Ctx.intVal(10), X));
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  // Adding a tighter constraint and re-checking refreshes the model.
  Solver.add(Ctx.mkLe(X, Ctx.intVal(10)));
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.modelInt(X), 10);
}

TEST(Smt, PushPopDiscardsScopedAssertions) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr B = Ctx.boolVar("b");
  Solver.add(B);
  ASSERT_EQ(Solver.check(), SmtResult::Sat);

  EXPECT_EQ(Solver.scopeDepth(), 0u);
  Solver.push();
  EXPECT_EQ(Solver.scopeDepth(), 1u);
  Solver.add(Ctx.mkNot(B));
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
  Solver.pop();
  EXPECT_EQ(Solver.scopeDepth(), 0u);

  // The scoped contradiction vanished; the root assertion survives.
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_TRUE(Solver.modelBool(B));
}

TEST(Smt, NestedScopesBacktrackIndependently) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr X = Ctx.intVar("x");
  Solver.add(Ctx.mkLe(Ctx.intVal(0), X));

  Solver.push();
  Solver.add(Ctx.mkLe(X, Ctx.intVal(10)));
  Solver.push();
  Solver.add(Ctx.mkLe(Ctx.intVal(20), X)); // contradicts x <= 10
  EXPECT_EQ(Solver.check(), SmtResult::Unsat);
  Solver.pop();
  ASSERT_EQ(Solver.check(), SmtResult::Sat); // x in [0, 10] again
  EXPECT_LE(Solver.modelInt(X), 10);
  Solver.pop();

  Solver.add(Ctx.mkLe(Ctx.intVal(20), X)); // fine at the root now
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_GE(Solver.modelInt(X), 20);
}

TEST(Smt, LiteralCountRewindsAcrossPop) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr A = Ctx.boolVar("a");
  SmtExpr B = Ctx.boolVar("b");
  Solver.add(A);
  uint64_t Root = Ctx.literalCount();
  EXPECT_EQ(Root, 1u);

  Solver.push();
  Solver.add(Ctx.mkOr({A, B, Ctx.mkNot(A)})); // 3 literals
  EXPECT_EQ(Ctx.literalCount(), Root + 3);
  Solver.push();
  Solver.add(B);
  EXPECT_EQ(Ctx.literalCount(), Root + 4);
  Solver.pop();
  EXPECT_EQ(Ctx.literalCount(), Root + 3);
  Solver.pop();
  EXPECT_EQ(Ctx.literalCount(), Root);

  // A fresh scope accumulates from the rewound count, so literalCount
  // always equals "literals currently on the solver".
  Solver.push();
  Solver.add(Ctx.mkAnd(A, B));
  EXPECT_EQ(Ctx.literalCount(), Root + 2);
  Solver.pop();
  EXPECT_EQ(Ctx.literalCount(), Root);
}

TEST(Smt, InternedAtomsSurvivePop) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr X = Ctx.intVar("x");
  SmtExpr Atom = Ctx.internEq(X, Ctx.internIntVal(3));

  Solver.push();
  // Same atom inside the scope: pointer-identical (cache hit).
  SmtExpr Scoped = Ctx.internEq(X, Ctx.internIntVal(3));
  EXPECT_EQ(Atom.Ast, Scoped.Ast);
  Solver.add(Scoped);
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  Solver.pop();

  // After the pop, the intern tables still hand back the same valid
  // AST (the legacy context owns terms until destruction), and it is
  // still usable in new assertions.
  uint64_t HitsBefore = Ctx.internHits();
  SmtExpr After = Ctx.internEq(X, Ctx.internIntVal(3));
  EXPECT_EQ(Atom.Ast, After.Ast);
  EXPECT_GT(Ctx.internHits(), HitsBefore);
  Solver.add(After);
  ASSERT_EQ(Solver.check(), SmtResult::Sat);
  EXPECT_EQ(Solver.modelInt(X), 3);
}

TEST(Smt, TimeoutReturnsUnknownOrAnswer) {
  // A hard pigeonhole-ish instance with a 1ms timeout: the solver must
  // come back quickly with Unknown (or solve it, which is also fine).
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  const int N = 9;
  std::vector<SmtExpr> Vars;
  for (int I = 0; I < N * N; ++I)
    Vars.push_back(Ctx.intVar("p" + std::to_string(I)));
  for (SmtExpr &V : Vars) {
    Solver.add(Ctx.mkLe(Ctx.intVal(0), V));
    Solver.add(Ctx.mkLe(V, Ctx.intVal(N - 2)));
  }
  Solver.add(Ctx.mkDistinct(Vars));
  Solver.setTimeoutMs(1);
  SmtResult R = Solver.check();
  EXPECT_TRUE(R == SmtResult::Unknown || R == SmtResult::Unsat);
}

TEST(Smt, InterruptUnderLoadCancelsRunningCheck) {
  // Same hard pigeonhole-ish instance as the timeout test, but no
  // timeout: a second thread interrupts the running check. The check
  // must come back — Unknown if the interrupt landed first, Unsat if Z3
  // finished before it — and the sticky flag must classify the Unknown
  // as a cancellation, not a timeout.
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  const int N = 9;
  std::vector<SmtExpr> Vars;
  for (int I = 0; I < N * N; ++I)
    Vars.push_back(Ctx.intVar("p" + std::to_string(I)));
  for (SmtExpr &V : Vars) {
    Solver.add(Ctx.mkLe(Ctx.intVal(0), V));
    Solver.add(Ctx.mkLe(V, Ctx.intVal(N - 2)));
  }
  Solver.add(Ctx.mkDistinct(Vars));

  std::thread Killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Solver.interrupt();
  });
  SmtResult R = Solver.check();
  Killer.join();

  EXPECT_TRUE(R == SmtResult::Unknown || R == SmtResult::Unsat);
  EXPECT_TRUE(Solver.interrupted());
  // Z3's reason string for a mid-check interrupt varies by version
  // ("canceled" / "interrupted") — which is exactly why callers must
  // classify through interrupted(), never the string.
  if (R == SmtResult::Unknown)
    EXPECT_TRUE(Solver.reasonUnknown() == "canceled" ||
                Solver.reasonUnknown() == "interrupted")
        << Solver.reasonUnknown();

  // Sticky: every future check on this solver is canceled up front
  // (the pre-check path never enters Z3 and stamps its own reason).
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.reasonUnknown(), "canceled");
}

TEST(Smt, InterruptBeforeCheckCancelsWithoutEnteringZ3) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr B = Ctx.boolVar("b");
  Solver.add(B); // trivially sat — only the interrupt can make it Unknown
  Solver.interrupt();
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.reasonUnknown(), "canceled");
  EXPECT_TRUE(Solver.interrupted());
  // Repeated interrupts are fine (idempotent), from any thread.
  Solver.interrupt();
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
}

// Z3's search counters run across a solver's checks; a session solver
// lives for many queries, so statistics() must report each check's own
// work. The second check decides `false` without search.
TEST(Smt, StatisticsArePerCheck) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  Solver.push();
  for (SmtExpr E : pigeonhole(Ctx, 6, 5))
    Solver.add(E);
  ASSERT_EQ(Solver.check(), SmtResult::Unsat);
  SolverStatistics First = Solver.statistics();
  EXPECT_TRUE(First.Collected);
  EXPECT_GT(First.Conflicts, 0u);
  Solver.pop();

  Solver.push();
  Solver.add(Ctx.boolVal(false));
  ASSERT_EQ(Solver.check(), SmtResult::Unsat);
  EXPECT_EQ(Solver.statistics().Conflicts, 0u)
      << "the first check's " << First.Conflicts << " conflicts leaked";
  Solver.pop();
}

// A scoped check whose capped incremental attempt gives up re-solves on
// a fresh one-shot solver; the model is that solver's, and readable.
TEST(Smt, ScopedCheckFallsBackAndKeepsTheModel) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr Y = Ctx.intVar("y");
  Solver.add(Ctx.mkLe(Ctx.intVal(0), Y));
  uint64_t Before = fallbacks();
  Solver.push();
  Solver.add(unboundedAbove(Ctx));
  Solver.add(Ctx.mkEq(Y, Ctx.intVal(7)));
  ASSERT_EQ(Solver.check(), SmtResult::Sat) << Solver.reasonUnknown();
  EXPECT_EQ(fallbacks(), Before + 1);
  EXPECT_EQ(Solver.modelInt(Y), 7);
  EXPECT_TRUE(Solver.reasonUnknown().empty());
  EXPECT_TRUE(Solver.statistics().Collected);
  Solver.pop();

  // A solver that never opens a scope is one-shot: no cap, no fallback.
  SmtSolver OneShot(Ctx);
  OneShot.add(unboundedAbove(Ctx));
  ASSERT_EQ(OneShot.check(), SmtResult::Sat);
  EXPECT_EQ(fallbacks(), Before + 1);
}

// The fallback re-solves exactly the assertions on the solver: pop()
// drops a scope's assertions from it and rewinds the literal count.
TEST(Smt, PopAfterFallbackRewindsAssertionsAndLiterals) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  SmtExpr Y = Ctx.intVar("y");
  Solver.add(Ctx.mkLe(Ctx.intVal(0), Y));
  uint64_t Root = Ctx.literalCount();
  for (int64_t V : {7, 9}) {
    Solver.push();
    Solver.add(unboundedAbove(Ctx));
    Solver.add(Ctx.mkEq(Y, Ctx.intVal(V)));
    EXPECT_GT(Ctx.literalCount(), Root);
    uint64_t Before = fallbacks();
    // With y = 7 still asserted, y = 9 would be unsat.
    ASSERT_EQ(Solver.check(), SmtResult::Sat) << "y=" << V;
    EXPECT_EQ(fallbacks(), Before + 1);
    EXPECT_EQ(Solver.modelInt(Y), V);
    Solver.pop();
    EXPECT_EQ(Ctx.literalCount(), Root);
  }
}

// Budgets are per check, not per context: check() installs its own
// timeout and rlimit on the shared Z3 context right before each
// Z3_solver_check, so neither a scoped check's cap nor another
// solver's timeout reaches a later check.
TEST(Smt, BudgetsArePerCheckNotPerContext) {
  SmtContext Ctx;
  SmtSolver Capped(Ctx);
  uint64_t Before = fallbacks();
  Capped.push();
  Capped.add(unboundedAbove(Ctx));
  ASSERT_EQ(Capped.check(), SmtResult::Sat) << Capped.reasonUnknown();
  EXPECT_EQ(fallbacks(), Before + 1);
  Capped.pop();
  // A scoped check with no fallback leaves its budget on the context:
  // a cap of ScopedCheckRlimitPerLiteral units (one literal) and a 1 ms
  // timeout, whether or not it decides.
  Capped.setTimeoutMs(1);
  Capped.push();
  Capped.add(Ctx.boolVar("b"));
  Capped.check();
  Capped.pop();

  // A pigeonhole needs far more resource units than that cap and more
  // than a millisecond of search; on a second solver it is decided.
  SmtSolver Root(Ctx);
  for (SmtExpr E : pigeonhole(Ctx, 8, 7))
    Root.add(E);
  uint64_t BeforeRoot = fallbacks();
  Timer Clock;
  EXPECT_EQ(Root.check(), SmtResult::Unsat) << Root.reasonUnknown();
  EXPECT_GT(Clock.seconds(), 0.001)
      << "too easy to show that the 1 ms timeout stayed with its solver";
  EXPECT_GT(Root.statistics().Conflicts, 1000u);
  EXPECT_EQ(fallbacks(), BeforeRoot);
}

// An interrupt pending before a scoped check cancels it outright: no
// attempt, no fallback.
TEST(Smt, InterruptBeforeScopedCheckSkipsTheFallback) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  uint64_t Before = fallbacks();
  Solver.push();
  Solver.add(unboundedAbove(Ctx));
  Solver.interrupt();
  EXPECT_EQ(Solver.check(), SmtResult::Unknown);
  EXPECT_EQ(Solver.reasonUnknown(), "canceled");
  EXPECT_EQ(fallbacks(), Before);
  Solver.pop();
}

// interrupt() reaches the fallback solver while it runs: the check
// comes back canceled long before its timeout. The attempt gives up at
// its cap on the quantifier; the fallback then faces a pigeonhole CDCL
// cannot finish.
TEST(Smt, InterruptDuringFallbackCancels) {
  SmtContext Ctx;
  SmtSolver Solver(Ctx);
  Solver.setTimeoutMs(120000);
  Solver.push();
  Solver.add(unboundedAbove(Ctx));
  for (SmtExpr E : pigeonhole(Ctx, 13, 12))
    Solver.add(E);
  uint64_t Before = fallbacks();
  std::atomic<bool> Done{false};
  std::thread Killer([&] {
    while (fallbacks() == Before && !Done)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Solver.interrupt();
  });
  auto T0 = std::chrono::steady_clock::now();
  SmtResult R = Solver.check();
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  Done = true;
  Killer.join();
  EXPECT_EQ(R, SmtResult::Unknown);
  EXPECT_EQ(fallbacks(), Before + 1);
  EXPECT_TRUE(Solver.interrupted());
  EXPECT_LT(Seconds, 60.0) << "the interrupt did not reach the fallback";
  EXPECT_TRUE(Solver.reasonUnknown() == "canceled" ||
              Solver.reasonUnknown() == "interrupted")
      << Solver.reasonUnknown();
  Solver.pop();
}
