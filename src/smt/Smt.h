//===- Smt.h - RAII wrapper over the Z3 C API -----------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thin, exception-free C++ layer over the native Z3 C API. The paper's
/// implementation used Z3Py and measured that 97% of constraint-generation
/// time was spent in Python (§7.2); this reproduction talks to Z3 natively.
///
/// Design notes:
///  - One SmtContext per prediction/validation instance. We use the
///    legacy (non-reference-counted) Z3 context, in which every created
///    AST stays valid until the context is destroyed. Encoders build a
///    few million nodes, solve, extract a model, and throw the whole
///    context away — no manual AST reference counting anywhere.
///  - SmtExpr carries a *literal count*: the number of atomic boolean
///    occurrences (variable references and arithmetic comparisons) in the
///    expression tree as constructed. Asserted literals accumulate in the
///    context; this is the paper's "# Literals" column.
///  - Z3 errors are programmatic errors here (we only build well-sorted
///    terms), so the installed error handler prints and aborts.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_SMT_SMT_H
#define ISOPREDICT_SMT_SMT_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

typedef struct _Z3_context *Z3_context;
typedef struct _Z3_solver *Z3_solver;
typedef struct _Z3_model *Z3_model;
typedef struct _Z3_ast *Z3_ast;

namespace isopredict {

class SmtContext;

/// A Z3 term plus the number of boolean literals it contains.
struct SmtExpr {
  Z3_ast Ast = nullptr;
  uint64_t Lits = 0;

  bool valid() const { return Ast != nullptr; }
};

/// Outcome of a solver query.
enum class SmtResult { Sat, Unsat, Unknown };

/// Search statistics of one check() (SmtSolver::statistics()): the
/// growth of Z3's running counters over that check, so a session's
/// queries do not inherit earlier checks' work. Z3 reports per-engine
/// key variants ("conflicts" vs "sat conflicts" depending on which
/// engine ran); matching variants are summed into one field. These are
/// the raw difficulty signal recorded per query into JobResult /
/// `--timings` report JSON — values are run-dependent, never part of
/// the default deterministic report surface.
struct SolverStatistics {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Restarts = 0;
  uint64_t Propagations = 0;
  double MaxMemoryMb = 0; ///< Peak Z3 allocation (process-wide), megabytes.
  bool Collected = false; ///< False until statistics() populated this.
};

/// Returns "sat", "unsat", or "unknown".
const char *toString(SmtResult R);

/// Inverse of toString: parses "sat" / "unsat" / "unknown" (exactly the
/// spellings campaign reports carry). std::nullopt on anything else.
std::optional<SmtResult> smtResultFromString(std::string_view Name);

/// Owns a Z3 context and provides the term constructors the encoders use.
class SmtContext {
public:
  SmtContext();
  ~SmtContext();
  SmtContext(const SmtContext &) = delete;
  SmtContext &operator=(const SmtContext &) = delete;

  //===--------------------------------------------------------------------===
  // Term construction
  //===--------------------------------------------------------------------===

  SmtExpr boolVar(const std::string &Name);
  SmtExpr intVar(const std::string &Name);
  SmtExpr boolVal(bool V);
  SmtExpr intVal(int64_t V);

  /// Constant recognition (Z3 hash-conses per context, so the true/false
  /// ASTs are stable pointers). The encoding passes fold these
  /// constants (the relevance plan's substitutions) out of the formulas
  /// they build; invalid expressions are neither.
  bool isTrue(SmtExpr E) const { return E.Ast == TrueAst; }
  bool isFalse(SmtExpr E) const { return E.Ast == FalseAst; }

  SmtExpr mkNot(SmtExpr A);
  SmtExpr mkAnd(const std::vector<SmtExpr> &Args); ///< and([]) == true
  SmtExpr mkOr(const std::vector<SmtExpr> &Args);  ///< or([]) == false
  /// Binary fast paths: no argument-vector allocation.
  SmtExpr mkAnd(SmtExpr A, SmtExpr B);
  SmtExpr mkOr(SmtExpr A, SmtExpr B);
  SmtExpr mkImplies(SmtExpr A, SmtExpr B);
  SmtExpr mkIff(SmtExpr A, SmtExpr B);
  SmtExpr mkEq(SmtExpr A, SmtExpr B); ///< Works for int and bool terms.
  SmtExpr mkLt(SmtExpr A, SmtExpr B);
  SmtExpr mkLe(SmtExpr A, SmtExpr B);
  SmtExpr mkDistinct(const std::vector<SmtExpr> &Args);

  /// Universal quantification over the given integer/bool constants
  /// (used by the Exact-Strict encoding's ∀co. ¬IsSerializable(co)).
  SmtExpr mkForall(const std::vector<SmtExpr> &Bound, SmtExpr Body);

  //===--------------------------------------------------------------------===
  // Hash-consed atom interning
  //===--------------------------------------------------------------------===
  //
  // Z3 already hash-conses ASTs internally, so rebuilding an atom with
  // the plain constructors returns a pointer-identical term — but every
  // rebuild still pays the full C-API crossing (argument checking,
  // sort lookup, AST-table probe). The encoders rebuild a small set of
  // atoms (boundary comparisons, choice equalities, integer constants)
  // thousands of times, so the interned constructors memoize them on a
  // pointer-keyed table on this side of the API. Interned and plain
  // constructors yield the same Z3_ast and the same literal count;
  // interning changes construction cost only, never the formula.

  /// Interned integer constant (the boundary/cut/choice positions).
  SmtExpr internIntVal(int64_t V);
  /// Interned A == B (keyed on the operand ASTs).
  SmtExpr internEq(SmtExpr A, SmtExpr B);
  /// Interned A < B.
  SmtExpr internLt(SmtExpr A, SmtExpr B);
  /// Interned A <= B.
  SmtExpr internLe(SmtExpr A, SmtExpr B);

  /// Cache-effectiveness counters (tests; bench attribution).
  uint64_t internLookups() const { return InternLookups; }
  uint64_t internHits() const { return InternHits; }

  //===--------------------------------------------------------------------===
  // Stats
  //===--------------------------------------------------------------------===

  /// Total literals across all formulas asserted on solvers of this
  /// context (updated by SmtSolver::add / addAll).
  uint64_t literalCount() const { return AssertedLits; }

  Z3_context raw() const { return Ctx; }

private:
  friend class SmtSolver;

  /// Key of one interned binary atom: operator tag plus operand ASTs
  /// (valid because Z3 ASTs are themselves hash-consed per context).
  struct AtomKey {
    uint8_t Op;
    Z3_ast A, B;
    bool operator==(const AtomKey &O) const {
      return Op == O.Op && A == O.A && B == O.B;
    }
  };
  struct AtomKeyHash {
    size_t operator()(const AtomKey &K) const {
      // Pointers are aligned, so multiply to spread the entropy into the
      // bits the bucket index uses (identity hashing collides badly).
      size_t A = reinterpret_cast<size_t>(K.A) * 0x9e3779b97f4a7c15ULL;
      size_t B = reinterpret_cast<size_t>(K.B) * 0xc2b2ae3d27d4eb4fULL;
      return (A ^ (B >> 3)) + K.Op;
    }
  };

  SmtExpr internBinary(uint8_t Op, SmtExpr A, SmtExpr B);

  Z3_context Ctx;
  Z3_ast TrueAst = nullptr, FalseAst = nullptr;
  uint64_t AssertedLits = 0;
  std::unordered_map<int64_t, SmtExpr> IntValCache;
  std::unordered_map<AtomKey, SmtExpr, AtomKeyHash> AtomCache;
  uint64_t InternLookups = 0;
  uint64_t InternHits = 0;
};

/// Which Z3 solver an SmtSolver wraps.
enum class SolverKind {
  /// Z3's combined solver (Z3_mk_solver): its one-shot tactic solver
  /// until the first push(), its incremental SMT kernel after. The
  /// prediction encodings need the tactics (quantifier elimination,
  /// preprocessing), and their search depends on them.
  Combined,
  /// Z3's plain SMT kernel (Z3_mk_simple_solver): no tactic layer, so
  /// none of its set-up. For a small quantifier-free query (the ∃co
  /// serializability check) that set-up is most of the cost: creating
  /// a combined solver and asserting `x < 3` takes 2.4 ms and checking
  /// it 2.3 ms, against 0.08 and 0.11 ms on the kernel (Z3 4.8.12, one
  /// thread).
  Kernel,
};

/// A satisfiability query; owns a Z3 solver object.
class SmtSolver {
public:
  explicit SmtSolver(SmtContext &Ctx, SolverKind Kind = SolverKind::Combined);
  ~SmtSolver();
  SmtSolver(const SmtSolver &) = delete;
  SmtSolver &operator=(const SmtSolver &) = delete;

  /// Asserts \p E and accumulates its literal count into the context.
  void add(SmtExpr E);

  /// Asserts every expression of \p Es as a single batched
  /// Z3_solver_assert (their conjunction): one API crossing instead of
  /// |Es|. Sat-equivalent to |Es| individual add() calls with identical
  /// literal accounting — but conjunction packaging can steer Z3 to a
  /// different (equally valid) model, so callers that extract models
  /// should assert sequentially (the encoding passes do; the
  /// verdict-only serializability check batches).
  void addAll(const std::vector<SmtExpr> &Es);

  /// Sets the wall-clock budget of every later check(); 0 means none.
  /// A plain store: check() hands it to Z3 per check (see "Solver
  /// scopes"). A scoped check's fallback solve gets what the capped
  /// attempt left of it.
  void setTimeoutMs(unsigned Ms) { TimeoutMs = Ms; }

  //===--------------------------------------------------------------------===
  // Cross-thread cancellation (SIGINT, server shutdown)
  //===--------------------------------------------------------------------===
  //
  // All other members of SmtSolver/SmtContext are single-owner-thread
  // only; interrupt() is the one call that may arrive from another
  // thread. Z3_solver_interrupt is only guaranteed safe against a
  // concurrently *running* Z3_solver_check, so the handshake below never
  // issues it outside one: check() publishes the Z3 solver it is running
  // (the live one, or a scoped check's fallback) under InterruptMutex,
  // and interrupt() forwards to Z3 only while one is published
  // (unpublishing re-acquires the mutex, so a forwarding interrupt
  // finishes before check() moves on). An interrupt that lands outside
  // a Z3 call is not lost — the sticky Interrupted flag makes the next
  // Z3 call of this check(), or of any later one, return Unknown
  // ("canceled") without entering Z3 at all.

  /// Requests cancellation of the current (or next) check(). Sticky:
  /// once interrupted, every future check on this solver is canceled.
  /// Safe to call from any thread, any number of times.
  void interrupt();

  /// Interrupts every live SmtSolver in the process (each via its own
  /// interrupt() handshake). This is the signal-handling path: a
  /// SIGINT/SIGTERM watcher thread calls it so long-running binaries can
  /// abandon in-flight checks and exit with a partial report / clean
  /// drain. Solvers register in their constructor and deregister in
  /// their destructor, so a solver cannot be torn down while this call
  /// is touching it. Safe from any thread — but not from a signal
  /// handler itself (it takes locks); call it from a watcher thread.
  static void interruptAll();

  /// True once interrupt() has been called. A check() that returned
  /// Unknown on an interrupted solver was canceled by us, not by a
  /// timeout — callers must classify it as canceled (Z3's reason string
  /// says "canceled" for both, so the flag is the only reliable signal).
  bool interrupted() const {
    return Interrupted.load(std::memory_order_acquire);
  }

  //===--------------------------------------------------------------------===
  // Solver scopes (incremental solving)
  //===--------------------------------------------------------------------===
  //
  // push()/pop() bracket a backtrackable scope: assertions added inside
  // it vanish at pop(), while every AST built meanwhile stays valid (the
  // legacy Z3 context owns terms until destruction), so the context's
  // atom-intern tables survive pops unchanged. Literal accounting is
  // scope-aware: pop() rewinds the context's asserted-literal counter to
  // its value at the matching push(), keeping literalCount() equal to
  // "literals currently on the solver". This is what lets PredictSession
  // encode the base prefix once and answer many queries
  // by pushing a scope per query.
  //
  // The first push() switches Z3's combined solver to its incremental
  // SMT kernel for good, and that kernel can stall on formulas the
  // one-shot (non-incremental tactic) solver decides at once: an rc
  // Exact-Strict window one-shot settles in a tenth of a second can run
  // out a 5 s budget. So a check() with a scope open is two-phase:
  //  1. an attempt on the live incremental solver, capped at
  //     ScopedCheckRlimitPerLiteral units of Z3's deterministic resource
  //     counter (`rlimit`) per literal on the solver. A wall-clock cap
  //     would make which solver answers, and so the model, depend on
  //     timing;
  //  2. if that attempt comes back Unknown for any reason except our
  //     own interrupt(), a re-solve of the same assertions (the solver
  //     keeps them, per scope) on a fresh combined solver that is never
  //     pushed, so Z3 uses the one-shot solver. It runs uncapped, with
  //     the wall budget the attempt left.
  // The model, reasonUnknown() and statistics() come from whichever
  // solver answered (statistics add both phases). A check with no scope
  // open runs uncapped and never falls back.
  //
  // Both budgets are per check: each Z3_solver_check runs under the
  // timeout and rlimit that check() installs on the context right
  // before it (Z3_update_param_value; Z3_solver_check reads them from
  // the context because no solver here sets them as its own params),
  // so a budget never outlives its check or reaches another solver on
  // the same context.
  // Setting them as solver params instead (Z3_solver_set_params)
  // re-configures the combined solver's layers: 0.75 ms a call, against
  // about a microsecond for the two context updates.

  /// The incremental attempt's rlimit cap per literal on the solver.
  /// Z3's resource use grows with the formula, so the cap does too: the
  /// stalled window above (1.3k literals) burns 4.5M units in 5 s, while
  /// a 98k-literal causal query the incremental solver decides in half
  /// a second (and one-shot in 17 s) needs 2.05M. Fixed caps of 100k,
  /// 250k and 500k either lost such session answers or cost
  /// `stream_window` latency; README "Long-lived sessions" has the sweep.
  static constexpr unsigned ScopedCheckRlimitPerLiteral = 200;

  /// Opens a backtrackable assertion scope.
  void push();

  /// Discards every assertion since the matching push() and rewinds the
  /// context's literal counter to its value at that push().
  void pop();

  /// Current scope depth (0 = root).
  size_t scopeDepth() const { return Scopes.size(); }

  /// True when no scope is open. Assertions made now persist across
  /// later push/pop cycles — the precondition for growing a streaming
  /// session's base prefix (PredictSession::extend asserts it: an
  /// extend inside a query scope would vanish at the pop).
  bool atRootScope() const { return Scopes.empty(); }

  /// Decides the asserted formula; with a scope open, see "Solver
  /// scopes" for the capped attempt and its one-shot fallback.
  SmtResult check();

  /// Z3's explanation for the last Unknown check ("timeout", "canceled",
  /// "(incomplete ...)"); empty before any check or after a decided one.
  const std::string &reasonUnknown() const { return LastReasonUnknown; }

  /// Search statistics of the last check() alone (attempt plus fallback
  /// on the fallback path). Collected is false before the first check.
  SolverStatistics statistics() const { return LastStats; }

  //===--------------------------------------------------------------------===
  // Model access (valid after check() == Sat until the next check/add)
  //===--------------------------------------------------------------------===

  /// Evaluates an integer term in the current model (model completion on,
  /// so unconstrained variables get a default value).
  int64_t modelInt(SmtExpr E);

  /// Evaluates a boolean term in the current model.
  bool modelBool(SmtExpr E);

private:
  /// What push() saved: the context's asserted-literal count and the
  /// assertion-stack depth.
  struct Scope {
    uint64_t Lits;
    size_t Asserts;
  };

  SmtContext &Parent;
  Z3_solver Solver;
  Z3_model Model = nullptr;
  std::vector<Scope> Scopes;
  /// Every AST asserted and not popped, in order (the fallback's input).
  std::vector<Z3_ast> Asserted;
  unsigned TimeoutMs = 0;
  SolverStatistics LastStats;
  /// The live solver's running counters when its last check ended.
  SolverStatistics Baseline;
  std::string LastReasonUnknown;

  /// Cross-thread cancellation handshake (see interrupt()).
  std::atomic<bool> Interrupted{false};
  std::mutex InterruptMutex;
  /// The Z3 solver inside Z3_solver_check, if any. Guarded by
  /// InterruptMutex.
  Z3_solver Running = nullptr;

  void releaseModel();
  /// Z3_solver_check on \p S under a timeout of \p WallMs and a cap of
  /// \p Rlimit (0 = none for both) and the interrupt handshake: the
  /// outcome, with the model (sat) or reason (unknown) taken; Unknown
  /// ("canceled") without entering Z3 when an interrupt is pending.
  SmtResult guardedCheck(Z3_solver S, unsigned WallMs, unsigned Rlimit);
  /// Z3's running search counters of \p S.
  SolverStatistics readStatistics(Z3_solver S) const;
};

} // namespace isopredict

#endif // ISOPREDICT_SMT_SMT_H
