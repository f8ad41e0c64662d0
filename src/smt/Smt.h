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

/// Search statistics for one solver, read from Z3 after a check()
/// (SmtSolver::statistics()). Z3 reports per-engine key variants
/// ("conflicts" vs "sat conflicts" depending on which engine ran);
/// matching variants are summed into one field. These are the raw
/// difficulty signal recorded per query into JobResult / `--timings`
/// report JSON — values are run-dependent, never part of the default
/// deterministic report surface.
struct SolverStatistics {
  uint64_t Conflicts = 0;
  uint64_t Decisions = 0;
  uint64_t Restarts = 0;
  uint64_t Propagations = 0;
  double MaxMemoryMb = 0; ///< Peak Z3 allocation, megabytes.
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

/// A satisfiability query; owns a Z3 solver object.
class SmtSolver {
public:
  /// \p Logic optionally names an SMT-LIB logic (e.g. "QF_LIA") to get a
  /// specialized solver; quantified encodings must leave it null.
  explicit SmtSolver(SmtContext &Ctx, const char *Logic = nullptr);
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

  /// Sets the per-check timeout. 0 means no timeout.
  void setTimeoutMs(unsigned Ms);

  /// Sets one solver parameter by name ("smt.arith.solver", "smt.random_seed",
  /// "smt.relevancy", ...). The value string is sniffed: all-digits becomes a
  /// uint, "true"/"false" a bool, anything else a symbol. Only
  /// sat/unsat-preserving heuristic knobs belong here (portfolio lane
  /// presets); an unknown parameter name is a fatal Z3 error.
  void setOption(const std::string &Name, const std::string &Value);

  //===--------------------------------------------------------------------===
  // Cross-thread cancellation (portfolio lanes)
  //===--------------------------------------------------------------------===
  //
  // All other members of SmtSolver/SmtContext are single-owner-thread
  // only; interrupt() is the one call that may arrive from another
  // thread. Z3_solver_interrupt is only guaranteed safe against a
  // concurrently *running* Z3_solver_check, so the handshake below never
  // issues it outside one: check() publishes an in-check flag under
  // InterruptMutex, and interrupt() forwards to Z3 only while that flag
  // is up (clearing the flag re-acquires the mutex, so a forwarding
  // interrupt finishes before check() returns to the owner). An
  // interrupt that lands outside a check is not lost — the sticky
  // Interrupted flag makes the next check() return Unknown ("canceled")
  // without entering Z3 at all.

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

  /// Opens a backtrackable assertion scope.
  void push();

  /// Discards every assertion since the matching push() and rewinds the
  /// context's literal counter to its value at that push().
  void pop();

  /// Current scope depth (0 = root).
  size_t scopeDepth() const { return ScopeLits.size(); }

  /// True when no scope is open. Assertions made now persist across
  /// later push/pop cycles — the precondition for growing a streaming
  /// session's base prefix (PredictSession::extend asserts it: an
  /// extend inside a query scope would vanish at the pop).
  bool atRootScope() const { return ScopeLits.empty(); }

  SmtResult check();

  /// Z3's explanation for the last Unknown check ("timeout", "canceled",
  /// "(incomplete ...)"); empty before any check or after a decided one.
  const std::string &reasonUnknown() const { return LastReasonUnknown; }

  /// Reads the solver's cumulative search statistics
  /// (Z3_solver_get_statistics). Valid any time; meaningful after a
  /// check().
  SolverStatistics statistics() const;

  //===--------------------------------------------------------------------===
  // Model access (valid after check() == Sat until the next check/add)
  //===--------------------------------------------------------------------===

  /// Evaluates an integer term in the current model (model completion on,
  /// so unconstrained variables get a default value).
  int64_t modelInt(SmtExpr E);

  /// Evaluates a boolean term in the current model.
  bool modelBool(SmtExpr E);

private:
  SmtContext &Parent;
  Z3_solver Solver;
  Z3_model Model = nullptr;
  /// Asserted-literal count of the context at each open push().
  std::vector<uint64_t> ScopeLits;
  std::string LastReasonUnknown;

  /// Cross-thread cancellation handshake (see interrupt()).
  std::atomic<bool> Interrupted{false};
  std::mutex InterruptMutex;
  bool InCheck = false; ///< Guarded by InterruptMutex.

  void releaseModel();
};

} // namespace isopredict

#endif // ISOPREDICT_SMT_SMT_H
