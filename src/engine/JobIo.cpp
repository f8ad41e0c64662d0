//===- JobIo.cpp - JobSpec / JobResult JSON round-trip --------------------===//

#include "engine/JobIo.h"

#include "support/StrUtil.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

using namespace isopredict;
using namespace isopredict::engine;

std::string isopredict::engine::workloadLabel(const WorkloadConfig &Cfg) {
  return formatString("%ux%u", Cfg.Sessions, Cfg.TxnsPerSession);
}

std::optional<WorkloadConfig>
isopredict::engine::workloadFromLabel(std::string_view Label, uint64_t Seed) {
  std::string L = toLowerAscii(Label);
  if (L == "small")
    return WorkloadConfig::small(Seed);
  if (L == "large")
    return WorkloadConfig::large(Seed);
  std::vector<std::string_view> Parts = splitString(L, 'x');
  std::optional<unsigned> Sessions, Txns;
  if (Parts.size() == 2) {
    Sessions = parseUnsigned(Parts[0], 1);
    Txns = parseUnsigned(Parts[1], 1);
  }
  if (!Sessions || !Txns)
    return std::nullopt;
  return WorkloadConfig{*Sessions, *Txns, Seed};
}

//===----------------------------------------------------------------------===
// Writing
//===----------------------------------------------------------------------===

void isopredict::engine::writeJobSpecFields(JsonWriter &J, const JobSpec &S) {
  // Stable job identity (FNV-1a of the canonical spec): report_diff
  // matches jobs on it and the result cache names entries after it; hex
  // string rather than a number so 64-bit values survive lossy JSON
  // readers.
  J.str("spec_hash",
        formatString("%016llx", static_cast<unsigned long long>(specHash(S))));
  J.str("kind", toString(S.Kind));
  J.str("app", S.App);
  J.str("workload", workloadLabel(S.Cfg));
  J.num("sessions", static_cast<uint64_t>(S.Cfg.Sessions));
  J.num("txns_per_session", static_cast<uint64_t>(S.Cfg.TxnsPerSession));
  J.num("seed", S.Cfg.Seed);
  // Since schema 2 the spec serializes completely — level/strategy/pco
  // and the validation flags appear for every kind, not just the kinds
  // that consume them — so jobSpecFromJson reconstructs a spec whose
  // canonical serialization (and therefore spec_hash) is exactly the
  // original's.
  J.str("level", toString(S.Level));
  J.str("strategy", toString(S.Strat));
  J.str("pco", toString(S.Pco));
  J.num("store_seed", S.StoreSeed);
  J.num("timeout_ms", static_cast<uint64_t>(S.TimeoutMs));
  J.boolean("validate", S.Validate);
  J.boolean("check_serializability", S.CheckSerializability);
  J.boolean("prune", S.Prune);
  // Stream-only fields, emitted (like the canonical-spec suffix they
  // mirror) only for stream entries: every pre-existing kind keeps its
  // exact bytes, and a parsed stream spec still re-hashes to the
  // recorded spec_hash.
  if (S.Kind == JobKind::Stream) {
    J.num("window", static_cast<uint64_t>(S.Window));
    J.num("chunk", static_cast<uint64_t>(S.StreamChunk));
  }
}

namespace {

/// The pco-cycle witness of a Sat answer.
void writeWitness(JsonWriter &J, const JobResult &R) {
  if (R.Outcome != SmtResult::Sat)
    return;
  J.openArray("witness");
  for (TxnId T : R.Witness)
    J.numElement(T);
  J.closeArray();
}

/// Z3 search statistics of one query; absent when it never
/// reached the solver.
void writeSolverStats(JsonWriter &J, const SolverStatistics &S) {
  if (!S.Collected)
    return;
  J.openObjectIn("solver_stats");
  J.num("conflicts", S.Conflicts);
  J.num("decisions", S.Decisions);
  J.num("restarts", S.Restarts);
  J.num("propagations", S.Propagations);
  J.num("max_memory_mb", S.MaxMemoryMb);
  J.closeObject();
}

} // namespace

void isopredict::engine::writeJobFields(JsonWriter &J, const JobResult &R,
                                        const ReportOptions &Opts) {
  const JobSpec &S = R.Spec;
  writeJobSpecFields(J, S);

  J.boolean("ok", R.Ok);
  if (!R.Ok) {
    J.str("error", R.Error);
    return;
  }

  J.num("committed_txns", static_cast<uint64_t>(R.CommittedTxns));
  J.num("reads", static_cast<uint64_t>(R.Reads));
  J.num("writes", static_cast<uint64_t>(R.Writes));
  J.num("read_only_txns", static_cast<uint64_t>(R.ReadOnlyTxns));
  J.num("aborted_txns", static_cast<uint64_t>(R.AbortedTxns));

  if (S.Kind == JobKind::Predict) {
    J.str("result", toString(R.Outcome));
    // Unknown-because-timeout marker (satellite of the obs PR): lets
    // consumers separate budget exhaustion from genuine solver
    // incompleteness. Emitted only when set — not timings-gated,
    // because the distinction must survive shard/cache round-trips —
    // and timeouts are uncacheable (cache::cacheable rejects Unknown),
    // so cold/warm byte-identity is unaffected.
    if (R.TimedOut)
      J.boolean("timeout", true);
    // Unknown-because-interrupted marker (SmtSolver::interruptAll on
    // SIGINT or a server drain), kept distinct from "timeout" with the
    // same gating rationale. Only interrupted runs set it, so default
    // report bytes of completed runs are unaffected.
    if (R.Canceled)
      J.boolean("canceled", true);
    J.num("literals", R.Stats.NumLiterals);
    // Present only on answers from a warm server history session, where
    // literal counts cover just the per-query passes: the base prefix
    // was already on the session's solver. Emitted only when true, so
    // one-shot answers (every campaign job) carry no such field.
    if (R.Stats.BasePrefixReused)
      J.boolean("base_prefix_reused", true);
    writeWitness(J, R);
    if (S.Validate) {
      J.str("validation", toString(R.ValStatus));
      J.boolean("diverged", R.Diverged);
    }
  }
  if (S.Kind == JobKind::Stream) {
    // Final step's answer, witness in full-history ids. Replay
    // validation never runs for stream jobs (a windowed witness speaks
    // for the window), so there is no validation field to emit.
    J.str("result", toString(R.Outcome));
    if (R.TimedOut)
      J.boolean("timeout", true);
    writeWitness(J, R);
    // Per-step outcomes, in feed order. Outcome fields are default
    // bytes; literals and seconds are timings-gated because they
    // depend on the execution mode (extend vs from-scratch baseline),
    // and the stream tests compare the two modes' reports.
    J.openArray("steps");
    for (const StreamStep &St : R.Steps) {
      J.openElement();
      J.num("txns", static_cast<uint64_t>(St.Txns));
      J.num("window_txns", static_cast<uint64_t>(St.WindowTxns));
      J.str("result", toString(St.Outcome));
      if (St.TimedOut)
        J.boolean("timeout", true);
      if (Opts.IncludeTimings) {
        J.num("literals", St.Literals);
        if (St.EpochRebuild)
          J.boolean("epoch_rebuild", true);
        J.num("extend_seconds", St.ExtendSeconds);
        J.num("solve_seconds", St.SolveSeconds);
      }
      J.closeObject();
    }
    J.closeArray();
  }
  if (S.Kind == JobKind::RandomWeak) {
    J.boolean("assertion_failed", R.AssertionFailed);
    if (S.CheckSerializability)
      J.str("serializability", toString(R.Serializability));
  }
  if (S.Kind == JobKind::LockingRc) {
    J.boolean("assertion_failed", R.AssertionFailed);
    J.num("deadlock_aborts", static_cast<uint64_t>(R.DeadlockAborts));
  }
  if (!R.FailedAssertions.empty()) {
    J.openArray("failed_assertions");
    for (const std::string &Msg : R.FailedAssertions)
      J.strElement(Msg);
    J.closeArray();
  }
  if (Opts.IncludeTimings) {
    // Stream results carry the final step's query stats in the same
    // Predict-shaped fields.
    if (S.Kind == JobKind::Predict || S.Kind == JobKind::Stream) {
      J.num("gen_seconds", R.Stats.GenSeconds);
      J.num("solve_seconds", R.Stats.SolveSeconds);
      if (R.ExactStageReused)
        J.boolean("exact_stage_reused", true);
      // An Approx query's rank-encoding fallback, when it ran. A
      // canceled query never learns whether it would have fallen back,
      // so unlike "literals" it is timings-gated.
      if (R.Stats.FallbackLiterals)
        J.num("fallback_literals", R.Stats.FallbackLiterals);
      // Z3 search statistics for this query (SmtSolver::statistics()).
      // Run-dependent magnitudes, so timings-gated like the seconds
      // fields.
      writeSolverStats(J, R.SolverStats);
      // Per-pass attribution of the encoding pipeline (src/encode/).
      // Timing-gated with the rest: pass literals are deterministic,
      // but adding fields to the default report would break its
      // byte-stability contract across versions.
      if (!R.Stats.Passes.empty()) {
        J.openArray("passes");
        for (const PassStats &P : R.Stats.Passes) {
          J.openElement();
          J.str("name", P.Name);
          J.num("literals", P.Literals);
          J.num("seconds", P.Seconds);
          J.closeObject();
        }
        J.closeArray();
      }
    }
    // Whether this run answered the job from the result cache. A
    // property of the run, not of the job (the same campaign is all
    // misses cold and all hits warm), so it rides with the other
    // run-dependent fields: default reports stay byte-identical across
    // cold and warm runs.
    if (R.CacheHit)
      J.boolean("cache_hit", true);
    J.num("wall_seconds", R.WallSeconds);
  }
}

//===----------------------------------------------------------------------===
// Parsing
//===----------------------------------------------------------------------===

namespace {

bool setError(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

const JsonValue *want(const JsonValue &Obj, const char *Key,
                      JsonValue::Kind K, std::string *Error) {
  const JsonValue *F = Obj.field(Key);
  if (!F || F->K != K) {
    setError(Error, formatString("job entry: missing or ill-typed '%s'", Key));
    return nullptr;
  }
  return F;
}

std::optional<uint64_t> wantU64(const JsonValue &Obj, const char *Key,
                                std::string *Error) {
  const JsonValue *F = want(Obj, Key, JsonValue::Kind::Number, Error);
  if (!F)
    return std::nullopt;
  // Strict: the JSON number grammar scan passes '-'/'.'/exponents
  // through as text, and strtoull would silently wrap "-1" — parseInt
  // rejects every non-plain-decimal spelling (and negatives below).
  std::optional<int64_t> V = parseInt(F->Text);
  if (!V || *V < 0) {
    setError(Error,
             formatString("job entry: '%s' is not a non-negative integer",
                          Key));
    return std::nullopt;
  }
  return static_cast<uint64_t>(*V);
}

/// wantU64 for fields stored as `unsigned`: a larger value would wrap
/// (a spec's timeout_ms 2^32 into 0, "no timeout": a different spec).
std::optional<unsigned> wantUnsigned(const JsonValue &Obj, const char *Key,
                                     std::string *Error) {
  std::optional<uint64_t> V = wantU64(Obj, Key, Error);
  if (!V)
    return std::nullopt;
  if (*V > std::numeric_limits<unsigned>::max()) {
    setError(Error, formatString("job entry: '%s' is out of range (at most %u)",
                                 Key, std::numeric_limits<unsigned>::max()));
    return std::nullopt;
  }
  return static_cast<unsigned>(*V);
}

std::optional<bool> wantBool(const JsonValue &Obj, const char *Key,
                             std::string *Error) {
  const JsonValue *F = want(Obj, Key, JsonValue::Kind::Bool, Error);
  if (!F)
    return std::nullopt;
  return F->B;
}

std::optional<std::string> wantStr(const JsonValue &Obj, const char *Key,
                                   std::string *Error) {
  const JsonValue *F = want(Obj, Key, JsonValue::Kind::String, Error);
  if (!F)
    return std::nullopt;
  return F->Text;
}

/// Optional double field (timing entries); 0 when absent.
double optDouble(const JsonValue &Obj, const char *Key) {
  const JsonValue *F = Obj.field(Key);
  if (!F || F->K != JsonValue::Kind::Number)
    return 0;
  return std::strtod(F->Text.c_str(), nullptr);
}

/// Optional string field (names); empty when absent.
std::string optStr(const JsonValue &Obj, const char *Key) {
  const JsonValue *F = Obj.field(Key);
  return F && F->K == JsonValue::Kind::String ? F->Text : std::string();
}

/// Optional flag; \p Default when absent.
bool optBool(const JsonValue &Obj, const char *Key, bool Default = false) {
  const JsonValue *F = Obj.field(Key);
  return F && F->K == JsonValue::Kind::Bool ? F->B : Default;
}

/// Optional counter field; 0 when absent.
uint64_t optU64(const JsonValue &Obj, const char *Key) {
  const JsonValue *F = Obj.field(Key);
  if (!F || F->K != JsonValue::Kind::Number)
    return 0;
  return std::strtoull(F->Text.c_str(), nullptr, 10);
}

/// The "solver_stats" object of \p Obj, when present.
void readSolverStats(const JsonValue &Obj, SolverStatistics &S) {
  const JsonValue *Stats = Obj.field("solver_stats");
  if (!Stats || Stats->K != JsonValue::Kind::Object)
    return;
  S.Conflicts = optU64(*Stats, "conflicts");
  S.Decisions = optU64(*Stats, "decisions");
  S.Restarts = optU64(*Stats, "restarts");
  S.Propagations = optU64(*Stats, "propagations");
  S.MaxMemoryMb = optDouble(*Stats, "max_memory_mb");
  S.Collected = true;
}

/// The answer fields Predict and Stream entries share: result, the
/// timeout/canceled markers, and a Sat answer's witness. Witness ids
/// land in default-report bytes, so a damaged array must reject the
/// whole entry (a cache miss), never be served as zeros or wrapped
/// negatives.
bool readAnswer(const JsonValue &Obj, JobResult &R, std::string *Error) {
  std::optional<std::string> Result = wantStr(Obj, "result", Error);
  if (!Result)
    return false;
  std::optional<SmtResult> Outcome = smtResultFromString(*Result);
  if (!Outcome)
    return setError(Error, "job entry: unknown result '" + *Result + "'");
  R.Outcome = *Outcome;
  R.TimedOut = optBool(Obj, "timeout");
  R.Canceled = optBool(Obj, "canceled");
  if (R.Outcome != SmtResult::Sat)
    return true;
  const JsonValue *W = want(Obj, "witness", JsonValue::Kind::Array, Error);
  if (!W)
    return false;
  for (const JsonValue &T : W->Items) {
    std::optional<int64_t> Id =
        T.K == JsonValue::Kind::Number ? parseInt(T.Text) : std::nullopt;
    if (!Id || *Id < 0)
      return setError(Error, "job entry: ill-typed witness element");
    R.Witness.push_back(static_cast<TxnId>(*Id));
  }
  return true;
}

} // namespace

std::optional<JobSpec>
isopredict::engine::jobSpecFromJson(const JsonValue &Obj, std::string *Error) {
  JobSpec S;

  std::optional<std::string> Kind = wantStr(Obj, "kind", Error);
  if (!Kind)
    return std::nullopt;
  std::optional<JobKind> K = jobKindFromString(*Kind);
  if (!K) {
    setError(Error, "job entry: unknown kind '" + *Kind + "'");
    return std::nullopt;
  }
  S.Kind = *K;

  std::optional<std::string> App = wantStr(Obj, "app", Error);
  if (!App)
    return std::nullopt;
  S.App = *App;

  std::optional<unsigned> Sessions = wantUnsigned(Obj, "sessions", Error);
  std::optional<unsigned> Txns = wantUnsigned(Obj, "txns_per_session", Error);
  std::optional<uint64_t> Seed = wantU64(Obj, "seed", Error);
  if (!Sessions || !Txns || !Seed)
    return std::nullopt;
  S.Cfg.Sessions = *Sessions;
  S.Cfg.TxnsPerSession = *Txns;
  S.Cfg.Seed = *Seed;

  std::optional<std::string> Level = wantStr(Obj, "level", Error);
  std::optional<std::string> Strat = wantStr(Obj, "strategy", Error);
  std::optional<std::string> Pco = wantStr(Obj, "pco", Error);
  if (!Level || !Strat || !Pco)
    return std::nullopt;
  // Names the offending field and the accepted spellings.
  auto Unknown = [&](const char *Field, const std::string &Value,
                     const char *Valid) -> std::optional<JobSpec> {
    setError(Error, std::string("job entry: unknown ") + Field + " '" +
                        Value + "' (field \"" + Field +
                        "\"; accepted: " + Valid + ")");
    return std::nullopt;
  };
  std::optional<IsolationLevel> L = isolationLevelFromString(*Level);
  if (!L)
    return Unknown("level", *Level, isolationLevelValidNames());
  std::optional<Strategy> St = strategyFromString(*Strat);
  if (!St)
    return Unknown("strategy", *Strat, strategyValidNames());
  std::optional<PcoEncoding> P = pcoEncodingFromString(*Pco);
  if (!P)
    return Unknown("pco", *Pco, pcoEncodingValidNames());
  S.Level = *L;
  S.Strat = *St;
  S.Pco = *P;

  std::optional<uint64_t> StoreSeed = wantU64(Obj, "store_seed", Error);
  std::optional<unsigned> TimeoutMs = wantUnsigned(Obj, "timeout_ms", Error);
  std::optional<bool> Validate = wantBool(Obj, "validate", Error);
  std::optional<bool> CheckSer =
      wantBool(Obj, "check_serializability", Error);
  if (!StoreSeed || !TimeoutMs || !Validate || !CheckSer)
    return std::nullopt;
  S.StoreSeed = *StoreSeed;
  S.TimeoutMs = *TimeoutMs;
  S.Validate = *Validate;
  S.CheckSerializability = *CheckSer;
  // Added with the prune field (tool version 5). A file that omits it
  // means JobSpec's default, as the server protocol does.
  S.Prune = optBool(Obj, "prune", JobSpec().Prune);
  // Stream entries always carry their window/chunk (they are part of
  // the canonical spec for this kind); other kinds never do.
  if (S.Kind == JobKind::Stream) {
    std::optional<unsigned> Window = wantUnsigned(Obj, "window", Error);
    std::optional<unsigned> Chunk = wantUnsigned(Obj, "chunk", Error);
    if (!Window || !Chunk)
      return std::nullopt;
    S.Window = *Window;
    S.StreamChunk = *Chunk;
  }

  // The recorded hash must re-derive from the reconstructed spec: a
  // mismatch means the entry was written by an incompatible
  // serialization (or corrupted), and trusting it would file results
  // under the wrong identity.
  std::optional<std::string> Hash = wantStr(Obj, "spec_hash", Error);
  if (!Hash)
    return std::nullopt;
  std::string Expected =
      formatString("%016llx", static_cast<unsigned long long>(specHash(S)));
  if (*Hash != Expected) {
    setError(Error, "job entry: spec_hash '" + *Hash +
                        "' does not match reconstructed spec (" + Expected +
                        ")");
    return std::nullopt;
  }
  return S;
}

std::optional<JobResult>
isopredict::engine::jobResultFromJson(const JsonValue &Obj,
                                      std::string *Error) {
  std::optional<JobSpec> Spec = jobSpecFromJson(Obj, Error);
  if (!Spec)
    return std::nullopt;
  JobResult R;
  R.Spec = *Spec;
  const JobSpec &S = R.Spec;

  std::optional<bool> Ok = wantBool(Obj, "ok", Error);
  if (!Ok)
    return std::nullopt;
  R.Ok = *Ok;
  if (!R.Ok) {
    std::optional<std::string> Err = wantStr(Obj, "error", Error);
    if (!Err)
      return std::nullopt;
    R.Error = *Err;
    return R;
  }

  std::optional<unsigned> Committed =
      wantUnsigned(Obj, "committed_txns", Error);
  std::optional<unsigned> Reads = wantUnsigned(Obj, "reads", Error);
  std::optional<unsigned> Writes = wantUnsigned(Obj, "writes", Error);
  std::optional<unsigned> ReadOnly =
      wantUnsigned(Obj, "read_only_txns", Error);
  std::optional<unsigned> Aborted = wantUnsigned(Obj, "aborted_txns", Error);
  if (!Committed || !Reads || !Writes || !ReadOnly || !Aborted)
    return std::nullopt;
  R.CommittedTxns = *Committed;
  R.Reads = *Reads;
  R.Writes = *Writes;
  R.ReadOnlyTxns = *ReadOnly;
  R.AbortedTxns = *Aborted;

  if ((S.Kind == JobKind::Predict || S.Kind == JobKind::Stream) &&
      !readAnswer(Obj, R, Error))
    return std::nullopt;
  if (S.Kind == JobKind::Predict) {
    std::optional<uint64_t> Literals = wantU64(Obj, "literals", Error);
    if (!Literals)
      return std::nullopt;
    R.Stats.NumLiterals = *Literals;
    R.Stats.BasePrefixReused = optBool(Obj, "base_prefix_reused");
    if (S.Validate) {
      std::optional<std::string> Val = wantStr(Obj, "validation", Error);
      std::optional<bool> Diverged = wantBool(Obj, "diverged", Error);
      if (!Val || !Diverged)
        return std::nullopt;
      std::optional<ValidationResult::Status> VS =
          validationStatusFromString(*Val);
      if (!VS) {
        setError(Error, "job entry: unknown validation '" + *Val + "'");
        return std::nullopt;
      }
      R.ValStatus = *VS;
      R.Diverged = *Diverged;
    }
  }

  if (S.Kind == JobKind::Stream) {
    const JsonValue *Steps = want(Obj, "steps", JsonValue::Kind::Array, Error);
    if (!Steps)
      return std::nullopt;
    for (const JsonValue &SV : Steps->Items) {
      if (SV.K != JsonValue::Kind::Object) {
        setError(Error, "job entry: ill-typed steps element");
        return std::nullopt;
      }
      StreamStep St;
      std::optional<unsigned> Txns = wantUnsigned(SV, "txns", Error);
      std::optional<unsigned> WinTxns =
          wantUnsigned(SV, "window_txns", Error);
      std::optional<std::string> StRes = wantStr(SV, "result", Error);
      if (!Txns || !WinTxns || !StRes)
        return std::nullopt;
      std::optional<SmtResult> SO = smtResultFromString(*StRes);
      if (!SO) {
        setError(Error, "job entry: unknown step result '" + *StRes + "'");
        return std::nullopt;
      }
      St.Txns = *Txns;
      St.WindowTxns = *WinTxns;
      St.Outcome = *SO;
      St.TimedOut = optBool(SV, "timeout");
      St.EpochRebuild = optBool(SV, "epoch_rebuild");
      St.Literals = optU64(SV, "literals");
      St.ExtendSeconds = optDouble(SV, "extend_seconds");
      St.SolveSeconds = optDouble(SV, "solve_seconds");
      R.Steps.push_back(St);
    }
  }

  if (S.Kind == JobKind::RandomWeak && S.CheckSerializability) {
    std::optional<std::string> Ser = wantStr(Obj, "serializability", Error);
    if (!Ser)
      return std::nullopt;
    std::optional<SerResult> SR = serResultFromString(*Ser);
    if (!SR) {
      setError(Error, "job entry: unknown serializability '" + *Ser + "'");
      return std::nullopt;
    }
    R.Serializability = *SR;
  }
  if (S.Kind == JobKind::LockingRc) {
    std::optional<unsigned> Deadlocks =
        wantUnsigned(Obj, "deadlock_aborts", Error);
    if (!Deadlocks)
      return std::nullopt;
    R.DeadlockAborts = *Deadlocks;
  }

  if (const JsonValue *Failed = Obj.field("failed_assertions")) {
    if (Failed->K != JsonValue::Kind::Array) {
      setError(Error, "job entry: ill-typed 'failed_assertions'");
      return std::nullopt;
    }
    for (const JsonValue &Msg : Failed->Items) {
      if (Msg.K != JsonValue::Kind::String) {
        setError(Error, "job entry: ill-typed failed_assertions element");
        return std::nullopt;
      }
      R.FailedAssertions.push_back(Msg.Text);
    }
  }
  // RandomWeak / LockingRc carry the flag explicitly; Predict entries
  // derive it (a validating replay fails assertions iff it recorded
  // their messages — see WorkloadRunner's RunResult::assertionFailed).
  if (const JsonValue *AF = Obj.field("assertion_failed"))
    R.AssertionFailed = AF->K == JsonValue::Kind::Bool && AF->B;
  else
    R.AssertionFailed = !R.FailedAssertions.empty();

  // Run-dependent fields, present only in entries written with
  // IncludeTimings (the result cache stores them so a warm --timings
  // report can still attribute the original compute cost).
  R.Stats.GenSeconds = optDouble(Obj, "gen_seconds");
  R.Stats.SolveSeconds = optDouble(Obj, "solve_seconds");
  R.ExactStageReused = optBool(Obj, "exact_stage_reused");
  R.Stats.FallbackLiterals = optU64(Obj, "fallback_literals");
  R.WallSeconds = optDouble(Obj, "wall_seconds");
  R.CacheHit = optBool(Obj, "cache_hit");
  readSolverStats(Obj, R.SolverStats);
  if (const JsonValue *Passes = Obj.field("passes"))
    if (Passes->K == JsonValue::Kind::Array)
      for (const JsonValue &P : Passes->Items) {
        if (P.K != JsonValue::Kind::Object) {
          setError(Error, "job entry: ill-typed passes element");
          return std::nullopt;
        }
        PassStats PS;
        PS.Name = optStr(P, "name");
        PS.Literals = optU64(P, "literals");
        PS.Seconds = optDouble(P, "seconds");
        R.Stats.Passes.push_back(std::move(PS));
      }
  return R;
}
