//===- Checkers.h - Isolation-level checkers for concrete histories -*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checkers that decide properties of *concrete* execution histories
/// (§2): causal and read-committed validity (polynomial, since their
/// arbitration orders do not depend on the commit order), serializability
/// (NP-hard; decided with an ∃co SMT query, plus a brute-force
/// permutation checker for small histories and a sound polynomial
/// "pco saturation" under-approximation used for fast paths and
/// cross-checking).
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_CHECKER_CHECKERS_H
#define ISOPREDICT_CHECKER_CHECKERS_H

#include "history/BitRel.h"
#include "history/History.h"

#include <optional>
#include <string_view>
#include <vector>

namespace isopredict {

/// Isolation levels this reproduction supports: the paper's causal and
/// rc, serializable for the observed-execution store mode, and read
/// atomic (a.k.a. repeated reads) — the extension the paper names as
/// straightforward future work (§8). Strength: serializable > causal >
/// read atomic > rc.
enum class IsolationLevel { Serializable, Causal, ReadAtomic,
                            ReadCommitted };

const char *toString(IsolationLevel Level);

/// Parses an isolation-level name: the canonical toString spellings
/// plus the CLI short forms ("ra" for read-atomic), ASCII
/// case-insensitively. std::nullopt on anything else.
std::optional<IsolationLevel> isolationLevelFromString(std::string_view Name);

/// The *predictable* (weak) level spellings, for CLI error lists —
/// isolationLevelFromString additionally accepts "serializable".
const char *isolationLevelValidNames(); // "causal, rc, ra"

//===----------------------------------------------------------------------===
// Concrete relations
//===----------------------------------------------------------------------===

/// Session order as a relation (t0 before everything; same-session by
/// index).
BitRel soRel(const History &H);

/// Write–read order: wr(t1,t2) iff some read of t2 observes t1.
BitRel wrRel(const History &H);

/// Happens-before: (so ∪ wr)+.
BitRel hbRel(const History &H);

/// Causal arbitration order wwcausal (Eq. 2), computed against the given
/// happens-before closure.
BitRel wwCausalRel(const History &H, const BitRel &Hb);

/// Read-committed arbitration order wwrc (Eq. 4).
BitRel wwRcRel(const History &H);

/// Read-atomic arbitration order: wwra(t1,t2) iff t1 and t2 write some
/// key k and a third transaction t3 reads k from t2 while t1 is
/// *directly* visible to t3 (so(t1,t3) or wr(t1,t3)). This is Eq. 2
/// with one-step visibility instead of the hb closure, following the
/// Biswas–Enea framework's read-atomic axiom; wwrc ⊆ wwra ⊆ wwcausal.
BitRel wwRaRel(const History &H);

//===----------------------------------------------------------------------===
// Level checks
//===----------------------------------------------------------------------===

/// True iff (hb ∪ wwcausal)+ is acyclic (§2.3).
bool isCausal(const History &H);

/// True iff (hb ∪ wwrc)+ is acyclic (§2.4).
bool isReadCommitted(const History &H);

/// True iff (hb ∪ wwra)+ is acyclic (read atomic / repeated reads).
bool isReadAtomic(const History &H);

/// Result of a serializability query.
enum class SerResult { Serializable, Unserializable, Unknown };

const char *toString(SerResult R);

/// Inverse of toString: parses "serializable" / "unserializable" /
/// "unknown" (ASCII case-insensitively). std::nullopt on anything else.
std::optional<SerResult> serResultFromString(std::string_view Name);

/// Decides serializability with an ∃co SMT query (§5 "Checking
/// serializability"): an integer commit position per transaction,
/// Distinct, hb ⊆ co, and the Eq. 1 arbitration implications, solved
/// on Z3's plain SMT kernel (SolverKind::Kernel). A solver timeout
/// yields Unknown.
SerResult checkSerializableSmt(const History &H, unsigned TimeoutMs = 0);

/// Sound, polynomial unserializability witness via pco saturation
/// (§4.2.2 applied to a concrete history): saturate
/// pco = (so ∪ wr ∪ ww ∪ rw)+ to its least fixpoint; a cycle proves the
/// history unserializable. Returns the cycle's transactions if found.
std::optional<std::vector<TxnId>> pcoCycle(const History &H);

/// Returns the saturated pco relation itself (least fixpoint, closed).
BitRel pcoRel(const History &H);

/// Exhaustive permutation check for small histories (numTxns - 1 <= 9):
/// enumerates commit orders consistent with so and verifies each read
/// observes the most recent preceding write. std::nullopt if too large.
std::optional<bool> bruteForceSerializable(const History &H);

/// Dispatch: does \p H satisfy \p Level? For Serializable this uses the
/// SMT query and maps Unknown to false.
bool satisfiesLevel(const History &H, IsolationLevel Level,
                    unsigned TimeoutMs = 0);

} // namespace isopredict

#endif // ISOPREDICT_CHECKER_CHECKERS_H
