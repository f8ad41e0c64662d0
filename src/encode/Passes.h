//===- Passes.h - Composable encoding passes (Appendix B) -----*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Appendix-B constraint system as composable pipeline passes over a
/// shared EncodingContext. Each pass asserts one coherent slice of the
/// constraint system on the context's solver:
///
///   DeclarePass        variable tables (φso/φwr/φhb, φwr_k, φchoice,
///                      boundary/cut)                  — declarations only
///   FeasibilityPass    B.1: observed so, boundary domains, read
///                      choices, φwr_k definitions
///   HbClosurePass      §4.3: φhb = (so ∪ wr)⁺ — causal queries only
///   BoundaryLinkPass   Table 1: cut ↔ boundary for the query's
///                      boundary mode
///   WindowPass         streaming only: the non-monotone B.1 families
///   ExactStrictPass    B.2.1: ∀co. ¬IsSerializable(co), plus its
///                      ground instance at the observed commit order
///   ApproxRankPass     B.2.2: rank-guarded pco cycle
///   CausalPass         B.3.1: (hb ∪ wwcausal) embeds in a total order
///   ReadAtomicPass     like B.3.1 with one-step visibility (§8)
///   ReadCommittedPass  B.3.2: (hb ∪ wwrc) embeds in a total order
///
/// Pass order is fixed by EncoderPipeline: declare → feasibility once
/// (forSessionBase), then per query boundary-link → one strategy pass →
/// one isolation pass (forQuery; streaming prepends the window pass).
/// A causal query also needs the hb closure: right after the base for
/// non-streaming sessions (forClosure, once per session), after the
/// window pass for streaming ones. One-shot predict() and session
/// queries run the same sequence, so they build the same constraint
/// system.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENCODE_PASSES_H
#define ISOPREDICT_ENCODE_PASSES_H

#include "encode/EncodingContext.h"

namespace isopredict {
namespace encode {

/// One stage of the encoding pipeline. Passes are stateless; everything
/// they build lives in the EncodingContext.
class EncodingPass {
public:
  virtual ~EncodingPass() = default;

  /// Stable pass name used in EncodingStats attribution and reports.
  virtual const char *name() const = 0;

  virtual void run(EncodingContext &EC) = 0;
};

/// Declares the shared variable tables (no assertions).
class DeclarePass : public EncodingPass {
public:
  const char *name() const override { return "declare"; }
  void run(EncodingContext &EC) override;
};

/// B.1: feasibility of the predicted prefix.
class FeasibilityPass : public EncodingPass {
public:
  const char *name() const override { return "feasibility"; }
  void run(EncodingContext &EC) override;
};

/// Links each session's cut to its boundary according to the *current
/// query's* boundary mode (Table 1) — Cut == Boundary under a strict
/// boundary, the end of the boundary read's transaction under the
/// relaxed one. Kept out of DeclarePass/FeasibilityPass so the
/// declare+feasibility prefix is query-invariant and reusable across
/// solver scopes.
class BoundaryLinkPass : public EncodingPass {
public:
  const char *name() const override { return "boundary-link"; }
  void run(EncodingContext &EC) override;
};

/// §4.3: φhb, the transitive closure of so ∪ wr, by repeated squaring.
/// Only CausalPass reads it: the wwcausal arbitration of B.3.1 asks for
/// hb outside an embedding. rc and ra embed so ∪ wr in their total
/// order instead, which is sat-equivalent because a strict total order
/// contains a relation exactly when it contains its transitive closure.
/// Non-streaming sessions assert it once, at root scope, the first time
/// a causal query needs it (it is query-invariant there); streaming
/// sessions assert it inside each causal query's scope, because an
/// appended transaction can hb-connect already-encoded pairs.
class HbClosurePass : public EncodingPass {
public:
  const char *name() const override { return "hb"; }
  void run(EncodingContext &EC) override;
};

/// Streaming mode only, first pass of every query scope: asserts the
/// non-monotone B.1 families the streaming base prefix omits — the
/// per-session boundary-domain disjunctions (they widen with every new
/// read, and reference the current ∞ position) and the per-read choice
/// domains (they widen with every new writer of the key). The hb
/// closure is not monotone either; causal queries build it in their
/// scope with HbClosurePass, right after this pass. Formula size is
/// bounded by the encoded window, not the full trace.
class WindowPass : public EncodingPass {
public:
  const char *name() const override { return "window"; }
  void run(EncodingContext &EC) override;
};

/// B.2.1: exact unserializability via a universally quantified commit
/// order, seeded with the quantifier's ground instance at the observed
/// commit order.
class ExactStrictPass : public EncodingPass {
public:
  const char *name() const override { return "exact-strict"; }
  void run(EncodingContext &EC) override;

  /// ¬IsSerializable(co) at the observed order co(t) = t: some so, wr or
  /// arbitration edge of the prediction points backwards in TxnId order.
  /// TxnIds are assigned at commit, so the observed execution is serial
  /// in that order, and this one instance already rules out every
  /// prediction whose edges all point forwards. It is implied by the ∀
  /// (the set of models is unchanged); asserting it next to the ∀ spares
  /// the solver from finding it. Constant true when a folded so or wr
  /// edge already points backwards (nothing to assert).
  static SmtExpr observedOrderInstance(EncodingContext &EC);
};

/// B.2.2 verbatim: free relation variables with integer rank guards
/// (§4.2.2, Fig. 6).
class ApproxRankPass : public EncodingPass {
public:
  const char *name() const override { return "approx-rank"; }
  void run(EncodingContext &EC) override;

private:
  /// The plan-driven realization (PredictOptions::PruneFormula):
  /// observed-so pairs substitute constant-true pco and lose their
  /// ww/rw/rank variables; grounded justifications lose their guards.
  void runPruned(EncodingContext &EC);
};

/// B.3.1: causal-consistency admissibility of the prediction.
class CausalPass : public EncodingPass {
public:
  const char *name() const override { return "causal"; }
  void run(EncodingContext &EC) override;
};

/// Read atomic: like B.3.1 but with one-step visibility (so ∪ wr)
/// instead of the hb closure (the paper's §8 "repeated reads"
/// extension). Embeds so ∪ wr, not hb.
class ReadAtomicPass : public EncodingPass {
public:
  const char *name() const override { return "read-atomic"; }
  void run(EncodingContext &EC) override;
};

/// B.3.2: read-committed admissibility of the prediction. Embeds
/// so ∪ wr, not hb.
class ReadCommittedPass : public EncodingPass {
public:
  const char *name() const override { return "read-committed"; }
  void run(EncodingContext &EC) override;
};

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_PASSES_H
