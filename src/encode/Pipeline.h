//===- Pipeline.h - Encoding-pass pipeline --------------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a sequence of encoding passes over one EncodingContext,
/// attributing literals and wall-clock to each pass
/// (EncodingStats::Passes — the breakdown bench/micro_encoding reports).
///
/// Every prediction — a one-shot predict() or a session query — runs
/// forSessionBase() once and then forQuery() (forStreamQuery() for
/// streaming sessions); a non-streaming causal query first runs
/// forClosure() once per session. Nothing stops callers from composing
/// their own pass sequence for experiments.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_ENCODE_PIPELINE_H
#define ISOPREDICT_ENCODE_PIPELINE_H

#include "encode/Passes.h"

#include <memory>
#include <vector>

namespace isopredict {
namespace encode {

class EncoderPipeline {
public:
  EncoderPipeline() = default;
  EncoderPipeline(EncoderPipeline &&) = default;
  EncoderPipeline &operator=(EncoderPipeline &&) = default;

  EncoderPipeline &add(std::unique_ptr<EncodingPass> Pass) {
    Passes.push_back(std::move(Pass));
    return *this;
  }

  /// Runs every pass in order; appends one PassStats entry per pass to
  /// \p Stats (literals sum to the context's asserted-literal delta).
  void run(EncodingContext &EC, EncodingStats &Stats) const;

  /// The query-invariant prefix of a PredictSession: declare →
  /// feasibility → window. Encoded once per session, below every solver
  /// scope. A \p Streaming base stops before the window pass (each
  /// query scope runs it instead) and is re-run for each extend delta.
  static EncoderPipeline forSessionBase(bool Streaming);

  /// The hb closure (HbClosurePass) of a non-streaming session: run
  /// once, at root scope, right after the base and before the first
  /// causal query's scope. Queries at other levels never run it.
  static EncoderPipeline forClosure();

  /// The per-query suffix: boundary-link → strategy (B.2) → isolation
  /// (B.3), on top of the forSessionBase prefix — inside one push/pop
  /// scope for session queries, at root scope for one-shot ones.
  static EncoderPipeline forQuery(const PredictOptions &Opts);

  /// The per-query suffix of a *streaming* PredictSession: window →
  /// (causal only: hb) → boundary-link → strategy → isolation. The
  /// leading WindowPass asserts the non-monotone B.1 domains the
  /// streaming base prefix omits; the hb closure is not monotone
  /// either, so a causal query re-derives it in its own scope, and
  /// rc/ra queries, which embed so ∪ wr, never build it.
  static EncoderPipeline forStreamQuery(const PredictOptions &Opts);

private:
  std::vector<std::unique_ptr<EncodingPass>> Passes;
};

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_PIPELINE_H
