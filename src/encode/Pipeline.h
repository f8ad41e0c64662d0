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
/// streaming sessions); nothing stops callers from composing their own
/// pass sequence for experiments.
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
  /// feasibility. Encoded once per session, below every solver scope.
  static EncoderPipeline forSessionBase(const PredictOptions &Opts);

  /// The per-query suffix: boundary-link → strategy (B.2) → isolation
  /// (B.3), on top of the forSessionBase prefix — inside one push/pop
  /// scope for session queries, at root scope for one-shot ones.
  static EncoderPipeline forQuery(const PredictOptions &Opts);

  /// The per-query suffix of a *streaming* PredictSession: window →
  /// boundary-link → strategy → isolation. The leading WindowPass
  /// asserts the non-monotone B.1 families (boundary/choice domains,
  /// hb closure) the streaming base prefix omits; forSessionBase is
  /// reused for the base and for each extend delta (the passes branch
  /// on EncodingContext::Streaming internally).
  static EncoderPipeline forStreamQuery(const PredictOptions &Opts);

private:
  std::vector<std::unique_ptr<EncodingPass>> Passes;
};

} // namespace encode
} // namespace isopredict

#endif // ISOPREDICT_ENCODE_PIPELINE_H
