//===- Pipeline.cpp - Encoding-pass pipeline -----------------------------===//

#include "encode/Pipeline.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"

using namespace isopredict;
using namespace isopredict::encode;

void EncoderPipeline::run(EncodingContext &EC, EncodingStats &Stats) const {
  static obs::Counter &PassesRun = obs::Metrics::global().counter("encode.passes");
  static obs::Counter &Literals =
      obs::Metrics::global().counter("encode.literals");
  static obs::Histogram &PassSeconds =
      obs::Metrics::global().histogram("encode.pass_seconds");
  for (const std::unique_ptr<EncodingPass> &Pass : Passes) {
    // The span doubles as the PassStats timer, so `--timings` pass
    // timings and trace spans are the same measurement.
    obs::Span S(Pass->name(), obs::CatEncode);
    uint64_t Before = EC.Ctx.literalCount();
    Pass->run(EC);
    S.finish();
    uint64_t Lits = EC.Ctx.literalCount() - Before;
    Stats.Passes.push_back({Pass->name(), Lits, S.seconds()});
    PassesRun.inc();
    Literals.inc(Lits);
    PassSeconds.observe(S.seconds());
  }
}

/// Appends the strategy (B.2) and isolation (B.3) passes \p Opts
/// selects — the query-dependent tail shared by forQuery and
/// forStreamQuery.
static void addQueryPasses(EncoderPipeline &P, const PredictOptions &Opts) {
  if (Opts.Strat == Strategy::ExactStrict)
    P.add(std::make_unique<ExactStrictPass>());
  else
    P.add(std::make_unique<ApproxRankPass>());

  switch (Opts.Level) {
  case IsolationLevel::Causal:
    P.add(std::make_unique<CausalPass>());
    break;
  case IsolationLevel::ReadAtomic:
    P.add(std::make_unique<ReadAtomicPass>());
    break;
  case IsolationLevel::ReadCommitted:
    P.add(std::make_unique<ReadCommittedPass>());
    break;
  case IsolationLevel::Serializable:
    break; // Rejected by predict()'s precondition.
  }
}

EncoderPipeline EncoderPipeline::forSessionBase(bool Streaming) {
  EncoderPipeline P;
  P.add(std::make_unique<DeclarePass>());
  P.add(std::make_unique<FeasibilityPass>());
  if (!Streaming)
    P.add(std::make_unique<WindowPass>());
  return P;
}

EncoderPipeline EncoderPipeline::forClosure() {
  EncoderPipeline P;
  P.add(std::make_unique<HbClosurePass>());
  return P;
}

EncoderPipeline EncoderPipeline::forQuery(const PredictOptions &Opts) {
  EncoderPipeline P;
  P.add(std::make_unique<BoundaryLinkPass>());
  addQueryPasses(P, Opts);
  return P;
}

EncoderPipeline EncoderPipeline::forStreamQuery(const PredictOptions &Opts) {
  EncoderPipeline P;
  P.add(std::make_unique<WindowPass>());
  if (Opts.Level == IsolationLevel::Causal)
    P.add(std::make_unique<HbClosurePass>());
  P.add(std::make_unique<BoundaryLinkPass>());
  addQueryPasses(P, Opts);
  return P;
}
