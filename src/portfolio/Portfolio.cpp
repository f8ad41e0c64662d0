//===- Portfolio.cpp - Parallel solve portfolio (lane racing) -------------===//

#include "portfolio/Portfolio.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "predict/PredictSession.h"
#include "support/Env.h"
#include "support/StrUtil.h"

#include <cassert>
#include <mutex>
#include <thread>

using namespace isopredict;
using namespace isopredict::portfolio;

std::vector<LaneSpec> portfolio::buildLanes(const PredictOptions &Q,
                                            unsigned MaxLanes) {
  if (MaxLanes == 0)
    MaxLanes = 1;
  std::vector<LaneSpec> Lanes;
  auto Add = [&](LaneSpec L) {
    if (Lanes.size() < MaxLanes)
      Lanes.push_back(std::move(L));
  };

  // Lane 0: the reference lane — exactly the single-lane configuration.
  LaneSpec Ref;
  Ref.Name = "reference";
  Ref.Prune = Q.PruneFormula;
  Add(Ref);

  // Encoding toggle: the relevance plan's formula ("pruned") and the
  // identity plan's ("unpruned") are sat/unsat-equivalent and often take
  // different search trajectories. Whichever the query did not ask for.
  LaneSpec Toggle = Ref;
  Toggle.Name = Q.PruneFormula ? "unpruned" : "pruned";
  Toggle.Prune = !Q.PruneFormula;
  Add(Toggle);

  // Z3 parameter presets on the reference configuration: heuristic
  // knobs only, sat/unsat-preserving by construction. Values verified
  // against the solver's parameter descriptor (smt_test SetOption).
  LaneSpec Arith = Ref;
  Arith.Name = "arith2";
  Arith.SolverParams = {{"arith.solver", "2"}};
  Add(Arith);

  LaneSpec Seeded = Ref;
  Seeded.Name = "seed7";
  Seeded.SolverParams = {{"random_seed", "7"}, {"sat.random_seed", "7"}};
  Add(Seeded);

  LaneSpec Relevancy = Ref;
  Relevancy.Name = "relevancy0";
  Relevancy.SolverParams = {{"relevancy", "0"}};
  Add(Relevancy);

  assert(Lanes.size() <= TaxonomySize && "TaxonomySize undercounts lanes");
  return Lanes;
}

namespace {

/// Shared state of one race. Sessions[] publishes each live lane's
/// session for cross-thread interrupt; a slot is nulled (under M)
/// before its session is destroyed, so nobody interrupts a dead one.
struct Coordinator {
  std::mutex M;
  bool RaceOver = false;
  int Winner = -1;
  std::vector<PredictSession *> Sessions;
};

} // namespace

RaceResult portfolio::race(const History &Observed,
                           const PredictOptions &Base,
                           const std::vector<LaneSpec> &Lanes,
                           const Validator &Validate) {
  assert(!Lanes.empty() && "race needs at least the reference lane");
  static obs::Counter &Queries =
      obs::Metrics::global().counter("portfolio.queries");
  static obs::Counter &LanesStarted =
      obs::Metrics::global().counter("portfolio.lanes_launched");
  static obs::Counter &LanesCanceled =
      obs::Metrics::global().counter("portfolio.lanes_canceled");
  static obs::Histogram &LaneSeconds =
      obs::Metrics::global().histogram("portfolio.lane_seconds");
  Queries.inc();

  RaceResult Out;
  Out.Lanes.resize(Lanes.size());
  for (size_t I = 0; I < Lanes.size(); ++I)
    Out.Lanes[I].Spec = Lanes[I];

  Coordinator C;
  C.Sessions.assign(Lanes.size(), nullptr);

  obs::Span RaceSpan("portfolio.race", obs::CatPortfolio);
  RaceSpan.arg("lanes", formatString("%zu", Lanes.size()));

  auto LaneMain = [&](size_t I) {
    LaneRun &LR = Out.Lanes[I];
    obs::Span LaneSpan("portfolio.lane", obs::CatPortfolio);
    LaneSpan.arg("lane", LR.Spec.Name.c_str());
    Timer T;

    PredictOptions LO = Base;
    LO.PruneFormula = LR.Spec.Prune;
    LO.SolverParams = LR.Spec.SolverParams;
    std::unique_ptr<PredictSession> Session =
        PredictSession::makeLane(Observed, LO);

    bool AlreadyOver;
    {
      std::lock_guard<std::mutex> Lock(C.M);
      C.Sessions[I] = Session.get();
      AlreadyOver = C.RaceOver;
    }
    if (AlreadyOver) {
      Session->interrupt();
      if (I != 0) {
        // Loser before it started: skip even the encoding. The
        // reference lane is exempt — its generation must complete so
        // the job's literal count stays the single-lane one.
        LR.P.Canceled = true;
      }
    }
    if (!LR.P.Canceled)
      LR.P = Session->solveLane();

    // Every decided answer commits; validate a Sat model outside the
    // lock (validation replays the application and can itself solve),
    // unless another lane has already won.
    bool Decided = !LR.P.Canceled && LR.P.Result != SmtResult::Unknown;
    if (Decided && LR.P.Result == SmtResult::Sat && Validate) {
      bool Over;
      {
        std::lock_guard<std::mutex> Lock(C.M);
        Over = C.RaceOver;
      }
      if (!Over) {
        obs::Span V("portfolio.lane_validate", obs::CatPortfolio);
        V.arg("lane", LR.Spec.Name.c_str());
        LR.Val = Validate(LR.P);
      }
    }
    LR.Seconds = T.seconds();
    LaneSeconds.observe(LR.Seconds);
    if (LR.P.Canceled)
      LanesCanceled.inc();

    {
      std::lock_guard<std::mutex> Lock(C.M);
      C.Sessions[I] = nullptr; // Session dies with this thread.
      if (Decided && !C.RaceOver) {
        C.RaceOver = true;
        C.Winner = static_cast<int>(I);
        for (size_t J = 0; J < C.Sessions.size(); ++J)
          if (J != I && C.Sessions[J])
            C.Sessions[J]->interrupt();
      }
    }
    LaneSpan.arg("result", toString(LR.P.Result));
    LaneSpan.finish();
  };

  std::vector<std::thread> Threads;
  Threads.reserve(Lanes.size());
  Timer Clock;
  for (size_t I = 0; I < Lanes.size(); ++I)
    Threads.emplace_back(LaneMain, I);
  LanesStarted.inc(Lanes.size());
  for (std::thread &T : Threads)
    T.join();

  Out.Winner = C.Winner;
  Out.WallSeconds = Clock.seconds();
  RaceSpan.arg("winner",
               C.Winner >= 0 ? Lanes[C.Winner].Name.c_str() : "none");
  RaceSpan.finish();
  return Out;
}
