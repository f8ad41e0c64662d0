//===- Portfolio.cpp - Parallel solve portfolio (lane racing) -------------===//

#include "portfolio/Portfolio.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "predict/PredictSession.h"
#include "support/Env.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
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
  Ref.Strat = Q.Strat;
  Ref.Prune = Q.PruneFormula;
  Add(Ref);

  // Encoding toggle: the relevance plan's formula ("pruned") and the
  // identity plan's ("unpruned") are sat/unsat-equivalent and often take
  // different search trajectories. Whichever the query did not ask for.
  LaneSpec Toggle = Ref;
  Toggle.Name = Q.PruneFormula ? "unpruned" : "pruned";
  Toggle.Prune = !Q.PruneFormula;
  Add(Toggle);

  // Cross-strategy scouts, along the soundness lattice only (and only
  // for the strict strategies — the relaxed boundary changes the
  // predicted-history semantics):
  //  - approx-sat ⇒ exact-sat (the approx encoding is a sufficient
  //    condition for unserializability), so an Exact query accepts an
  //    Approx-Strict lane's sat;
  //  - exact-unsat ⇒ approx-unsat (the exact encoding is complete), so
  //    an Approx-Strict query accepts an Exact lane's unsat.
  if (Q.Strat == Strategy::ExactStrict) {
    LaneSpec Scout = Ref;
    Scout.Name = "approx-scout";
    Scout.Strat = Strategy::ApproxStrict;
    Scout.SameStrategy = false;
    Scout.AcceptUnsat = false;
    Add(Scout);
  } else if (Q.Strat == Strategy::ApproxStrict) {
    LaneSpec Refuter = Ref;
    Refuter.Name = "exact-refuter";
    Refuter.Strat = Strategy::ExactStrict;
    Refuter.SameStrategy = false;
    Refuter.AcceptSat = false;
    Add(Refuter);
  }

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

  return Lanes;
}

namespace {

/// Shared state of one race. Sessions[] publishes each live lane's
/// session for cross-thread interrupt; a slot is nulled (under M)
/// before its session is destroyed, so nobody interrupts a dead one.
struct Coordinator {
  std::mutex M;
  std::condition_variable CV;
  bool RaceOver = false;
  int Winner = -1;
  unsigned Running = 0;
  unsigned LaunchedCount = 0;
  std::vector<PredictSession *> Sessions;
};

} // namespace

RaceResult portfolio::race(const History &Observed,
                           const PredictOptions &Base,
                           const std::vector<LaneSpec> &Lanes,
                           const Schedule &Sched,
                           const Validator &Validate) {
  assert(!Lanes.empty() && "race needs at least the reference lane");
  static obs::Counter &Queries =
      obs::Metrics::global().counter("portfolio.queries");
  static obs::Counter &LanesLaunched =
      obs::Metrics::global().counter("portfolio.lanes_launched");
  static obs::Counter &LanesCanceled =
      obs::Metrics::global().counter("portfolio.lanes_canceled");
  static obs::Counter &LanesSkipped =
      obs::Metrics::global().counter("portfolio.lanes_skipped");
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
    LO.Strat = LR.Spec.Strat;
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

    // Decide definitiveness (and validate a Sat model) outside the
    // lock: validation replays the application and can itself solve.
    bool Definitive = false;
    if (!LR.P.Canceled) {
      if (LR.P.Result == SmtResult::Unsat) {
        Definitive = LR.Spec.AcceptUnsat;
      } else if (LR.P.Result == SmtResult::Sat && LR.Spec.AcceptSat) {
        if (Validate) {
          bool Over;
          {
            std::lock_guard<std::mutex> Lock(C.M);
            Over = C.RaceOver;
          }
          if (!Over) {
            obs::Span V("portfolio.lane_validate", obs::CatPortfolio);
            V.arg("lane", LR.Spec.Name.c_str());
            LR.Val = Validate(LR.P);
            V.finish();
            // A same-strategy sat is the contractual outcome whatever
            // the replay says (single-lane mode would report it too);
            // a cross-strategy sat must come with the concrete proof.
            Definitive = LR.Spec.SameStrategy ||
                         LR.Val->St ==
                             ValidationResult::Status::ValidatedUnserializable;
          }
        } else {
          Definitive = LR.Spec.SameStrategy;
        }
      }
    }
    LR.Definitive = Definitive;
    LR.Seconds = T.seconds();
    LaneSeconds.observe(LR.Seconds);
    if (LR.P.Canceled)
      LanesCanceled.inc();

    {
      std::lock_guard<std::mutex> Lock(C.M);
      C.Sessions[I] = nullptr; // Session dies with this thread.
      if (Definitive && !C.RaceOver) {
        C.RaceOver = true;
        C.Winner = static_cast<int>(I);
        for (size_t J = 0; J < C.Sessions.size(); ++J)
          if (J != I && C.Sessions[J])
            C.Sessions[J]->interrupt();
      }
      --C.Running;
      C.CV.notify_all();
    }
    LaneSpan.arg("result", toString(LR.P.Result));
    LaneSpan.finish();
  };

  // Staggered launch: lanes in delay order; a pending launch is skipped
  // when the race ends first (the stagger payoff), or fast-forwarded
  // when every running lane already finished undecided.
  std::vector<std::pair<double, size_t>> Plan;
  Plan.reserve(Lanes.size());
  for (size_t I = 0; I < Lanes.size(); ++I)
    Plan.emplace_back(
        I < Sched.DelaySeconds.size() ? Sched.DelaySeconds[I] : 0.0, I);
  std::stable_sort(Plan.begin(), Plan.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });

  std::vector<std::thread> Threads;
  Threads.reserve(Lanes.size());
  Timer Clock;
  {
    std::unique_lock<std::mutex> Lock(C.M);
    for (const auto &[Delay, I] : Plan) {
      double Remaining = Delay - Clock.seconds();
      if (Remaining > 0)
        C.CV.wait_for(
            Lock, std::chrono::duration<double>(Remaining), [&] {
              return C.RaceOver ||
                     (C.LaunchedCount > 0 && C.Running == 0);
            });
      if (C.RaceOver && I != 0) {
        LanesSkipped.inc();
        continue; // Never launched; Launched stays false.
      }
      Out.Lanes[I].Launched = true;
      ++C.Running;
      ++C.LaunchedCount;
      LanesLaunched.inc();
      Lock.unlock();
      Threads.emplace_back(LaneMain, I);
      Lock.lock();
    }
  }
  for (std::thread &T : Threads)
    T.join();

  Out.Winner = C.Winner;
  Out.WallSeconds = Clock.seconds();
  RaceSpan.arg("winner",
               C.Winner >= 0 ? Lanes[C.Winner].Name.c_str() : "none");
  RaceSpan.finish();
  return Out;
}

Schedule portfolio::scheduleFromStats(
    const std::vector<LaneSpec> &Lanes,
    const std::vector<cache::LaneTally> &Stats) {
  Schedule Sched;
  Sched.DelaySeconds.assign(Lanes.size(), 0.0);
  if (Stats.empty())
    return Sched;

  auto TallyOf = [&](const std::string &Name) -> const cache::LaneTally * {
    for (const cache::LaneTally &T : Stats)
      if (T.Lane == Name)
        return &T;
    return nullptr;
  };
  auto MeanSeconds = [](const cache::LaneTally &T) {
    return T.Runs ? T.Seconds / static_cast<double>(T.Runs) : 0.0;
  };

  // The favorite: most wins, then fastest mean, then lowest index (so
  // the choice is deterministic for tied histories).
  int Best = -1;
  for (size_t I = 0; I < Lanes.size(); ++I) {
    const cache::LaneTally *T = TallyOf(Lanes[I].Name);
    if (!T || T->Wins == 0)
      continue;
    if (Best < 0)
      Best = static_cast<int>(I);
    else {
      const cache::LaneTally *B = TallyOf(Lanes[Best].Name);
      if (T->Wins > B->Wins ||
          (T->Wins == B->Wins && MeanSeconds(*T) < MeanSeconds(*B)))
        Best = static_cast<int>(I);
    }
  }
  if (Best < 0)
    return Sched; // No lane has ever won here: race everything at once.

  double Grace = 1.5 * MeanSeconds(*TallyOf(Lanes[Best].Name));
  Grace = std::max(0.05, std::min(5.0, Grace));
  for (size_t I = 0; I < Lanes.size(); ++I)
    if (static_cast<int>(I) != Best && I != 0)
      Sched.DelaySeconds[I] = Grace;
  return Sched;
}

void portfolio::recordRace(std::vector<cache::LaneTally> &Tallies,
                           const RaceResult &R) {
  auto TallyOf = [&](const std::string &Name) -> cache::LaneTally & {
    for (cache::LaneTally &T : Tallies)
      if (T.Lane == Name)
        return T;
    Tallies.emplace_back();
    Tallies.back().Lane = Name;
    return Tallies.back();
  };
  for (size_t I = 0; I < R.Lanes.size(); ++I) {
    const LaneRun &LR = R.Lanes[I];
    if (!LR.Launched)
      continue; // Skipped lanes taught us nothing.
    cache::LaneTally &T = TallyOf(LR.Spec.Name);
    T.Runs += 1;
    T.Seconds += LR.Seconds;
    if (R.Winner == static_cast<int>(I))
      T.Wins += 1;
    else
      T.Losses += 1;
    if (LR.P.TimedOut)
      T.Timeouts += 1;
  }
}
