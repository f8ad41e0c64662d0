//===- Validate.cpp - Validation of predicted executions ------*- C++ -*-===//

#include "validate/Validate.h"

#include "obs/Metrics.h"
#include "obs/Tracer.h"
#include "support/StrUtil.h"

#include <map>

using namespace isopredict;

const char *isopredict::toString(ValidationResult::Status St) {
  switch (St) {
  case ValidationResult::Status::ValidatedUnserializable:
    return "validated-unserializable";
  case ValidationResult::Status::Serializable:
    return "serializable";
  case ValidationResult::Status::Unknown:
    return "unknown";
  case ValidationResult::Status::NoPrediction:
    return "no-prediction";
  }
  return "?";
}

std::optional<ValidationResult::Status>
isopredict::validationStatusFromString(std::string_view Name) {
  std::string N = toLowerAscii(Name);
  if (N == "validated-unserializable")
    return ValidationResult::Status::ValidatedUnserializable;
  if (N == "serializable")
    return ValidationResult::Status::Serializable;
  if (N == "unknown")
    return ValidationResult::Status::Unknown;
  if (N == "no-prediction")
    return ValidationResult::Status::NoPrediction;
  return std::nullopt;
}

namespace {

/// Steers replay reads toward the predicted wr relation (§5): at each
/// read it locates the corresponding observed/predicted read by
/// transaction (session, slot) and read ordinal, verifies the structure
/// matches (condition 1), and maps the predicted writer into the replay
/// store's transaction ids. Conditions 2 and 3 (the writer wrote the key
/// here and reading it is legal) are enforced by the store itself.
class PredictedReadDirector : public ReadDirector {
public:
  PredictedReadDirector(const History &Observed, const History &Predicted,
                        const DataStore &Store)
      : Observed(Observed), Predicted(Predicted), Store(Store) {
    for (TxnId T = 1; T < Observed.numTxns(); ++T) {
      const Transaction &Txn = Observed.txn(T);
      SlotToObserved[{Txn.Session, Txn.Slot}] = T;
    }
  }

  Directive preferredWriter(SessionId Session, uint32_t Slot,
                            uint32_t ReadIndex,
                            const std::string &Key) override {
    auto It = SlotToObserved.find({Session, Slot});
    if (It == SlotToObserved.end()) {
      // This transaction aborted in the observed execution but runs now;
      // there is nothing to match against (the replay rewound past it).
      return {std::nullopt, true};
    }
    TxnId T = It->second;

    // Structural check against the *observed* transaction: same read
    // ordinal, same key. Anything else is control-flow divergence.
    const Event *ObservedRead = nthRead(Observed.txn(T), ReadIndex);
    if (!ObservedRead || Observed.keys().name(ObservedRead->Key) != Key)
      return {std::nullopt, false};

    // Reads beyond the prediction boundary have no predicted writer; the
    // engine picks any legal one (not divergence, §5).
    const Event *PredictedRead = nthRead(Predicted.txn(T), ReadIndex);
    if (!PredictedRead)
      return {std::nullopt, true};

    TxnId W = PredictedRead->Writer;
    if (W == InitTxn)
      return {InitTxn, true};
    const Transaction &WTxn = Observed.txn(W);
    std::optional<TxnId> ReplayId = Store.txnForSlot(WTxn.Session, WTxn.Slot);
    if (!ReplayId) {
      // The predicted writer has not committed in the validating
      // execution (condition 2 fails) — divergence.
      return {std::nullopt, false};
    }
    return {*ReplayId, true};
  }

private:
  static const Event *nthRead(const Transaction &T, uint32_t Index) {
    uint32_t Seen = 0;
    for (const Event &E : T.Events)
      if (E.Kind == EventKind::Read && Seen++ == Index)
        return &E;
    return nullptr;
  }

  const History &Observed;
  const History &Predicted;
  const DataStore &Store;
  std::map<std::pair<SessionId, uint32_t>, TxnId> SlotToObserved;
};

} // namespace

ValidationResult isopredict::validatePrediction(
    Application &App, const WorkloadConfig &Cfg, const History &Observed,
    const Prediction &Pred, IsolationLevel Level, unsigned TimeoutMs) {
  ValidationResult Out;
  if (Pred.Result != SmtResult::Sat)
    return Out;
  static obs::Counter &Replays =
      obs::Metrics::global().counter("validate.replays");
  static obs::Histogram &ReplaySeconds =
      obs::Metrics::global().histogram("validate.seconds");
  Replays.inc();
  obs::Span Sp("validate.replay", obs::CatValidate);
  struct ObserveReplay {
    obs::Span &Sp;
    obs::Histogram &H;
    ~ObserveReplay() {
      Sp.finish();
      H.observe(Sp.seconds());
    }
  } ObserveOnExit{Sp, ReplaySeconds};

  // Boundary transactions: the transaction containing each session's
  // boundary read, or the session's last transaction when it never
  // diverges.
  std::vector<TxnId> BoundaryTxns;
  for (SessionId S = 0; S < Observed.numSessions(); ++S) {
    const std::vector<TxnId> &Txns = Observed.sessionTxns(S);
    if (Txns.empty())
      continue;
    uint32_t B = S < Pred.BoundaryPos.size() ? Pred.BoundaryPos[S] : InfPos;
    if (B == InfPos) {
      BoundaryTxns.push_back(Txns.back());
      continue;
    }
    const Transaction *T = Observed.txnAtPos(S, B);
    assert(T && "boundary position outside every transaction");
    BoundaryTxns.push_back(T->Id);
  }

  // Replay each transaction on the boundary or happening-before one, in
  // a topological order of the predicted hb (§5).
  BitRel Hb = hbRel(Pred.Predicted);
  std::vector<bool> Included(Observed.numTxns(), false);
  for (TxnId B : BoundaryTxns) {
    Included[B] = true;
    for (TxnId T = 1; T < Observed.numTxns(); ++T)
      if (T != B && Hb.test(T, B))
        Included[T] = true;
  }

  auto Order = Hb.topoOrder();
  assert(Order && "predicted hb must be acyclic for a valid prediction");
  std::vector<std::pair<SessionId, uint32_t>> Slots;
  for (TxnId T : *Order) {
    if (T == InitTxn || !Included[T])
      continue;
    const Transaction &Txn = Observed.txn(T);
    Slots.push_back({Txn.Session, Txn.Slot});
  }

  DataStore::Options StoreOpts;
  StoreOpts.Mode = StoreMode::ControlledReplay;
  StoreOpts.Level = Level;
  StoreOpts.Seed = Cfg.Seed;
  DataStore Store(StoreOpts);
  PredictedReadDirector Director(Observed, Pred.Predicted, Store);
  Store.setDirector(&Director);

  Out.Run = WorkloadRunner::replay(App, Store, Cfg, Slots);
  Out.Validating = Out.Run.Hist;
  Out.Diverged = Out.Run.Divergences > 0;
  // A transaction that committed in the predicted execution but aborted
  // in the validating execution is also divergence (§4.5's second
  // category). Every scheduled slot committed in the observed execution.
  for (auto [Session, Slot] : Slots)
    if (!Store.txnForSlot(Session, Slot))
      Out.Diverged = true;

  switch (checkSerializableSmt(Out.Validating, TimeoutMs)) {
  case SerResult::Unserializable:
    Out.St = ValidationResult::Status::ValidatedUnserializable;
    break;
  case SerResult::Serializable:
    Out.St = ValidationResult::Status::Serializable;
    break;
  case SerResult::Unknown:
    Out.St = ValidationResult::Status::Unknown;
    break;
  }
  return Out;
}
