//===- checker_test.cpp - Isolation checker tests -------------*- C++ -*-===//

#include "apps/AppFramework.h"
#include "checker/Checkers.h"
#include "history/History.h"
#include "support/Rng.h"
#include "support/StrUtil.h"

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace isopredict;
using namespace isopredict::testutil;

TEST(Checkers, DepositObservedIsSerializable) {
  History H = depositObserved();
  EXPECT_TRUE(isCausal(H));
  EXPECT_TRUE(isReadCommitted(H));
  EXPECT_EQ(checkSerializableSmt(H), SerResult::Serializable);
  EXPECT_EQ(bruteForceSerializable(H), std::optional<bool>(true));
  EXPECT_FALSE(pcoCycle(H).has_value());
}

TEST(Checkers, DepositDoubleInitialIsUnserializableButCausal) {
  // The paper's Figure 3a: causal and rc, but unserializable.
  History H = depositUnserializable();
  EXPECT_TRUE(isCausal(H));
  EXPECT_TRUE(isReadCommitted(H));
  EXPECT_EQ(checkSerializableSmt(H), SerResult::Unserializable);
  EXPECT_EQ(bruteForceSerializable(H), std::optional<bool>(false));
  // Figure 5: the pco cycle requires the rw edges; the saturator must
  // find it.
  auto Cycle = pcoCycle(H);
  ASSERT_TRUE(Cycle.has_value());
  EXPECT_GE(Cycle->size(), 2u);
}

TEST(Checkers, CrossReadPredictionTargetIsUnserializable) {
  // Figure 8b: both reads flipped to t0.
  HistoryBuilder B(2);
  B.beginTxn(0);
  B.write("x", 1);
  B.commit();
  B.beginTxn(1);
  B.write("y", 1);
  B.commit();
  B.beginTxn(0);
  B.read("y", InitTxn, 0);
  B.commit();
  B.beginTxn(1);
  B.read("x", InitTxn, 0);
  B.commit();
  History H = B.finish();
  EXPECT_TRUE(isCausal(H));
  EXPECT_EQ(checkSerializableSmt(H), SerResult::Unserializable);
  EXPECT_TRUE(pcoCycle(H).has_value());
}

TEST(Checkers, NonCausalFracturedRead) {
  // A transaction that observes the initial state of one key and then
  // t1's write to another is rc but not causal (Fig. 7d shape). Note the
  // order matters: Eq. 4 makes the opposite order (new then old) violate
  // rc as well, because wwrc(t1, t0) would contradict so(t0, t1).
  HistoryBuilder B(2);
  TxnId T1 = B.beginTxn(0);
  B.write("x", 1);
  B.write("y", 1);
  B.commit();
  B.beginTxn(1);
  B.read("y", InitTxn, 0);
  B.read("x", T1, 1);
  B.commit();
  History H = B.finish();
  EXPECT_FALSE(isCausal(H));
  EXPECT_TRUE(isReadCommitted(H));

  // The new-then-old order violates rc too.
  HistoryBuilder B2(2);
  TxnId T1b = B2.beginTxn(0);
  B2.write("x", 1);
  B2.write("y", 1);
  B2.commit();
  B2.beginTxn(1);
  B2.read("x", T1b, 1);
  B2.read("y", InitTxn, 0);
  B2.commit();
  History H2 = B2.finish();
  EXPECT_FALSE(isCausal(H2));
  EXPECT_FALSE(isReadCommitted(H2));
}

TEST(Checkers, RcViolationReadNewThenOld) {
  // Reading t1's write and *then* the initial state of the same key in
  // one transaction violates rc (wwrc(t1, t0) contradicts so(t0, t1)).
  HistoryBuilder B(2);
  TxnId T1 = B.beginTxn(0);
  B.write("x", 1);
  B.commit();
  B.beginTxn(1);
  B.read("x", T1, 1);
  B.read("x", InitTxn, 0);
  B.commit();
  History H = B.finish();
  EXPECT_FALSE(isReadCommitted(H));
  EXPECT_FALSE(isCausal(H));

  // The opposite order (old then new) is rc but still not causal and not
  // serializable.
  HistoryBuilder B2(2);
  TxnId T1b = B2.beginTxn(0);
  B2.write("x", 1);
  B2.commit();
  B2.beginTxn(1);
  B2.read("x", InitTxn, 0);
  B2.read("x", T1b, 1);
  B2.commit();
  History H2 = B2.finish();
  EXPECT_TRUE(isReadCommitted(H2));
  EXPECT_FALSE(isCausal(H2));
  EXPECT_EQ(checkSerializableSmt(H2), SerResult::Unserializable);
}

TEST(Checkers, MonotonicSessionReadsUnderCausal) {
  // A session that saw t1's write cannot later read the initial state of
  // the same key under causal (the Voter footnote-5 argument).
  HistoryBuilder B(2);
  TxnId T1 = B.beginTxn(0);
  B.write("x", 1);
  B.commit();
  B.beginTxn(1);
  B.read("x", T1, 1);
  B.commit();
  B.beginTxn(1);
  B.read("x", InitTxn, 0);
  B.commit();
  History H = B.finish();
  EXPECT_FALSE(isCausal(H));
  EXPECT_TRUE(isReadCommitted(H));
  EXPECT_EQ(checkSerializableSmt(H), SerResult::Unserializable);
}

TEST(Checkers, EmptyHistoryIsEverything) {
  HistoryBuilder B(1);
  History H = B.finish();
  EXPECT_TRUE(isCausal(H));
  EXPECT_TRUE(isReadCommitted(H));
  EXPECT_EQ(checkSerializableSmt(H), SerResult::Serializable);
}

TEST(Checkers, SerializableImpliesCausalImpliesRc) {
  // Strength ordering spot-check on the canned histories.
  for (const History &H :
       {depositObserved(), depositUnserializable(), crossReadObserved(),
        bankDivergenceObserved(), selfJustifyTrap()}) {
    if (checkSerializableSmt(H) == SerResult::Serializable) {
      EXPECT_TRUE(isCausal(H));
    }
    if (isCausal(H)) {
      EXPECT_TRUE(isReadCommitted(H));
    }
  }
}

//===----------------------------------------------------------------------===
// Property tests: random histories, cross-checked oracles
//===----------------------------------------------------------------------===

namespace {

/// Generates a random small history: K keys, S sessions, up to T txns,
/// each read picking an arbitrary earlier-committed (or initial) writer.
/// The result is a structurally well-formed history but need not satisfy
/// any isolation level — ideal for cross-checking the checkers.
History randomHistory(uint64_t Seed, unsigned Sessions, unsigned Txns,
                      unsigned NumKeys) {
  Rng R(Seed);
  HistoryBuilder B(Sessions);
  std::vector<std::vector<TxnId>> Writers(NumKeys, {InitTxn});
  std::vector<std::string> Keys;
  for (unsigned K = 0; K < NumKeys; ++K)
    Keys.push_back("k" + std::to_string(K));

  for (unsigned T = 0; T < Txns; ++T) {
    SessionId S = static_cast<SessionId>(R.below(Sessions));
    TxnId Id = B.beginTxn(S);
    unsigned Ops = static_cast<unsigned>(R.range(1, 3));
    std::vector<unsigned> Written;
    for (unsigned O = 0; O < Ops; ++O) {
      unsigned K = static_cast<unsigned>(R.below(NumKeys));
      if (R.chance(1, 2)) {
        // Read from a random committed writer of K (excluding self).
        std::vector<TxnId> Cands;
        for (TxnId W : Writers[K])
          if (W != Id)
            Cands.push_back(W);
        B.read(Keys[K], Cands[R.below(Cands.size())]);
      } else {
        B.write(Keys[K], static_cast<Value>(R.below(100)));
        Written.push_back(K);
      }
    }
    B.commit();
    for (unsigned K : Written)
      if (Writers[K].back() != Id)
        Writers[K].push_back(Id);
  }
  return B.finish();
}

class RandomHistoryTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(RandomHistoryTest, SmtAgreesWithBruteForce) {
  History H = randomHistory(GetParam(), 2, 6, 3);
  auto Brute = bruteForceSerializable(H);
  ASSERT_TRUE(Brute.has_value());
  SerResult Smt = checkSerializableSmt(H);
  ASSERT_NE(Smt, SerResult::Unknown);
  EXPECT_EQ(*Brute, Smt == SerResult::Serializable)
      << "disagreement on seed " << GetParam();
}

TEST_P(RandomHistoryTest, PcoCycleIsSoundUnserializabilityWitness) {
  History H = randomHistory(GetParam() * 7919 + 13, 3, 7, 3);
  if (pcoCycle(H).has_value()) {
    EXPECT_EQ(checkSerializableSmt(H), SerResult::Unserializable)
        << "pco cycle on a serializable history, seed " << GetParam();
  }
}

TEST_P(RandomHistoryTest, CausalHistoriesHaveAcyclicHbPlusWw) {
  History H = randomHistory(GetParam() * 104729 + 7, 3, 8, 4);
  // Internal consistency: if serializable then causal then rc.
  if (checkSerializableSmt(H) == SerResult::Serializable) {
    EXPECT_TRUE(isCausal(H));
    EXPECT_TRUE(isReadCommitted(H));
  }
  if (isCausal(H)) {
    EXPECT_TRUE(isReadCommitted(H));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHistoryTest,
                         ::testing::Range<uint64_t>(1, 41));

// The identity the rc and ra encodings rely on when they embed so ∪ wr
// in their total order instead of hb = (so ∪ wr)⁺: a relation embeds in
// a strict total order iff it is acyclic, and adding the transitive
// closure of a subrelation never closes a new cycle. Both verdicts must
// occur over the seeds, or the comparison would prove nothing.
TEST(Checkers, EmbeddingSoWrMatchesEmbeddingHb) {
  unsigned Cyclic = 0, Acyclic = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    History H = randomHistory(Seed * 15485863 + 3, 3, 8, 3);
    BitRel SoWr = soRel(H);
    SoWr.unionWith(wrRel(H));
    for (const BitRel &R : {wwRcRel(H), wwRaRel(H)}) {
      BitRel WithHb = hbRel(H);
      WithHb.unionWith(R);
      BitRel WithSoWr = SoWr;
      WithSoWr.unionWith(R);
      bool HbCyclic = WithHb.isCyclic();
      EXPECT_EQ(HbCyclic, WithSoWr.isCyclic()) << "seed " << Seed;
      ++(HbCyclic ? Cyclic : Acyclic);
    }
  }
  EXPECT_GT(Cyclic, 0u);
  EXPECT_GT(Acyclic, 0u);
}

// The premise of Exact-Strict's observed-order instance
// (ExactStrictPass::observedOrderInstance): a SerialObserved store
// assigns TxnIds at commit, so the observed execution is serial in TxnId
// order and none of its edges points backwards in it. Arbitration(A,B)
// at co(t) = t holds when some t3 reads k from B and A ≠ t3 writes k with
// A < t3; for A > B that is a write to k between B's and t3's read.
// Forward arbitration edges must occur, or the check would prove
// nothing.
TEST(Checkers, ObservedEdgesFollowTxnIdOrder) {
  uint64_t ForwardArbitrations = 0;
  for (const std::string &App : applicationNames())
    for (uint64_t Seed = 1; Seed <= 5; ++Seed)
      for (const WorkloadConfig &Cfg :
           {WorkloadConfig::small(Seed), WorkloadConfig::large(Seed)}) {
        SCOPED_TRACE(formatString("%s seed=%llu txns/session=%u",
                                  App.c_str(),
                                  static_cast<unsigned long long>(Seed),
                                  Cfg.TxnsPerSession));
        auto Application = makeApplication(App);
        DataStore::Options O;
        O.Mode = StoreMode::SerialObserved;
        O.Level = IsolationLevel::Serializable;
        O.Seed = Seed;
        DataStore Store(O);
        History H = WorkloadRunner::run(*Application, Store, Cfg).Hist;
        ASSERT_GT(H.numTxns(), 2u);

        uint64_t BackwardSo = 0, BackwardWr = 0, BackwardArb = 0;
        for (TxnId A = 1; A < H.numTxns(); ++A)
          for (TxnId B = 0; B < A; ++B) {
            BackwardSo += H.so(A, B);
            BackwardWr += H.wr(A, B);
          }
        for (KeyId K : H.keysRead())
          for (const ReadRef &R : H.readsOf(K))
            for (TxnId A : H.writersOf(K)) {
              if (A == R.Writer || A == R.Reader || A > R.Reader)
                continue;
              ++(A > R.Writer ? BackwardArb : ForwardArbitrations);
            }
        EXPECT_EQ(BackwardSo, 0u);
        EXPECT_EQ(BackwardWr, 0u);
        EXPECT_EQ(BackwardArb, 0u);
      }
  EXPECT_GT(ForwardArbitrations, 0u);
}

// checkSerializableSmt runs on Z3's plain SMT kernel; on histories of
// the shape validation and RandomWeak jobs give it (application runs
// on a random weak store), its verdict must match the exhaustive
// permutation check. Both verdicts must occur, or the comparison would
// prove nothing.
TEST(Checkers, KernelSerializabilityAgreesWithBruteForceOnStoreRuns) {
  unsigned Serializable = 0, Unserializable = 0;
  for (const std::string &App : applicationNames())
    for (IsolationLevel L :
         {IsolationLevel::Causal, IsolationLevel::ReadCommitted})
      for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
        SCOPED_TRACE(formatString("%s %s seed=%llu", App.c_str(),
                                  toString(L),
                                  static_cast<unsigned long long>(Seed)));
        auto Application = makeApplication(App);
        DataStore::Options O;
        O.Mode = StoreMode::RandomWeak;
        O.Level = L;
        O.Seed = Seed;
        DataStore Store(O);
        History H =
            WorkloadRunner::run(*Application, Store, WorkloadConfig{3, 3, Seed})
                .Hist;
        std::optional<bool> Brute = bruteForceSerializable(H);
        ASSERT_TRUE(Brute.has_value());
        SerResult Smt = checkSerializableSmt(H);
        ASSERT_NE(Smt, SerResult::Unknown);
        EXPECT_EQ(*Brute, Smt == SerResult::Serializable);
        ++(*Brute ? Serializable : Unserializable);
      }
  EXPECT_GT(Serializable, 0u);
  EXPECT_GT(Unserializable, 0u);
}
