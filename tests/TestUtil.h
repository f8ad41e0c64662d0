//===- TestUtil.h - Shared test fixtures ----------------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canned execution histories used across the test binaries: the paper's
/// running examples (Figures 1-3, 5/8, 9); and fresh scratch directories.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_TESTS_TESTUTIL_H
#define ISOPREDICT_TESTS_TESTUTIL_H

#include "history/History.h"
#include "support/Fs.h"
#include "support/StrUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <unistd.h>

namespace isopredict {
namespace testutil {

/// Figure 2a: the serializable deposit execution. Two sessions deposit
/// into the same account; t2 reads t1's write.
///   t1: read(acct)<-t0, write(acct);  t2: read(acct)<-t1, write(acct)
inline History depositObserved() {
  HistoryBuilder B(2);
  B.beginTxn(0);
  B.read("acct", InitTxn, 0);
  B.write("acct", 50);
  B.commit();
  B.beginTxn(1);
  B.read("acct", 1, 50);
  B.write("acct", 110);
  B.commit();
  return B.finish();
}

/// Figure 3a: the causal-but-unserializable deposit execution — both
/// transactions read the initial balance.
inline History depositUnserializable() {
  HistoryBuilder B(2);
  B.beginTxn(0);
  B.read("acct", InitTxn, 0);
  B.write("acct", 50);
  B.commit();
  B.beginTxn(1);
  B.read("acct", InitTxn, 0);
  B.write("acct", 60);
  B.commit();
  return B.finish();
}

/// Figure 8a (Smallbank shape): two sessions, each writing one key and
/// then reading the other session's key. Serializable as observed; under
/// causal an unserializable prediction exists with both reads flipped to
/// t0 — and it needs no events beyond the divergent reads, so even the
/// strict boundary finds it.
///   s0: t1 write(x); t3 read(y)<-t2
///   s1: t2 write(y); t4 read(x)<-t1
inline History crossReadObserved() {
  HistoryBuilder B(2);
  TxnId T1, T2;
  T1 = B.beginTxn(0);
  B.write("x", 1);
  B.commit();
  T2 = B.beginTxn(1);
  B.write("y", 1);
  B.commit();
  B.beginTxn(0);
  B.read("y", T2, 1);
  B.commit();
  B.beginTxn(1);
  B.read("x", T1, 1);
  B.commit();
  return B.finish();
}

/// Figure 9b: deposit(60) in one session; withdraw(50) then deposit(5)
/// in another, reading each other's writes in sequence. Serializable.
///   s0: t1 read(acct)<-t0, write(acct)
///   s1: t2 read(acct)<-t1, write(acct);  t3 read(acct)<-t2, write(acct)
inline History bankDivergenceObserved() {
  HistoryBuilder B(2);
  TxnId T1, T2;
  T1 = B.beginTxn(0);
  B.read("acct", InitTxn, 0);
  B.write("acct", 60);
  B.commit();
  T2 = B.beginTxn(1);
  B.read("acct", T1, 60);
  B.write("acct", 10);
  B.commit();
  B.beginTxn(1);
  B.read("acct", T2, 10);
  B.write("acct", 15);
  B.commit();
  return B.finish();
}

/// Figure 6 shape: two writers of k and an independent reader. Every
/// feasible execution is serializable; a sound encoder must not invent a
/// self-justifying ww/pco cycle (the rank mechanism's job).
inline History selfJustifyTrap() {
  HistoryBuilder B(3);
  B.beginTxn(0);
  B.write("k", 1);
  B.commit();
  B.beginTxn(1);
  B.write("k", 2);
  B.commit();
  B.beginTxn(2);
  B.read("k", 2, 2);
  B.commit();
  return B.finish();
}

/// A fresh, empty directory under gtest's temp root, unique to this
/// process, \p Tag and call. What a recycled pid's earlier run left at
/// the path is deleted first, so no test reads a stale file.
inline std::string scratchDir(const char *Tag) {
  static std::atomic<unsigned> Counter{0};
  std::string Dir = pathJoin(
      testing::TempDir(),
      formatString("isopredict-%s-%ld-%u", Tag, static_cast<long>(::getpid()),
                   Counter.fetch_add(1)));
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// A scratchDir() removed again when the test ends.
struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const char *Tag) : Path(scratchDir(Tag)) {}
  ~ScratchDir() { std::filesystem::remove_all(Path); }
  std::string operator/(const std::string &Name) const {
    return pathJoin(Path, Name);
  }
};

} // namespace testutil
} // namespace isopredict

#endif // ISOPREDICT_TESTS_TESTUTIL_H
