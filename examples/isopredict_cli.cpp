//===- isopredict_cli.cpp - Trace-file command line front end -*- C++ -*-===//
//
// The paper argues IsoPredict "is in principle suitable for analyzing
// executions from any data store" because it works from recorded
// traces. This CLI is that interface: feed it a trace file (the text
// format of src/history/TraceIO.h) recorded anywhere, and it checks
// isolation levels or predicts unserializable executions — no bundled
// store or application required.
//
// Usage:
//   isopredict_cli check   <trace>            # which levels does it satisfy?
//   isopredict_cli predict <trace> [causal|ra|rc] [exact|strict|relaxed]
//   isopredict_cli dot     <trace>            # Graphviz to stdout
//
//===----------------------------------------------------------------------===//

#include "checker/Checkers.h"
#include "history/Dot.h"
#include "history/TraceIO.h"
#include "predict/Predict.h"
#include "support/Env.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace isopredict;

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr (exit 2).
static int usage(std::FILE *Out = stderr) {
  std::fprintf(Out,
               "usage: isopredict_cli check   <trace>\n"
               "       isopredict_cli predict <trace> [causal|ra|rc] "
               "[exact|strict|relaxed]\n"
               "       isopredict_cli dot     <trace>\n");
  return Out == stdout ? 0 : 2;
}

static std::optional<History> load(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Path);
    return std::nullopt;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  auto H = readTrace(Buf.str(), &Error);
  if (!H)
    std::fprintf(stderr, "error: %s: %s\n", Path, Error.c_str());
  return H;
}

static int runCheck(const History &H) {
  unsigned Timeout =
      static_cast<unsigned>(envInt("ISOPREDICT_TIMEOUT_MS", 30000));
  std::printf("transactions: %zu  sessions: %zu  keys: %zu\n",
              H.numTxns() - 1, H.numSessions(), H.numKeys());
  std::printf("read committed: %s\n", isReadCommitted(H) ? "yes" : "NO");
  std::printf("read atomic:    %s\n", isReadAtomic(H) ? "yes" : "NO");
  std::printf("causal:         %s\n", isCausal(H) ? "yes" : "NO");
  switch (checkSerializableSmt(H, Timeout)) {
  case SerResult::Serializable:
    std::printf("serializable:   yes\n");
    break;
  case SerResult::Unserializable: {
    std::printf("serializable:   NO\n");
    if (auto Cycle = pcoCycle(H)) {
      std::printf("pco cycle:      ");
      for (TxnId T : *Cycle)
        std::printf("t%u ", T);
      std::printf("\n");
    }
    break;
  }
  case SerResult::Unknown:
    std::printf("serializable:   unknown (solver timeout)\n");
    break;
  }
  return 0;
}

static int runPredict(const History &H, IsolationLevel Level, Strategy S) {
  PredictOptions Opts;
  Opts.Level = Level;
  Opts.Strat = S;
  Opts.TimeoutMs =
      static_cast<unsigned>(envInt("ISOPREDICT_TIMEOUT_MS", 60000));
  Prediction P = predict(H, Opts);
  std::fprintf(stderr,
               "# %s under %s: %s (%llu literals, gen %.2fs, solve %.2fs)\n",
               toString(S), toString(Level), toString(P.Result),
               static_cast<unsigned long long>(P.Stats.NumLiterals),
               P.Stats.GenSeconds, P.Stats.SolveSeconds);
  if (P.Result != SmtResult::Sat)
    return P.Result == SmtResult::Unsat ? 1 : 3;

  std::fprintf(stderr, "# pco cycle:");
  for (TxnId T : P.Witness)
    std::fprintf(stderr, " t%u", T);
  std::fprintf(stderr, "\n");
  // The predicted history itself goes to stdout as a trace, so it can
  // be piped back into `check` or `dot`.
  std::printf("%s", writeTrace(P.Predicted).c_str());
  return 0;
}

int main(int argc, char **argv) {
  if (argc == 2 &&
      (std::strcmp(argv[1], "--help") == 0 || std::strcmp(argv[1], "-h") == 0))
    return usage(stdout);
  if (argc < 3)
    return usage();
  auto H = load(argv[2]);
  if (!H)
    return 2;

  if (std::strcmp(argv[1], "check") == 0)
    return runCheck(*H);
  if (std::strcmp(argv[1], "dot") == 0) {
    std::printf("%s", writeDot(*H).c_str());
    return 0;
  }
  if (std::strcmp(argv[1], "predict") == 0) {
    IsolationLevel Level = IsolationLevel::Causal;
    if (argc > 3) {
      if (std::strcmp(argv[3], "rc") == 0)
        Level = IsolationLevel::ReadCommitted;
      else if (std::strcmp(argv[3], "ra") == 0)
        Level = IsolationLevel::ReadAtomic;
      else if (std::strcmp(argv[3], "causal") != 0)
        return usage();
    }
    Strategy S = Strategy::ApproxRelaxed;
    if (argc > 4) {
      if (std::strcmp(argv[4], "exact") == 0)
        S = Strategy::ExactStrict;
      else if (std::strcmp(argv[4], "strict") == 0)
        S = Strategy::ApproxStrict;
      else if (std::strcmp(argv[4], "relaxed") != 0)
        return usage();
    }
    return runPredict(*H, Level, S);
  }
  return usage();
}
