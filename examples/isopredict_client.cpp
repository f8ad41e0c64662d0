//===- isopredict_client.cpp - NDJSON client for isopredict_server --------===//
//
// A command-line client for the prediction service. Actions execute in
// argv order over one connection; every response line is echoed to
// stdout (machine-greppable), diagnostics go to stderr.
//
// Usage:
//   isopredict_client [--host ADDR] [--port N | --port-file FILE]
//                     [--name NAME] actions...
//
// Actions (in order given):
//   --ping                      liveness probe
//   --auth TENANT[:KEY]         bind the connection to a tenant
//   --upload NAME:FILE          register the trace in FILE as NAME
//   --extend NAME:FILE          append the headerless trace delta in FILE
//                               to the registered history NAME (warm
//                               server sessions grow in place)
//   --observe K=V[,K=V...]      run an observed execution server-side
//                               (app= required; workload=, seed=, name=
//                               registers the history, out=FILE saves
//                               the returned trace locally)
//   --query K=V[,K=V...]        one prediction job; the spec is built
//                               locally (app= required; kind=, workload=,
//                               sessions=, txns_per_session=, seed=,
//                               store_seed=, level=, strategy=, pco=,
//                               timeout_ms=, validate=, prune=,
//                               check_serializability=) and sent in the
//                               exact JobIo wire form, so outcomes are
//                               comparable with campaign_cli reports
//   --query-history NAME[,K=V...]  query a registered history (level=,
//                               strategy=, pco=, timeout_ms=, prune=)
//                               prune= defaults to 1 (the relevance
//                               plan); prune=0 selects the identity plan
//   --burst N                   pipeline N copies of the NEXT query
//                               action without waiting (quota probing;
//                               burst responses never affect exit code)
//   --status                    print a status/metrics snapshot
//   --status-out FILE           write the raw status response to FILE
//                               (report_profile reads it)
//   --metrics-out FILE          fetch the `metrics` verb and write the
//                               Prometheus text exposition to FILE
//   --shutdown                  ask the server to drain (admin tenants)
//   --collect FILE              after all actions, write collected query
//                               results as a campaign report (report_diff
//                               compares it against a batch run)
//
// Exit status: 0 when every non-burst action got an ok response, 1 on
// protocol/network errors or error responses, 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "engine/JobIo.h"
#include "server/Protocol.h"
#include "support/Fs.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace isopredict;
using namespace isopredict::engine;

namespace {

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr after \p Msg (exit 2).
int usage(const char *Msg = nullptr, std::FILE *Out = stderr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n", Msg);
  std::fprintf(
      Out,
      "usage: isopredict_client [--host ADDR] [--port N | --port-file FILE]\n"
      "                         [--name NAME] actions...\n"
      "actions: --ping | --auth T[:KEY] | --upload NAME:FILE\n"
      "         --extend NAME:FILE | --observe k=v,... | --query k=v,... \n"
      "         --query-history NAME[,k=v...] | --burst N | --status\n"
      "         --status-out FILE | --metrics-out FILE | --shutdown\n"
      "         --collect FILE\n"
      "query keys: prune=1 (default) encodes with the relevance plan,\n"
      "            prune=0 with the identity plan\n");
  return Out == stdout ? 0 : 2;
}

/// Buffered newline-framed reads off the connection.
struct LineReader {
  int Fd = -1;
  std::string Buf;

  bool readLine(std::string &Out) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Out = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      char Chunk[64 * 1024];
      ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }
};

bool sendAll(int Fd, const std::string &Line) {
  size_t Off = 0;
  while (Off < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Off, Line.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Splits "k=v,k=v,..." into pairs. A segment without '=' maps to
/// ("", segment) — used for the leading history name.
std::vector<std::pair<std::string, std::string>>
parseKvList(const std::string &Arg) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (std::string_view Part : splitString(Arg, ',')) {
    if (Part.empty())
      continue;
    size_t Eq = Part.find('=');
    if (Eq == std::string_view::npos)
      Out.emplace_back("", std::string(Part));
    else
      Out.emplace_back(std::string(Part.substr(0, Eq)),
                       std::string(Part.substr(Eq + 1)));
  }
  return Out;
}

bool isNumericKey(const std::string &K) {
  return K == "sessions" || K == "txns_per_session" || K == "seed" ||
         K == "store_seed" || K == "timeout_ms";
}

bool isBoolKey(const std::string &K) {
  return K == "validate" || K == "check_serializability" || K == "prune";
}

/// Emits k=v pairs into the open object with protocol-correct types.
bool writeKvFields(JsonWriter &J,
                   const std::vector<std::pair<std::string, std::string>> &Kv,
                   std::string *Error) {
  for (const auto &[K, V] : Kv) {
    if (isNumericKey(K)) {
      std::optional<int64_t> N = parseInt(V);
      if (!N || *N < 0) {
        *Error = K + " needs a non-negative integer, got '" + V + "'";
        return false;
      }
      J.num(K.c_str(), static_cast<uint64_t>(*N));
    } else if (isBoolKey(K)) {
      J.boolean(K.c_str(), V == "true" || V == "1");
    } else {
      J.str(K.c_str(), V);
    }
  }
  return true;
}

struct Client {
  int Fd = -1;
  LineReader Reader;
  uint64_t NextId = 1;
  bool Failed = false;
  std::vector<JobResult> Collected;
  bool Collecting = false;

  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connect(const std::string &Host, unsigned Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Port));
    if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
      return false;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      std::fprintf(stderr, "error: connect %s:%u: %s\n", Host.c_str(), Port,
                   std::strerror(errno));
      return false;
    }
    Reader.Fd = Fd;
    return true;
  }

  /// Processes one response line: echo to stdout, track failure (unless
  /// \p Burst), collect the embedded job for the campaign report.
  bool handleResponse(const std::string &Line, bool Burst) {
    std::printf("%s\n", Line.c_str());
    std::string Error;
    std::optional<JsonValue> V = parseJson(Line, &Error);
    if (!V || V->K != JsonValue::Kind::Object) {
      std::fprintf(stderr, "error: malformed response: %s\n", Error.c_str());
      Failed = true;
      return false;
    }
    const JsonValue *Ok = V->field("ok");
    bool IsOk = Ok && Ok->K == JsonValue::Kind::Bool && Ok->B;
    if (!IsOk && !Burst)
      Failed = true;
    if (IsOk && Collecting) {
      if (const JsonValue *Job = V->field("job")) {
        std::optional<JobResult> R = jobResultFromJson(*Job, &Error);
        if (!R) {
          std::fprintf(stderr, "error: bad job entry: %s\n", Error.c_str());
          Failed = true;
        } else {
          Collected.push_back(std::move(*R));
        }
      }
    }
    return true;
  }

  /// Sends one request line and waits for its response.
  bool roundTrip(const std::string &Line, bool Burst = false) {
    if (!sendAll(Fd, Line)) {
      std::fprintf(stderr, "error: connection lost while sending\n");
      Failed = true;
      return false;
    }
    std::string Resp;
    if (!Reader.readLine(Resp)) {
      std::fprintf(stderr, "error: connection closed before a response\n");
      Failed = true;
      return false;
    }
    return handleResponse(Resp, Burst);
  }

  /// A request with only the envelope (ping/status/shutdown).
  std::string bareRequest(const char *Verb) {
    JsonWriter J(JsonWriter::Style::Compact);
    J.openObject();
    J.num("id", NextId++);
    J.str("verb", Verb);
    J.closeObject();
    return J.take();
  }
};

} // namespace

int main(int argc, char **argv) {
  std::string Host = "127.0.0.1", PortFile, CollectFile,
              Name = "server-session";
  unsigned Port = 0;

  // First pass: connection flags (anywhere on the line).
  std::vector<std::pair<std::string, std::string>> Actions;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    auto value = [&](const char *What) -> std::optional<std::string> {
      if (I + 1 >= argc) {
        usage((std::string(What) + " needs a value").c_str());
        return std::nullopt;
      }
      return std::string(argv[++I]);
    };
    if (Flag == "--help" || Flag == "-h")
      return usage(nullptr, stdout);
    if (Flag == "--host") {
      auto V = value("--host");
      if (!V)
        return 2;
      Host = *V;
    } else if (Flag == "--port") {
      auto V = value("--port");
      auto N = V ? parseUnsigned(*V, 1, 65535) : std::nullopt;
      if (!N)
        return usage("--port needs a port number");
      Port = *N;
    } else if (Flag == "--port-file") {
      auto V = value("--port-file");
      if (!V)
        return 2;
      PortFile = *V;
    } else if (Flag == "--name") {
      auto V = value("--name");
      if (!V)
        return 2;
      Name = *V;
    } else if (Flag == "--collect") {
      auto V = value("--collect");
      if (!V)
        return 2;
      CollectFile = *V;
    } else if (Flag == "--ping" || Flag == "--status" ||
               Flag == "--shutdown") {
      Actions.emplace_back(Flag, "");
    } else if (Flag == "--auth" || Flag == "--upload" ||
               Flag == "--extend" || Flag == "--observe" ||
               Flag == "--query" ||
               Flag == "--query-history" || Flag == "--burst" ||
               Flag == "--status-out" || Flag == "--metrics-out") {
      auto V = value(Flag.c_str());
      if (!V)
        return 2;
      if (Flag == "--burst" && !parseUnsigned(*V, 1))
        return usage("--burst needs a positive integer (at most 4294967295)");
      Actions.emplace_back(Flag, *V);
    } else {
      return usage(("unknown option '" + Flag + "'").c_str());
    }
  }
  if (Actions.empty())
    return usage("no actions given");

  std::string Error;
  if (!PortFile.empty()) {
    std::string Text;
    if (!readFile(PortFile, Text, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    auto N = parseUnsigned(trimString(Text), 1, 65535);
    if (!N)
      return usage("--port-file does not contain a port number");
    Port = *N;
  }
  if (!Port)
    return usage("no port (--port or --port-file)");

  Client C;
  C.Collecting = !CollectFile.empty();
  if (!C.connect(Host, Port))
    return 1;

  unsigned Burst = 0;
  for (const auto &[Flag, Arg] : Actions) {
    if (Flag == "--ping") {
      C.roundTrip(C.bareRequest("ping"));
    } else if (Flag == "--status") {
      C.roundTrip(C.bareRequest("status"));
    } else if (Flag == "--status-out") {
      std::string Req = C.bareRequest("status");
      std::string Resp;
      if (!sendAll(C.Fd, Req) || !C.Reader.readLine(Resp)) {
        std::fprintf(stderr, "error: connection lost during status\n");
        return 1;
      }
      if (!writeFileAtomic(Arg, Resp + "\n", &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
    } else if (Flag == "--metrics-out") {
      std::string Req = C.bareRequest("metrics");
      std::string Resp;
      if (!sendAll(C.Fd, Req) || !C.Reader.readLine(Resp)) {
        std::fprintf(stderr, "error: connection lost during metrics\n");
        return 1;
      }
      std::optional<JsonValue> V = parseJson(Resp, &Error);
      const JsonValue *Expo =
          V && V->K == JsonValue::Kind::Object ? V->field("exposition")
                                               : nullptr;
      if (!Expo || Expo->K != JsonValue::Kind::String) {
        std::fprintf(stderr, "error: metrics response lacks exposition\n");
        return 1;
      }
      if (!writeFileAtomic(Arg, Expo->Text, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
    } else if (Flag == "--shutdown") {
      C.roundTrip(C.bareRequest("shutdown"));
    } else if (Flag == "--auth") {
      size_t Colon = Arg.find(':');
      JsonWriter J(JsonWriter::Style::Compact);
      J.openObject();
      J.num("id", C.NextId++);
      J.str("verb", "auth");
      J.str("tenant", Arg.substr(0, Colon));
      if (Colon != std::string::npos)
        J.str("api_key", Arg.substr(Colon + 1));
      J.closeObject();
      C.roundTrip(J.take());
    } else if (Flag == "--upload" || Flag == "--extend") {
      const char *Verb = Flag == "--upload" ? "upload" : "extend";
      size_t Colon = Arg.find(':');
      if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Arg.size())
        return usage(
            formatString("--%s needs NAME:FILE", Verb).c_str());
      std::string Trace;
      if (!readFile(Arg.substr(Colon + 1), Trace, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      JsonWriter J(JsonWriter::Style::Compact);
      J.openObject();
      J.num("id", C.NextId++);
      J.str("verb", Verb);
      J.str("name", Arg.substr(0, Colon));
      J.str("trace", Trace);
      J.closeObject();
      C.roundTrip(J.take());
    } else if (Flag == "--observe") {
      auto Kv = parseKvList(Arg);
      std::string OutFile;
      for (auto It = Kv.begin(); It != Kv.end();) {
        if (It->first == "out") {
          OutFile = It->second;
          It = Kv.erase(It);
        } else {
          ++It;
        }
      }
      JsonWriter J(JsonWriter::Style::Compact);
      J.openObject();
      J.num("id", C.NextId++);
      J.str("verb", "observe");
      if (!writeKvFields(J, Kv, &Error))
        return usage(Error.c_str());
      J.closeObject();
      if (!sendAll(C.Fd, J.take())) {
        std::fprintf(stderr, "error: connection lost while sending\n");
        return 1;
      }
      std::string Resp;
      if (!C.Reader.readLine(Resp)) {
        std::fprintf(stderr, "error: connection closed before a response\n");
        return 1;
      }
      C.handleResponse(Resp, false);
      if (!OutFile.empty()) {
        std::optional<JsonValue> V = parseJson(Resp, &Error);
        const JsonValue *Trace =
            V && V->K == JsonValue::Kind::Object ? V->field("trace") : nullptr;
        if (!Trace || Trace->K != JsonValue::Kind::String) {
          std::fprintf(stderr, "error: observe response carries no trace\n");
          return 1;
        }
        if (!writeFileAtomic(OutFile, Trace->Text, &Error)) {
          std::fprintf(stderr, "error: %s\n", Error.c_str());
          return 1;
        }
      }
    } else if (Flag == "--query") {
      // Build the lenient form locally, validate it into a JobSpec, and
      // send the exact JobIo wire form — identical spec hashing to a
      // batch campaign.
      auto Kv = parseKvList(Arg);
      // campaign_cli's default per-query solver budget; timeout_ms=0
      // asks for an unbounded solve explicitly.
      if (std::none_of(Kv.begin(), Kv.end(),
                       [](const auto &P) { return P.first == "timeout_ms"; }))
        Kv.emplace_back("timeout_ms", "5000");
      JsonWriter Lenient(JsonWriter::Style::Compact);
      Lenient.openObject();
      if (!writeKvFields(Lenient, Kv, &Error))
        return usage(Error.c_str());
      Lenient.closeObject();
      std::optional<JsonValue> V = parseJson(Lenient.take(), &Error);
      std::optional<JobSpec> S =
          V ? server::parseQuerySpec(*V, &Error) : std::nullopt;
      if (!S) {
        std::fprintf(stderr, "error: --query %s: %s\n", Arg.c_str(),
                     Error.c_str());
        return 2;
      }
      JsonWriter J(JsonWriter::Style::Compact);
      J.openObject();
      J.num("id", C.NextId++);
      J.str("verb", "query");
      J.openObjectIn("spec");
      writeJobSpecFields(J, *S);
      J.closeObject();
      J.closeObject();
      std::string Req = J.take();
      unsigned Copies = Burst ? Burst : 1;
      Burst = 0;
      if (Copies == 1) {
        C.roundTrip(Req);
      } else {
        for (unsigned K = 0; K < Copies; ++K)
          if (!sendAll(C.Fd, Req)) {
            std::fprintf(stderr, "error: connection lost while sending\n");
            return 1;
          }
        std::string Resp;
        for (unsigned K = 0; K < Copies; ++K) {
          if (!C.Reader.readLine(Resp)) {
            std::fprintf(stderr, "error: connection closed mid-burst\n");
            return 1;
          }
          C.handleResponse(Resp, /*Burst=*/true);
        }
      }
    } else if (Flag == "--query-history") {
      auto Kv = parseKvList(Arg);
      if (Kv.empty() || !Kv.front().first.empty())
        return usage("--query-history needs NAME[,k=v...]");
      JsonWriter J(JsonWriter::Style::Compact);
      J.openObject();
      J.num("id", C.NextId++);
      J.str("verb", "query");
      J.str("history", Kv.front().second);
      Kv.erase(Kv.begin());
      if (!writeKvFields(J, Kv, &Error))
        return usage(Error.c_str());
      J.closeObject();
      C.roundTrip(J.take());
    } else if (Flag == "--burst") {
      Burst = *parseUnsigned(Arg, 1); // Checked while parsing flags.
    }
  }

  if (!CollectFile.empty()) {
    Report R(Name, std::move(C.Collected), /*NumWorkers=*/1,
             /*WallSeconds=*/0.0);
    if (!R.writeJsonFile(CollectFile, {}, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "isopredict_client: wrote %zu results to %s\n",
                 R.size(), CollectFile.c_str());
  }
  return C.Failed ? 1 : 0;
}
