//===- isopredict_server.cpp - Prediction-as-a-service daemon ---*- C++ -*-===//
//
// A long-lived TCP daemon exposing the IsoPredict pipeline over
// newline-delimited JSON (src/server/Protocol.h documents the wire
// format). Tenants upload or observe database histories, then ask
// prediction queries against them; answers come from the shared result
// cache, a warm per-(tenant × history) solver session, or a cold run of
// the same engine pipeline campaign_cli uses — so outcomes match batch
// runs exactly.
//
// Usage:
//   isopredict_server [--host ADDR] [--port N] [--port-file FILE]
//                     [--workers N] [--sessions N] [--cache-dir DIR]
//                     [--tenants FILE]
//                     [--log-file FILE] [--log-level L] [--log-json]
//                     [--slow-query-ms N]
//                     [--trace-dir DIR] [--trace-flush-sec N]
//                     [--trace-ring N] [--trace-keep N]
//
// Without --tenants the server runs in open mode: a single implicit
// admin tenant named "default" with generous quotas, and connections
// may `auth` as it with no api key. A tenants file locks the server
// down to exactly the tenants it lists:
//
//   {"tenants": [{"name": "acme", "app_id": "acme", "api_key": "s3cret",
//                 "max_concurrent": 4, "max_queued": 64,
//                 "max_histories": 64, "admin": false}, ...]}
//
// SIGINT/SIGTERM (or an admin `shutdown` verb) drain gracefully:
// queued-but-unstarted queries receive shutting_down errors, in-flight
// solver calls are interrupted, every started job still writes its
// response, then the process exits 0.
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "server/Server.h"
#include "support/Fs.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace isopredict;
using namespace isopredict::server;

namespace {

/// Prints the usage text: to stdout for --help (exit 0), otherwise to
/// stderr after \p Msg (exit 2).
int usage(const char *Msg = nullptr, std::FILE *Out = stderr) {
  if (Msg)
    std::fprintf(stderr, "error: %s\n", Msg);
  std::fprintf(
      Out,
      "usage: isopredict_server [options]\n"
      "  --host ADDR      listen address (default: 127.0.0.1)\n"
      "  --port N         TCP port, 0 = ephemeral (default: 0)\n"
      "  --port-file FILE write the bound port to FILE once listening\n"
      "  --workers N      job worker threads, 0 = all cores (default: 0)\n"
      "  --sessions N     warm solver sessions kept (default: 8)\n"
      "  --cache-dir DIR  persistent result cache shared with batch runs\n"
      "  --tenants FILE   tenant config JSON (default: open mode, one\n"
      "                   implicit admin tenant \"default\", no api key)\n"
      "  --log-file FILE  structured log sink (default: stderr)\n"
      "  --log-level L    debug|info|warn|error|off (default: info)\n"
      "  --log-json       NDJSON log lines instead of text\n"
      "  --slow-query-ms N  slow-query log threshold in ms (fractional\n"
      "                   ok), 0 = off (default: 1000)\n"
      "  --trace-dir DIR  continuous ring-buffer tracing: rotate Chrome\n"
      "                   trace files into DIR\n"
      "  --trace-flush-sec N  trace flush/rotate period (default: 10)\n"
      "  --trace-ring N   ring capacity in spans (default: 16384)\n"
      "  --trace-keep N   rotated trace files kept (default: 8)\n");
  return Out == stdout ? 0 : 2;
}

} // namespace

int main(int argc, char **argv) {
  ServerOptions Opts;
  std::string PortFile, TenantsFile;
  obs::Log::Options LogOpts;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    const char *V = I + 1 < argc ? argv[I + 1] : nullptr;
    auto needValue = [&](const char *Name) -> const char * {
      if (!V)
        std::fprintf(stderr, "error: %s needs a value\n", Name);
      else
        ++I;
      return V;
    };
    if (Flag == "--help" || Flag == "-h")
      return usage(nullptr, stdout);
    if (Flag == "--host") {
      if (!needValue("--host"))
        return 2;
      Opts.Host = V;
    } else if (Flag == "--port") {
      if (!needValue("--port"))
        return 2;
      auto N = parseUnsigned(V, 0, 65535);
      if (!N)
        return usage("--port needs a port number");
      Opts.Port = *N;
    } else if (Flag == "--port-file") {
      if (!needValue("--port-file"))
        return 2;
      PortFile = V;
    } else if (Flag == "--workers" || Flag == "--jobs") {
      if (!needValue("--workers"))
        return 2;
      auto N = parseUnsigned(V);
      if (!N)
        return usage("--workers needs a non-negative integer "
                     "(at most 4294967295)");
      Opts.Workers = *N;
    } else if (Flag == "--sessions") {
      if (!needValue("--sessions"))
        return 2;
      auto N = parseInt(V);
      if (!N || *N < 0)
        return usage("--sessions needs a non-negative integer");
      Opts.SessionCapacity = static_cast<size_t>(*N);
    } else if (Flag == "--cache-dir") {
      if (!needValue("--cache-dir"))
        return 2;
      Opts.CacheDir = V;
    } else if (Flag == "--tenants") {
      if (!needValue("--tenants"))
        return 2;
      TenantsFile = V;
    } else if (Flag == "--log-file") {
      if (!needValue("--log-file"))
        return 2;
      LogOpts.Path = V;
    } else if (Flag == "--log-level") {
      if (!needValue("--log-level"))
        return 2;
      if (!obs::parseLogLevel(V, LogOpts.Level))
        return usage("--log-level needs debug|info|warn|error|off");
    } else if (Flag == "--log-json") {
      LogOpts.Ndjson = true;
    } else if (Flag == "--slow-query-ms") {
      if (!needValue("--slow-query-ms"))
        return 2;
      char *End = nullptr;
      double Ms = std::strtod(V, &End);
      if (End == V || *End != '\0' || Ms < 0)
        return usage("--slow-query-ms needs a non-negative number");
      Opts.SlowQueryMs = Ms;
    } else if (Flag == "--trace-dir") {
      if (!needValue("--trace-dir"))
        return 2;
      Opts.TraceDir = V;
    } else if (Flag == "--trace-flush-sec") {
      if (!needValue("--trace-flush-sec"))
        return 2;
      auto N = parseUnsigned(V, 1);
      if (!N)
        return usage("--trace-flush-sec needs a positive integer "
                     "(at most 4294967295)");
      Opts.TraceFlushSec = *N;
    } else if (Flag == "--trace-ring") {
      if (!needValue("--trace-ring"))
        return 2;
      auto N = parseInt(V);
      if (!N || *N <= 0)
        return usage("--trace-ring needs a positive integer");
      Opts.TraceRingCapacity = static_cast<size_t>(*N);
    } else if (Flag == "--trace-keep") {
      if (!needValue("--trace-keep"))
        return 2;
      auto N = parseUnsigned(V);
      if (!N)
        return usage("--trace-keep needs a non-negative integer "
                     "(at most 4294967295)");
      Opts.TraceKeepFiles = *N;
    } else {
      return usage(("unknown option '" + Flag + "'").c_str());
    }
  }

  std::string Error;
  if (!obs::Log::global().configure(LogOpts, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  TenantRegistry Registry;
  if (!TenantsFile.empty()) {
    std::string Text;
    if (!readFile(TenantsFile, Text, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::optional<TenantRegistry> R = TenantRegistry::fromJson(Text, &Error);
    if (!R) {
      std::fprintf(stderr, "error: %s: %s\n", TenantsFile.c_str(),
                   Error.c_str());
      return 1;
    }
    Registry = std::move(*R);
  }

  std::string Host = Opts.Host;
  Server S(std::move(Opts), std::move(Registry));
  if (!S.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (!PortFile.empty() &&
      !writeFileAtomic(PortFile, formatString("%u\n", S.port()), &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // The "listening"/"drained" markers scripts grep for now flow through
  // the structured log (still stderr by default).
  obs::Log::global().info(
      "server.listening",
      {{"host", Host}, {"port", std::to_string(S.port())}});
  S.serve();
  obs::Log::global().info("server.drained", {{"exit", "0"}});
  return 0;
}
