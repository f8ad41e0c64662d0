//===- Log.h - Structured leveled logging ----------------------*- C++ -*-===//
//
// Part of the IsoPredict reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-global structured logger for the serving path: leveled,
/// thread-safe, one line per event, each line carrying a wall-clock UTC
/// timestamp (for the operator), a monotonic nanosecond timestamp (for
/// correlating with trace spans — same clock as Tracer::nowNs), the
/// thread id, an event name, and ordered key=value fields. Two formats:
///
///   text    2026-08-07T12:34:56.789Z INFO server.start tid=0 port=7311
///   ndjson  {"ts":"...","mono_ns":123,"level":"info","event":"...",
///            "tid":0,"fields":{"port":"7311"}}
///
/// Text values are quoted (with backslash escapes) only when they
/// contain spaces, quotes, or '='; NDJSON lines are complete JSON
/// documents parseable by support/Json.h parseJson — tests pin this.
/// Level checks are a relaxed atomic load, so disabled sites cost one
/// branch; formatting happens only for enabled levels. The default
/// sink is stderr; configure() retargets to an append-mode file.
///
/// This replaces ad-hoc fprintf(stderr) in the server and campaign
/// CLIs — notably the slow-query log, which records every query over a
/// configured threshold with its tenant, spec hash, outcome, and
/// Z3 solver statistics.
///
//===----------------------------------------------------------------------===//

#ifndef ISOPREDICT_OBS_LOG_H
#define ISOPREDICT_OBS_LOG_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace isopredict {
namespace obs {

enum class LogLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// "debug" / "info" / "warn" / "error" / "off".
const char *logLevelName(LogLevel L);

/// Inverse of logLevelName (case-insensitive); false on unknown names.
bool parseLogLevel(const std::string &Name, LogLevel &Out);

/// One key=value annotation; values are preformatted strings.
using LogField = std::pair<std::string, std::string>;

class Log {
public:
  static Log &global();

  struct Options {
    LogLevel Level = LogLevel::Info;
    std::string Path; ///< Empty = stderr; else append-mode file.
    bool Ndjson = false;
  };

  /// Applies \p O, opening Options::Path when set. False + \p Error
  /// when the file cannot be opened (the previous sink stays active).
  bool configure(const Options &O, std::string *Error);

  LogLevel level() const;
  bool enabled(LogLevel L) const { return L >= level(); }

  /// Emits one event line (no-op below the configured level). Field
  /// order is preserved.
  void write(LogLevel L, const std::string &Event,
             std::vector<LogField> Fields);

  void debug(const std::string &Event, std::vector<LogField> Fields = {}) {
    write(LogLevel::Debug, Event, std::move(Fields));
  }
  void info(const std::string &Event, std::vector<LogField> Fields = {}) {
    write(LogLevel::Info, Event, std::move(Fields));
  }
  void warn(const std::string &Event, std::vector<LogField> Fields = {}) {
    write(LogLevel::Warn, Event, std::move(Fields));
  }
  void error(const std::string &Event, std::vector<LogField> Fields = {}) {
    write(LogLevel::Error, Event, std::move(Fields));
  }

private:
  struct Impl;
  Log();
  Impl &I;
};

} // namespace obs
} // namespace isopredict

#endif // ISOPREDICT_OBS_LOG_H
