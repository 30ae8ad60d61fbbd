// Leveled, thread-safe structured logging: one compact JSON object per line.
//
// The serving path needed a third observability surface next to traces and
// metrics: a stream of *events* that names what happened to which request.
// Every line is `{"ts_us":…,"level":…,"event":…,<fields>}` — JSONL that jq,
// grep and pandas consume directly, and the same JsonValue substrate the
// rest of src/obs/ emits through. The solve service logs each request's
// lifecycle (admit → dequeue → setup → solve → respond) keyed by the
// request id `rid` it mints at admission; the same rid rides in the
// response JSON and in the trace slices' args, so one `grep '"rid":42'`
// correlates a slow request's log lines, metrics and trace spans.
//
// Like the rest of the layer, logging is off unless wired: a
// default-constructed Logger is disabled, `enabled()` is a cheap filter for
// callers that would otherwise build field objects, and a null Logger*
// costs one pointer test. `fsaic serve --log/--log-level` configure the CLI.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace fsaic {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// "debug"|"info"|"warn"|"error"|"off" -> LogLevel; throws fsaic::Error on
/// anything else.
[[nodiscard]] LogLevel log_level_from_string(std::string_view s);
[[nodiscard]] const char* log_level_name(LogLevel level);

class Logger {
 public:
  /// Disabled logger: enabled() is false everywhere, log() is a no-op.
  Logger() = default;

  /// Log to `path` (truncates; throws fsaic::Error if uncreatable). "-" and
  /// "stderr" mean stderr.
  Logger(const std::string& path, LogLevel min_level);

  /// Log to a borrowed stream (tests); the caller keeps it alive.
  Logger(std::ostream& out, LogLevel min_level);

  /// Cheap level filter; guard expensive field construction with this.
  [[nodiscard]] bool enabled(LogLevel level) const {
    return out_ != nullptr && level >= min_level_;
  }

  /// Append one line and flush. `fields` must be a JSON object (or null for
  /// none); its members follow the ts_us/level/event header. Thread-safe;
  /// below the minimum level the call is a no-op.
  void log(LogLevel level, std::string_view event,
           const JsonValue& fields = JsonValue());

  void debug(std::string_view event, const JsonValue& fields = JsonValue()) {
    log(LogLevel::Debug, event, fields);
  }
  void info(std::string_view event, const JsonValue& fields = JsonValue()) {
    log(LogLevel::Info, event, fields);
  }
  void warn(std::string_view event, const JsonValue& fields = JsonValue()) {
    log(LogLevel::Warn, event, fields);
  }
  void error(std::string_view event, const JsonValue& fields = JsonValue()) {
    log(LogLevel::Error, event, fields);
  }

  [[nodiscard]] std::int64_t lines_written() const;

 private:
  std::ofstream owned_;
  std::ostream* out_ = nullptr;
  LogLevel min_level_ = LogLevel::Off;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::int64_t lines_ = 0;
};

}  // namespace fsaic
