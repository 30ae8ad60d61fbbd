#include "obs/log.hpp"

#include <iostream>
#include <ostream>

#include "common/error.hpp"
#include "common/format.hpp"

namespace fsaic {

LogLevel log_level_from_string(std::string_view s) {
  if (s == "debug") return LogLevel::Debug;
  if (s == "info") return LogLevel::Info;
  if (s == "warn") return LogLevel::Warn;
  if (s == "error") return LogLevel::Error;
  FSAIC_REQUIRE(s == "off", "unknown log level \"" + std::string(s) +
                                "\" (use debug|info|warn|error|off)");
  return LogLevel::Off;
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "debug";
    case LogLevel::Info: return "info";
    case LogLevel::Warn: return "warn";
    case LogLevel::Error: return "error";
    case LogLevel::Off: return "off";
  }
  return "off";
}

Logger::Logger(const std::string& path, LogLevel min_level)
    : min_level_(min_level) {
  if (path == "-" || path == "stderr") {
    out_ = &std::cerr;
    return;
  }
  owned_.open(path);
  FSAIC_REQUIRE(owned_.good(), "cannot open log output file: " + path);
  out_ = &owned_;
}

Logger::Logger(std::ostream& out, LogLevel min_level)
    : out_(&out), min_level_(min_level) {}

void Logger::log(LogLevel level, std::string_view event,
                 const JsonValue& fields) {
  if (!enabled(level)) return;
  FSAIC_REQUIRE(fields.is_null() || fields.is_object(),
                "log fields must be a JSON object");
  const double ts_us = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - epoch_)
                           .count();
  // Hand-assembled so the ts_us/level/event header leads every line (the
  // JsonValue object writer sorts keys alphabetically).
  std::string line =
      strformat("{\"ts_us\":%.1f,\"level\":\"%s\",\"event\":\"%s\"", ts_us,
                log_level_name(level),
                json_escape(event).c_str());
  if (fields.is_object() && fields.size() > 0) {
    const std::string body = fields.dump();  // "{...}"
    line += ',';
    line.append(body, 1, body.size() - 1);
  } else {
    line += '}';
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
  out_->flush();
  ++lines_;
}

std::int64_t Logger::lines_written() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

}  // namespace fsaic
