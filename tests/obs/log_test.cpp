#include "obs/log.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace fsaic {
namespace {

std::vector<JsonValue> parse_lines(const std::string& text) {
  std::vector<JsonValue> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(JsonValue::parse(line));
  }
  return lines;
}

TEST(LogTest, LevelNamesRoundTrip) {
  for (const auto level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                           LogLevel::Error, LogLevel::Off}) {
    EXPECT_EQ(log_level_from_string(log_level_name(level)), level);
  }
  EXPECT_THROW((void)log_level_from_string("verbose"), Error);
}

TEST(LogTest, DefaultConstructedLoggerIsDisabled) {
  Logger log;
  EXPECT_FALSE(log.enabled(LogLevel::Error));
  log.error("ignored");  // must not crash or write
  EXPECT_EQ(log.lines_written(), 0);
}

TEST(LogTest, LinesAreParseableJsonWithHeaderAndFields) {
  std::ostringstream out;
  Logger log(out, LogLevel::Debug);
  JsonValue f = JsonValue::object();
  f["rid"] = std::int64_t{42};
  f["id"] = "r42";
  log.info("service.admit", f);
  log.debug("service.dequeue");

  const auto lines = parse_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("level").as_string(), "info");
  EXPECT_EQ(lines[0].at("event").as_string(), "service.admit");
  EXPECT_EQ(lines[0].at("rid").as_int(), 42);
  EXPECT_EQ(lines[0].at("id").as_string(), "r42");
  EXPECT_GE(lines[0].at("ts_us").as_double(), 0.0);
  EXPECT_EQ(lines[1].at("level").as_string(), "debug");
  EXPECT_EQ(lines[1].find("rid"), nullptr);
  EXPECT_EQ(log.lines_written(), 2);
}

TEST(LogTest, MinimumLevelFiltersLowerEvents) {
  std::ostringstream out;
  Logger log(out, LogLevel::Warn);
  EXPECT_FALSE(log.enabled(LogLevel::Info));
  EXPECT_TRUE(log.enabled(LogLevel::Warn));
  log.debug("dropped");
  log.info("dropped");
  log.warn("kept");
  log.error("kept");

  const auto lines = parse_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].at("level").as_string(), "warn");
  EXPECT_EQ(lines[1].at("level").as_string(), "error");
}

TEST(LogTest, EventNamesAndFieldValuesAreEscaped) {
  std::ostringstream out;
  Logger log(out, LogLevel::Info);
  JsonValue f = JsonValue::object();
  f["path"] = "a\"b\\c\n";
  log.info("odd \"event\"", f);
  const auto lines = parse_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].at("event").as_string(), "odd \"event\"");
  EXPECT_EQ(lines[0].at("path").as_string(), "a\"b\\c\n");
}

TEST(LogTest, ConcurrentWritersNeverInterleaveLines) {
  std::ostringstream out;
  Logger log(out, LogLevel::Info);
  constexpr int kThreads = 8;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kLines; ++i) {
        JsonValue f = JsonValue::object();
        f["thread"] = std::int64_t{t};
        f["i"] = std::int64_t{i};
        log.info("tick", f);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every line parses back — torn or interleaved writes would not.
  const auto lines = parse_lines(out.str());
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kThreads * kLines));
  for (const auto& line : lines) {
    EXPECT_EQ(line.at("event").as_string(), "tick");
  }
  EXPECT_EQ(log.lines_written(), kThreads * kLines);
}

TEST(LogTest, FileSinkHonoursPathAndLevel) {
  const std::string path =
      testing::TempDir() + "/fsaic_log_test_file_sink.jsonl";
  {
    Logger log(path, LogLevel::Warn);
    EXPECT_FALSE(log.enabled(LogLevel::Info));
    EXPECT_TRUE(log.enabled(LogLevel::Warn));
    log.info("file.dropped");
    log.warn("file.configured");
  }

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(JsonValue::parse(line).at("event").as_string(), "file.configured");
  EXPECT_FALSE(std::getline(in, line));
}

}  // namespace
}  // namespace fsaic
