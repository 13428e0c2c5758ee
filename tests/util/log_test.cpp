#include "util/log.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace refbmc {
namespace {

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_level_ = set_log_level(LogLevel::Debug);
    prev_sink_ = set_log_sink(
        [this](LogLevel level, const std::string& msg) {
          captured_.emplace_back(level, msg);
        });
  }
  void TearDown() override {
    set_log_sink(prev_sink_);
    set_log_level(prev_level_);
  }

  std::vector<std::pair<LogLevel, std::string>> captured_;
  LogLevel prev_level_ = LogLevel::Warn;
  LogSink prev_sink_;
};

TEST_F(LogTest, MessagesReachSink) {
  REFBMC_INFO() << "hello " << 42;
  ASSERT_EQ(captured_.size(), 1u);
  EXPECT_EQ(captured_[0].first, LogLevel::Info);
  EXPECT_EQ(captured_[0].second, "hello 42");
}

TEST_F(LogTest, LevelFilters) {
  set_log_level(LogLevel::Warn);
  REFBMC_DEBUG() << "dropped";
  REFBMC_INFO() << "dropped too";
  REFBMC_WARN() << "kept";
  REFBMC_ERROR() << "kept too";
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[0].second, "kept");
  EXPECT_EQ(captured_[1].second, "kept too");
}

TEST_F(LogTest, OffSilencesEverything) {
  set_log_level(LogLevel::Off);
  REFBMC_ERROR() << "nope";
  EXPECT_TRUE(captured_.empty());
}

TEST_F(LogTest, SetLevelReturnsPrevious) {
  EXPECT_EQ(set_log_level(LogLevel::Error), LogLevel::Debug);
  EXPECT_EQ(log_level(), LogLevel::Error);
}

TEST_F(LogTest, ThreadTagPrefixesMessages) {
  const std::string prev = set_log_thread_tag("static");
  EXPECT_EQ(prev, "");
  EXPECT_EQ(log_thread_tag(), "static");
  REFBMC_INFO() << "solving";
  const std::string prev2 = set_log_thread_tag("");
  EXPECT_EQ(prev2, "static");
  REFBMC_INFO() << "untagged";
  ASSERT_EQ(captured_.size(), 2u);
  EXPECT_EQ(captured_[0].second, "|static| solving");
  EXPECT_EQ(captured_[1].second, "untagged");
}

TEST_F(LogTest, TagsAreThreadLocal) {
  set_log_thread_tag("main");
  std::string other_tag;
  std::thread t([&other_tag] { other_tag = log_thread_tag(); });
  t.join();
  EXPECT_EQ(other_tag, "");  // fresh thread starts untagged
  EXPECT_EQ(log_thread_tag(), "main");
  set_log_thread_tag("");
}

TEST_F(LogTest, ConcurrentLoggingKeepsLinesIntact) {
  // One mutex per emitted line: concurrent writers may interleave LINES
  // arbitrarily but never characters — every captured message is exactly
  // one writer's tagged payload.  Run under TSan via the CI matrix.
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      std::string tag = "w";
      tag += std::to_string(t);
      set_log_thread_tag(tag);
      for (int i = 0; i < kLines; ++i)
        REFBMC_INFO() << "msg " << t << ":" << i;
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(captured_.size(),
            static_cast<std::size_t>(kThreads) * kLines);
  for (const auto& [level, msg] : captured_) {
    EXPECT_EQ(level, LogLevel::Info);
    // Shape: |wT| msg T:I with matching thread ids.
    ASSERT_EQ(msg.rfind("|w", 0), 0u) << msg;
    const std::size_t bar = msg.find('|', 1);
    ASSERT_NE(bar, std::string::npos) << msg;
    const std::string tag_id = msg.substr(2, bar - 2);
    const std::size_t colon = msg.find(':');
    ASSERT_NE(colon, std::string::npos) << msg;
    const std::string body_id =
        msg.substr(bar + 6, colon - (bar + 6));  // "| msg T:..."
    EXPECT_EQ(tag_id, body_id) << msg;
  }
}

}  // namespace
}  // namespace refbmc
