#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/completion_scope.h"
#include "common/counter.h"
#include "common/result.h"
#include "common/status.h"

namespace relserve {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  Status s = Status::OutOfMemory("arena full");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsOutOfMemory());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.message(), "arena full");
  EXPECT_EQ(s.ToString(), "OutOfMemory: arena full");
}

TEST(StatusTest, PredicatesAreExclusive) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_FALSE(Status::NotFound("x").IsOutOfMemory());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_FALSE(Status::OK().IsNotFound());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfMemory), "OutOfMemory");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented),
               "NotImplemented");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    RELSERVE_RETURN_NOT_OK(Status::IOError("disk gone"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kIOError);

  auto succeeds = []() -> Status {
    RELSERVE_RETURN_NOT_OK(Status::OK());
    return Status::InvalidArgument("reached");
  };
  EXPECT_EQ(succeeds().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto inner = []() -> Result<int> {
    return Status::OutOfMemory("full");
  };
  auto outer = [&]() -> Status {
    RELSERVE_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsOutOfMemory());
}

TEST(ResultTest, AssignOrReturnBindsValue) {
  auto inner = []() -> Result<int> { return 41; };
  auto outer = [&]() -> Result<int> {
    RELSERVE_ASSIGN_OR_RETURN(int v, inner());
    return v + 1;
  };
  EXPECT_EQ(*outer(), 42);
}

TEST(CounterTest, CopyIsASnapshot) {
  Counter c;
  c.Add(3);
  Counter copy = c;
  Counter assigned;
  assigned = c;
  c.Add(4);
  EXPECT_EQ(copy.load(), 3);
  EXPECT_EQ(assigned.load(), 3);
  EXPECT_EQ(c.load(), 7);
}

// Runs `body(t)` on 4 threads at once.
template <typename Body>
void OnFourThreads(const Body& body) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  constexpr int kAdds = 100000;
  Counter c;
  OnFourThreads([&c](int) {
    for (int i = 0; i < kAdds; ++i) c.Add();
  });
  EXPECT_EQ(c.load(), 4 * kAdds);
}

TEST(CounterTest, StoreMaxKeepsTheMaximumUnderContention) {
  constexpr int kValues = 100000;
  Counter high;
  // Thread t stores t, t + 4, t + 8, ...: every value below 4 * kValues
  // once, raced across threads.
  OnFourThreads([&high](int t) {
    for (int i = 0; i < kValues; ++i) high.StoreMax(int64_t{i} * 4 + t);
  });
  EXPECT_EQ(high.load(), 4 * kValues - 1);
  high.StoreMax(5);  // lower values never lower it
  EXPECT_EQ(high.load(), 4 * kValues - 1);
}

struct SampleStats {
  Counter events;
  int64_t bytes = -2;

  template <typename F>
  void ForEachField(F&& f) const {
    f("events", events);
    f("bytes", bytes);
    f("ratio", 2.5);
  }
};

TEST(CounterTest, RenderJsonListsEveryFieldInOrder) {
  SampleStats stats;
  stats.events.Add(3);
  EXPECT_EQ(RenderJson(stats), "{\"events\":3,\"bytes\":-2,\"ratio\":2.5}");
}

// Defer reports whether it took the action, so a caller that pays for
// an action up front (a reference token) can refund a dropped one.
TEST(CompletionScopeTest, DefersOncePerKeyInFirstDeferOrder) {
  std::vector<std::string> log;
  int a = 0, b = 0;
  EXPECT_TRUE(CompletionScope::Defer(&a, [&] { log.push_back("inline"); }));
  EXPECT_EQ(log, std::vector<std::string>{"inline"});
  log.clear();
  {
    CompletionScope scope;
    EXPECT_TRUE(CompletionScope::Defer(&b, [&] { log.push_back("b"); }));
    EXPECT_TRUE(CompletionScope::Defer(&a, [&] {
      log.push_back("a");
      // The scope is closed by now: this runs inline.
      CompletionScope::Defer(&a, [&] { log.push_back("a again"); });
    }));
    EXPECT_FALSE(CompletionScope::Defer(&b, [&] { log.push_back("b2"); }));
    EXPECT_TRUE(log.empty());
  }
  EXPECT_EQ(log, (std::vector<std::string>{"b", "a", "a again"}));
}

}  // namespace
}  // namespace relserve
