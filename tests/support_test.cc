#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/strings.h"

namespace wrl {
namespace {

TEST(Strings, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(Hex32(0xdeadbeef), "0xdeadbeef");
  EXPECT_EQ(Hex32(5), "0x00000005");
}

TEST(Strings, SplitFields) {
  auto f = SplitFields("a, b,,c", " ,");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "b");
  EXPECT_EQ(f[2], "c");
  EXPECT_TRUE(SplitFields("", ",").empty());
}

TEST(Strings, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace("\t \n"), "");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-17"), -17);
  EXPECT_EQ(ParseInt("0x10"), 16);
  EXPECT_EQ(ParseInt("0xFFFFFFFF"), 0xffffffffLL);
  EXPECT_EQ(ParseInt(" 7 "), 7);
  EXPECT_THROW(ParseInt(""), Error);
  EXPECT_THROW(ParseInt("12x"), Error);
  EXPECT_THROW(ParseInt("0x"), Error);
  EXPECT_THROW(ParseInt("9a"), Error);
}

TEST(Error, CheckMacroThrowsInternalError) {
  EXPECT_THROW(WRL_CHECK(false), InternalError);
  EXPECT_NO_THROW(WRL_CHECK(true));
  try {
    WRL_CHECK_MSG(1 == 2, "details here");
    FAIL();
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("details here"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, RoughlyUniform) {
  Rng rng(11);
  int buckets[10] = {0};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    ++buckets[rng.Below(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kSamples / 10, kSamples / 100);
  }
}

TEST(RunIndexed, RunsEveryIndexOnceAtAnyJobCount) {
  for (unsigned jobs : {0u, 1u, 2u, 4u, 9u}) {
    SCOPED_TRACE(jobs);
    std::vector<int> runs(37, 0);
    RunIndexed(runs.size(), jobs, [&runs](size_t i) { ++runs[i]; });
    EXPECT_EQ(runs, std::vector<int>(37, 1));
  }
  RunIndexed(0, 4, [](size_t) { FAIL() << "no task to run"; });
}

TEST(RunIndexed, OneJobRunsInlineInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  RunIndexed(5, 1, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

// The error rethrown is the lowest index's, even when a higher index fails
// first, and it comes only after every started task has finished.
TEST(RunIndexed, RethrowsTheLowestIndexErrorAfterStartedTasksFinish) {
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE(jobs);
    std::atomic<int> running{0};
    int running_at_rethrow = -1;
    try {
      RunIndexed(8, jobs, [&](size_t i) {
        ++running;
        if (i == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          --running;
          throw Error("task 1");
        }
        --running;
        if (i == 5) {
          throw Error("task 5");
        }
      });
      ADD_FAILURE() << "no error rethrown";
    } catch (const Error& e) {
      running_at_rethrow = running.load();
      EXPECT_STREQ(e.what(), "task 1");
    }
    EXPECT_EQ(running_at_rethrow, 0);
  }
}

// After a failure no further task starts.
TEST(RunIndexed, StopsStartingTasksAfterAFailure) {
  for (unsigned jobs : {1u, 2u}) {
    SCOPED_TRACE(jobs);
    std::atomic<size_t> started{0};
    EXPECT_THROW(RunIndexed(1000, jobs,
                            [&started](size_t i) {
                              ++started;
                              if (i == 0) {
                                throw Error("first");
                              }
                              std::this_thread::sleep_for(std::chrono::milliseconds(1));
                            }),
                 Error);
    EXPECT_LT(started.load(), 1000u);
    if (jobs == 1) {
      EXPECT_EQ(started.load(), 1u);
    }
  }
}

}  // namespace
}  // namespace wrl
