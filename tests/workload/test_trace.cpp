#include <gtest/gtest.h>

#include "common/error.hpp"
#include "workload/trace.hpp"

namespace deepbat::workload {
namespace {

TEST(Trace, RejectsDecreasingTimestamps) {
  EXPECT_NO_THROW(Trace({1.0, 2.0, 2.0, 3.0}));
  EXPECT_THROW(Trace({1.0, 0.5}), Error);
}

TEST(Trace, BasicAccessors) {
  Trace t({1.0, 2.0, 4.0});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t.start_time(), 1.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 4.0);
  EXPECT_DOUBLE_EQ(t.duration(), 3.0);
  EXPECT_DOUBLE_EQ(t[1], 2.0);
}

TEST(Trace, MeanRate) {
  Trace t({0.0, 1.0, 2.0, 3.0, 4.0});  // 4 gaps over 4 s
  EXPECT_DOUBLE_EQ(t.mean_rate(), 1.0);
  Trace single({5.0});
  EXPECT_DOUBLE_EQ(single.mean_rate(), 0.0);
}

TEST(Trace, Interarrivals) {
  Trace t({1.0, 1.5, 3.0});
  const auto gaps = t.interarrivals();
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 0.5);
  EXPECT_DOUBLE_EQ(gaps[1], 1.5);
  EXPECT_TRUE(Trace({1.0}).interarrivals().empty());
}

TEST(Trace, SliceIsHalfOpen) {
  Trace t({0.0, 1.0, 2.0, 3.0});
  const Trace s = t.slice(1.0, 3.0);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_THROW(t.slice(2.0, 1.0), Error);
}

TEST(Trace, WindowBeforeReturnsRecentGaps) {
  Trace t({0.0, 1.0, 3.0, 6.0, 10.0});
  // Gaps: 1, 2, 3, 4. Before t = 7 -> arrivals 0,1,3,6 -> gaps 1,2,3.
  const auto w = t.window_before(7.0, 2, 99.0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 3.0);
}

TEST(Trace, WindowBeforePadsWhenShort) {
  Trace t({0.0, 1.0});
  const auto w = t.window_before(5.0, 4, 7.0);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 7.0);
  EXPECT_DOUBLE_EQ(w[1], 7.0);
  EXPECT_DOUBLE_EQ(w[2], 7.0);
  EXPECT_DOUBLE_EQ(w[3], 1.0);
}

TEST(Trace, WindowBeforeExcludesArrivalsAtOrAfterT) {
  Trace t({0.0, 1.0, 2.0});
  const auto w = t.window_before(2.0, 2, 9.0);
  // Arrival at exactly t = 2 is excluded -> only gap 1.0 available.
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 9.0);
  EXPECT_DOUBLE_EQ(w[1], 1.0);
}

TEST(Trace, RateHistogram) {
  Trace t({0.0, 0.5, 0.9, 1.5, 2.1});
  const auto h = t.rate_histogram(1.0);
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0], 3u);
  EXPECT_EQ(h[1], 1u);
  EXPECT_EQ(h[2], 1u);
  EXPECT_THROW(t.rate_histogram(0.0), Error);
}

TEST(Trace, AppendKeepsMonotonicity) {
  Trace a({0.0, 1.0});
  Trace b({1.5, 2.0});
  a.append(b);
  EXPECT_EQ(a.size(), 4u);
  Trace c({0.5});
  EXPECT_THROW(a.append(c), Error);
}

TEST(Trace, FromInterarrivals) {
  const std::vector<double> gaps{1.0, 2.0, 0.5};
  const Trace t = trace_from_interarrivals(gaps, 10.0);
  ASSERT_EQ(t.size(), 4u);
  EXPECT_DOUBLE_EQ(t[0], 10.0);
  EXPECT_DOUBLE_EQ(t[3], 13.5);
  const std::vector<double> bad{1.0, -0.5};
  EXPECT_THROW(trace_from_interarrivals(bad), Error);
}

}  // namespace
}  // namespace deepbat::workload
