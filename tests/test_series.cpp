// CostSeries mean / max / nearest-rank percentile statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "stats/series.hpp"

namespace san {
namespace {

TEST(CostSeries, MeanAndMax) {
  CostSeries s;
  for (Cost v : {1, 2, 3, 4}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_EQ(s.max(), 4);
  EXPECT_EQ(s.count(), 4u);
}

TEST(CostSeries, Percentiles) {
  CostSeries s;
  for (Cost v = 1; v <= 100; ++v) s.add(101 - v);  // unsorted insert
  EXPECT_EQ(s.percentile(0.0), 1);
  EXPECT_EQ(s.percentile(0.5), 50);
  EXPECT_EQ(s.percentile(0.99), 99);
  EXPECT_EQ(s.percentile(1.0), 100);
}

TEST(CostSeries, PercentileAfterLaterAdds) {
  CostSeries s;
  s.add(10);
  EXPECT_EQ(s.percentile(0.5), 10);
  s.add(20);  // a later add is seen by the next percentile
  EXPECT_EQ(s.percentile(1.0), 20);
}

TEST(CostSeries, EmptySeries) {
  CostSeries s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.max(), 0);
  EXPECT_THROW(s.percentile(0.5), TreeError);
}

// The const observers keep no mutable state: many threads reading the
// same const series concurrently must all see the same values, with no
// data race. Run under TSan by the CI thread-sanitizer job.
TEST(CostSeries, ConcurrentConstReaders) {
  CostSeries s;
  for (Cost v = 1000; v >= 1; --v) s.add(v);
  const CostSeries& cs = s;
  std::vector<std::thread> readers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t)
    readers.emplace_back([&cs, &failures] {
      for (int i = 0; i < 50; ++i) {
        if (cs.percentile(0.5) != 500) ++failures;
        if (cs.percentile(0.99) != 990) ++failures;
        if (cs.percentile(1.0) != 1000) ++failures;
        if (cs.max() != 1000) ++failures;
        if (cs.mean() != 500.5) ++failures;
      }
    });
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace san
