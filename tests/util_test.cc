#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/data/io.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/timer.h"
#include "test_dir.h"

namespace streamhist {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad B");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad B");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad B");
}

TEST(StatusTest, EqualityAndStreaming) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  std::ostringstream os;
  os << Status::IOError("disk");
  EXPECT_EQ(os.str(), "IOError: disk");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    STREAMHIST_RETURN_NOT_OK(Status::Internal("boom"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("n"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::NotFound("no");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    STREAMHIST_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(outer(false).value(), 8);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kNotFound);
}

TEST(RandomTest, DeterministicPerSeed) {
  Random a(5), b(5), c(6);
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
  EXPECT_NE(a.NextUint64(), c.NextUint64());
}

TEST(RandomTest, UniformIntRespectsBounds) {
  Random rng(9);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Random rng(10);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(10.0, 2.0);
    sum += v;
    sumsq += v * v;
  }
  const double mean = sum / n;
  const double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RandomTest, BernoulliFrequency) {
  Random rng(12);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(RandomTest, ZipfRankOneDominates) {
  Random rng(13);
  int64_t first = 0;
  for (int i = 0; i < 20000; ++i) {
    const int64_t v = rng.Zipf(100, 1.5);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
    if (v == 1) ++first;
  }
  EXPECT_GT(first, 7000);  // ~41% mass at rank 1 for s=1.5, n=100
}

TEST(RandomTest, ShufflePreservesMultiset) {
  Random rng(14);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.ElapsedNanos(), 0);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

TEST(IoTest, CsvRoundTrip) {
  const TestDir scratch;
  const std::string path = scratch.File("series.csv");
  const std::vector<double> data{1.5, -2.25, 1e6, 0.0};
  ASSERT_TRUE(WriteSeriesCsv(path, data).ok());
  auto back = ReadSeriesCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.value()[i], data[i]);
  }
}

TEST(IoTest, SkipsCommentsAndTakesFirstColumn) {
  const TestDir scratch;
  const std::string path = scratch.File("commented.csv");
  {
    std::ofstream out(path);
    out << "# header\n1.5,extra\n\n2.5\n";
  }
  auto back = ReadSeriesCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), (std::vector<double>{1.5, 2.5}));
}

TEST(IoTest, MissingFileIsIOError) {
  auto r = ReadSeriesCsv("/nonexistent/definitely/missing.csv");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(IoTest, GarbageLineIsInvalidArgument) {
  const TestDir scratch;
  const std::string path = scratch.File("garbage.csv");
  {
    std::ofstream out(path);
    out << "1.0\nnot-a-number\n";
  }
  auto r = ReadSeriesCsv(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace streamhist
