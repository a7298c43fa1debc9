#include "src/engine/query_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/query/estimator.h"
#include "src/util/fault.h"
#include "src/util/governor.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

StreamConfig SmallConfig() {
  StreamConfig config;
  config.window_size = 64;
  config.num_buckets = 8;
  config.epsilon = 0.2;
  return config;
}

TEST(ManagedStreamTest, MaintainsAllSynopses) {
  ManagedStream stream = ManagedStream::Create(SmallConfig()).value();
  Random rng(1);
  for (int i = 0; i < 500; ++i) stream.Append(rng.UniformInt(0, 100));
  EXPECT_EQ(stream.total_points(), 500);
  EXPECT_EQ(stream.window_histogram().window().size(), 64);
  ASSERT_NE(stream.quantiles(), nullptr);
  EXPECT_EQ(stream.quantiles()->size(), 500);
  ASSERT_NE(stream.distinct(), nullptr);
  EXPECT_NEAR(stream.distinct()->EstimateDistinct(), 101.0, 60.0);
  EXPECT_FALSE(stream.Describe().empty());
}

TEST(ManagedStreamTest, OptionalSynopsesCanBeDisabled) {
  StreamConfig config = SmallConfig();
  config.keep_quantiles = false;
  config.keep_distinct = false;
  ManagedStream stream = ManagedStream::Create(config).value();
  stream.Append(1.0);
  EXPECT_EQ(stream.quantiles(), nullptr);
  EXPECT_EQ(stream.distinct(), nullptr);
}

TEST(ManagedStreamTest, CreateValidatesConfig) {
  StreamConfig bad = SmallConfig();
  bad.window_size = 0;
  EXPECT_FALSE(ManagedStream::Create(bad).ok());
  bad = SmallConfig();
  bad.quantile_epsilon = 2.0;
  EXPECT_FALSE(ManagedStream::Create(bad).ok());
  bad = SmallConfig();
  bad.build_delta = -0.5;
  EXPECT_FALSE(ManagedStream::Create(bad).ok());
  bad = SmallConfig();
  bad.build_delta = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(ManagedStream::Create(bad).ok());
}

TEST(ManagedStreamTest, BuildWindowHistogramExactAndApprox) {
  ManagedStream stream = ManagedStream::Create(SmallConfig()).value();
  Random rng(9);
  for (int i = 0; i < 300; ++i) stream.Append(rng.UniformDouble(0, 100));
  const std::vector<double> window =
      stream.window_histogram().window().ToVector();
  ASSERT_EQ(window.size(), 64u);

  // Default mode: the exact DP over the current window contents.
  const WindowBuildReport exact = stream.BuildWindowHistogram();
  EXPECT_EQ(exact.mode, WindowBuildMode::kExact);
  EXPECT_EQ(exact.points, 64);
  EXPECT_EQ(exact.bound_factor, 1.0);
  const OptimalHistogramResult reference = BuildVOptimalHistogram(window, 8);
  EXPECT_EQ(exact.sse, reference.error);
  EXPECT_EQ(exact.histogram.ToString(), reference.histogram.ToString());

  // Approximate mode: sandwiched between OPT and the certified factor.
  ASSERT_TRUE(stream.SetBuildMode(WindowBuildMode::kApprox, 0.1).ok());
  const WindowBuildReport approx = stream.BuildWindowHistogram();
  EXPECT_EQ(approx.mode, WindowBuildMode::kApprox);
  EXPECT_EQ(approx.delta, 0.1);
  EXPECT_GE(approx.sse, reference.error * (1.0 - 1e-9));
  EXPECT_LE(approx.sse,
            approx.bound_factor * reference.error * (1.0 + 1e-9) + 1e-9);

  // Invalid deltas are rejected without changing the mode.
  EXPECT_FALSE(stream.SetBuildMode(WindowBuildMode::kApprox, -1.0).ok());
  EXPECT_FALSE(
      stream
          .SetBuildMode(WindowBuildMode::kApprox,
                        std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_EQ(stream.config().build_mode, WindowBuildMode::kApprox);
  EXPECT_EQ(stream.config().build_delta, 0.1);
}

// Own engine (no fixture): the verb test drives its own stream contents.
TEST(QueryEngineBuildTest, BuildVerb) {
  QueryEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE s 64 8").ok());
  Random rng(4);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.Append("s", rng.UniformDouble(0, 50)).ok());
  }

  // Default build is exact.
  auto built = engine.Execute("BUILD s");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->starts_with("built exact:")) << *built;
  EXPECT_NE(built->find("n=64"), std::string::npos) << *built;

  // ERROR <delta> switches the stream to the approximate DP — sticky, so
  // DESCRIBE and a later plain BUILD reflect it.
  built = engine.Execute("BUILD s ERROR 0.2");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->starts_with("built approx(delta=0.2)")) << *built;
  EXPECT_NE(built->find("certified sse <="), std::string::npos) << *built;
  EXPECT_NE(engine.Execute("DESCRIBE s").value().find("build=approx"),
            std::string::npos);
  EXPECT_TRUE(engine.Execute("BUILD s").value().starts_with("built approx"));

  // EXACT switches back.
  EXPECT_TRUE(engine.Execute("BUILD s EXACT").value().starts_with("built exact"));
  EXPECT_NE(engine.Execute("DESCRIBE s").value().find("build=exact"),
            std::string::npos);

  // Malformed forms are rejected.
  EXPECT_FALSE(engine.Execute("BUILD s ERROR").ok());
  EXPECT_FALSE(engine.Execute("BUILD s ERROR -0.5").ok());
  EXPECT_FALSE(engine.Execute("BUILD s ERROR nope").ok());
  EXPECT_FALSE(engine.Execute("BUILD s APPROX 0.1").ok());
  EXPECT_FALSE(engine.Execute("BUILD missing").ok());

  // An empty stream builds an empty histogram rather than failing.
  ASSERT_TRUE(engine.Execute("CREATE empty 16 4").ok());
  built = engine.Execute("BUILD empty");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_NE(built->find("n=0"), std::string::npos) << *built;
}

// Error paths around the WITHIN clause and the streams a BUILD can target:
// every malformed form returns a Status — never a crash — and valid forms
// compose with the sticky mode arguments.
TEST(QueryEngineBuildTest, BuildWithinAndErrorPaths) {
  QueryEngine engine;
  ASSERT_TRUE(engine.Execute("CREATE s 64 8").ok());
  Random rng(7);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Append("s", rng.UniformDouble(0, 50)).ok());
  }

  // A generous WITHIN budget behaves exactly like no deadline.
  auto built = engine.Execute("BUILD s WITHIN 60000");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->starts_with("built exact:")) << *built;
  EXPECT_EQ(built->find("degraded"), std::string::npos) << *built;

  // WITHIN composes with the sticky mode forms.
  built = engine.Execute("BUILD s ERROR 0.2 WITHIN 60000");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->starts_with("built approx(delta=0.2)")) << *built;
  built = engine.Execute("BUILD s EXACT WITHIN 60000");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->starts_with("built exact:")) << *built;

  // Zero, negative, and non-numeric budgets are rejected cleanly.
  EXPECT_FALSE(engine.Execute("BUILD s WITHIN 0").ok());
  EXPECT_FALSE(engine.Execute("BUILD s WITHIN -5").ok());
  EXPECT_FALSE(engine.Execute("BUILD s WITHIN soon").ok());
  EXPECT_FALSE(engine.Execute("BUILD s EXACT WITHIN 0").ok());
  EXPECT_FALSE(engine.Execute("BUILD s ERROR 0.1 WITHIN -1").ok());
  // WITHIN with no budget token falls through to the usage error.
  EXPECT_FALSE(engine.Execute("BUILD s WITHIN").ok());

  // BUILD on a dropped stream is NotFound, not a crash.
  ASSERT_TRUE(engine.Execute("DROP s").ok());
  const auto gone = engine.Execute("BUILD s");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(engine.Execute("BUILD s WITHIN 100").ok());

  // An expired deadline on a real build still succeeds via the ladder.
  ASSERT_TRUE(engine.Execute("CREATE t 64 8").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Append("t", rng.UniformDouble(0, 50)).ok());
  }
  fault::ScopedFault expire("deadline.expire");
  built = engine.Execute("BUILD t WITHIN 60000");
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_TRUE(built->starts_with("built snapshot(eps=")) << *built;
  EXPECT_NE(built->find("certified sse <="), std::string::npos) << *built;
  EXPECT_NE(built->find("degraded:"), std::string::npos) << *built;
}

TEST(QueryEngineMemoryTest, MemoryVerbReportsGovernorAndStreams) {
  QueryEngine engine;
  auto memory = engine.Execute("MEMORY");
  ASSERT_TRUE(memory.ok()) << memory.status();
  EXPECT_NE(memory->find("budget="), std::string::npos) << *memory;
  EXPECT_NE(memory->find("used="), std::string::npos) << *memory;
  EXPECT_NE(memory->find("peak="), std::string::npos) << *memory;

  ASSERT_TRUE(engine.Execute("CREATE m 64 8").ok());
  memory = engine.Execute("MEMORY");
  ASSERT_TRUE(memory.ok()) << memory.status();
  EXPECT_NE(memory->find("; m="), std::string::npos) << *memory;

  EXPECT_FALSE(engine.Execute("MEMORY now").ok());
}

TEST(QueryEngineMemoryTest, CreateIsRefusedOverBudget) {
  governor::SetBudgetForTest(governor::Used() + 1024);  // far below any stream
  QueryEngine engine;
  const Status refused = engine.CreateStream("big", SmallConfig());
  governor::SetBudgetForTest(0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("memory budget"), std::string::npos);
  EXPECT_TRUE(engine.ListStreams().empty());

  // With the budget lifted the same CREATE succeeds.
  EXPECT_TRUE(engine.CreateStream("big", SmallConfig()).ok());
}

TEST(QueryEngineMemoryTest, OomFaultRefusesCreateVerb) {
  QueryEngine engine;
  {
    fault::ScopedFault oom("governor.oom");
    const auto refused = engine.Execute("CREATE s 64 8");
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(engine.Execute("CREATE s 64 8").ok());
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.CreateStream("eth0", SmallConfig()).ok());
    // Deterministic contents: window ends holding 436..499.
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(engine_.Append("eth0", static_cast<double>(i)).ok());
    }
  }

  QueryEngine engine_;
};

TEST_F(QueryEngineTest, StreamLifecycle) {
  EXPECT_FALSE(engine_.CreateStream("eth0", SmallConfig()).ok());  // dup
  EXPECT_TRUE(engine_.CreateStream("eth1", SmallConfig()).ok());
  EXPECT_EQ(engine_.ListStreams(),
            (std::vector<std::string>{"eth0", "eth1"}));
  EXPECT_TRUE(engine_.DropStream("eth1").ok());
  EXPECT_FALSE(engine_.DropStream("eth1").ok());
  EXPECT_FALSE(engine_.Append("missing", 1.0).ok());
}

TEST_F(QueryEngineTest, CountAndList) {
  EXPECT_EQ(engine_.Execute("COUNT eth0").value(), "500");
  EXPECT_EQ(engine_.Execute("LIST").value(), "eth0");
}

TEST_F(QueryEngineTest, SumOverWindowIsNearExact) {
  // Window holds 436..499: sum = (436+499)*64/2 = 29920.
  const double sum = std::stod(engine_.Execute("SUM eth0 0 64").value());
  EXPECT_NEAR(sum, 29920.0, 0.02 * 29920.0);
}

TEST_F(QueryEngineTest, SumLastKEqualsTailRange) {
  const double last = std::stod(engine_.Execute("SUM eth0 LAST 10").value());
  const double tail = std::stod(engine_.Execute("SUM eth0 54 64").value());
  EXPECT_DOUBLE_EQ(last, tail);
}

TEST_F(QueryEngineTest, AvgIsSumOverWidth) {
  const double sum = std::stod(engine_.Execute("SUM eth0 0 32").value());
  const double avg = std::stod(engine_.Execute("AVG eth0 0 32").value());
  EXPECT_NEAR(avg, sum / 32.0, 1e-9);
}

TEST_F(QueryEngineTest, PointEstimateTracksData) {
  const double p = std::stod(engine_.Execute("POINT eth0 63").value());
  EXPECT_NEAR(p, 499.0, 10.0);  // bucket mean near the newest value
}

TEST_F(QueryEngineTest, QuantileAnswersFromGK) {
  // Values 0..499 uniform: median ~250.
  const double median =
      std::stod(engine_.Execute("QUANTILE eth0 0.5").value());
  EXPECT_NEAR(median, 250.0, 15.0);
}

TEST_F(QueryEngineTest, DistinctEstimate) {
  const double d = std::stod(engine_.Execute("DISTINCT eth0").value());
  EXPECT_NEAR(d, 500.0, 200.0);
}

TEST_F(QueryEngineTest, ErrorDescribeShow) {
  EXPECT_GE(std::stod(engine_.Execute("ERROR eth0").value()), 0.0);
  EXPECT_NE(engine_.Execute("DESCRIBE eth0").value().find("points seen"),
            std::string::npos);
  EXPECT_NE(engine_.Execute("SHOW eth0").value().find("[0,"),
            std::string::npos);
}

TEST_F(QueryEngineTest, StatsVerbCountsPerStreamExecutions) {
  ASSERT_TRUE(engine_.Execute("SUM eth0 0 10").ok());
  ASSERT_TRUE(engine_.Execute("SUM eth0 0 20").ok());
  ASSERT_TRUE(engine_.Execute("COUNT eth0").ok());
  EXPECT_FALSE(engine_.Execute("SUM eth0 10 5").ok());  // counted as an error

  const std::string stats = engine_.Execute("STATS eth0").value();
  EXPECT_NE(stats.find("SUM count=3 errors=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("COUNT count=1 errors=0"), std::string::npos) << stats;
  // Verbs never executed are not listed.
  EXPECT_EQ(stats.find("QUANTILE"), std::string::npos) << stats;
}

TEST_F(QueryEngineTest, StatsNoArgCoversEngineAndEveryStream) {
  ASSERT_TRUE(engine_.Execute("LIST").ok());
  ASSERT_TRUE(engine_.Execute("COUNT eth0").ok());
  const std::string stats = engine_.Execute("STATS").value();
  EXPECT_NE(stats.find("engine:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("LIST count=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("stream eth0:"), std::string::npos) << stats;
  EXPECT_NE(stats.find("COUNT count=1"), std::string::npos) << stats;
  // The C++ API records engine-scoped counters too.
  EXPECT_EQ(engine_.engine_stats().Read(QueryVerb::kList).count, 1);
}

TEST_F(QueryEngineTest, StatsVerbLatencyHistogramAndErrors) {
  ASSERT_TRUE(engine_.Execute("SUM eth0 0 10").ok());
  // A latency histogram rendered through core/histogram.
  const std::string histogram = engine_.Execute("STATS eth0 SUM").value();
  EXPECT_NE(histogram.find("[0,"), std::string::npos) << histogram;
  // Unused verb: explicit fallback, not an error.
  EXPECT_EQ(engine_.Execute("STATS eth0 QUANTILE").value(),
            "no statistics recorded for 'eth0' QUANTILE");
  EXPECT_EQ(engine_.Execute("STATS eth0").value().find("no statistics"),
            std::string::npos);
  // Bad arguments are errors.
  EXPECT_FALSE(engine_.Execute("STATS eth0 FROBNICATE").ok());
  EXPECT_FALSE(engine_.Execute("STATS nosuch").ok());
  EXPECT_FALSE(engine_.Execute("STATS eth0 SUM extra").ok());
  // WAL, FLUSH and PROMOTE are verbs like any other: counted engine-wide.
  EXPECT_TRUE(engine_.Execute("FLUSH").ok());
  EXPECT_FALSE(engine_.Execute("WAL").ok());      // no WAL is open
  EXPECT_FALSE(engine_.Execute("PROMOTE").ok());  // not a replica
  const QueryStats& engine_stats = engine_.engine_stats();
  EXPECT_EQ(engine_stats.Read(QueryVerb::kFlush).count, 1);
  EXPECT_EQ(engine_stats.Read(QueryVerb::kFlush).errors, 0);
  EXPECT_EQ(engine_stats.Read(QueryVerb::kWal).count, 1);
  EXPECT_EQ(engine_stats.Read(QueryVerb::kWal).errors, 1);
  EXPECT_EQ(engine_stats.Read(QueryVerb::kPromote).count, 1);
  EXPECT_EQ(engine_stats.Read(QueryVerb::kPromote).errors, 1);
  const std::string stats = engine_.Execute("STATS").value();
  const size_t engine_at = stats.find("engine:");
  const size_t streams_at = stats.find("\nstream ");
  ASSERT_NE(engine_at, std::string::npos) << stats;
  for (const char* line : {"\nFLUSH count=1 errors=0", "\nWAL count=1 errors=1",
                           "\nPROMOTE count=1 errors=1"}) {
    const size_t at = stats.find(line);
    EXPECT_GT(at, engine_at) << line << '\n' << stats;
    EXPECT_LT(at, streams_at) << line << '\n' << stats;
  }
}

TEST_F(QueryEngineTest, ParserErrors) {
  EXPECT_FALSE(engine_.Execute("").ok());
  EXPECT_FALSE(engine_.Execute("FROBNICATE eth0").ok());
  EXPECT_FALSE(engine_.Execute("SUM").ok());
  EXPECT_FALSE(engine_.Execute("SUM nosuch 0 10").ok());
  EXPECT_FALSE(engine_.Execute("SUM eth0 0").ok());
  EXPECT_FALSE(engine_.Execute("SUM eth0 ten twenty").ok());
  EXPECT_FALSE(engine_.Execute("SUM eth0 10 5").ok());
  EXPECT_FALSE(engine_.Execute("SUM eth0 0 9999").ok());
  EXPECT_FALSE(engine_.Execute("SUM eth0 LAST 0").ok());
  EXPECT_FALSE(engine_.Execute("POINT eth0 64").ok());
  EXPECT_FALSE(engine_.Execute("QUANTILE eth0 1.5").ok());
  EXPECT_FALSE(engine_.Execute("AVG eth0 5 5").ok());
}

TEST_F(QueryEngineTest, SumBoundReturnsCertifiedInterval) {
  const auto result = engine_.Execute("SUMBOUND eth0 10 50");
  ASSERT_TRUE(result.ok()) << result.status();
  // "estimate +- bound"
  const std::string text = result.value();
  const size_t sep = text.find(" +- ");
  ASSERT_NE(sep, std::string::npos) << text;
  const double estimate = std::stod(text.substr(0, sep));
  const double bound = std::stod(text.substr(sep + 4));
  EXPECT_GE(bound, 0.0);
  // Ground truth: window holds 436..499, so sum[10,50) = sum 446..485.
  double truth = 0.0;
  for (int v = 446; v < 486; ++v) truth += v;
  EXPECT_LE(std::fabs(estimate - truth), bound + 1e-6);

  // AVGBOUND is the scaled version.
  const auto avg = engine_.Execute("AVGBOUND eth0 10 50");
  ASSERT_TRUE(avg.ok());
  EXPECT_FALSE(engine_.Execute("SUMBOUND eth0 5 5").ok());
}

TEST_F(QueryEngineTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(engine_.Execute("sum eth0 last 5").ok());
  EXPECT_TRUE(engine_.Execute("Describe eth0").ok());
}

TEST_F(QueryEngineTest, DisabledSynopsesReportFailedPrecondition) {
  StreamConfig config = SmallConfig();
  config.keep_quantiles = false;
  config.keep_distinct = false;
  ASSERT_TRUE(engine_.CreateStream("bare", config).ok());
  ASSERT_TRUE(engine_.Append("bare", 1.0).ok());
  EXPECT_EQ(engine_.Execute("QUANTILE bare 0.5").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine_.Execute("DISTINCT bare").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(QueryEngineAccuracyTest, WindowSumsTrackExactAnswers) {
  QueryEngine engine;
  StreamConfig config;
  config.window_size = 256;
  config.num_buckets = 16;
  config.epsilon = 0.1;
  ASSERT_TRUE(engine.CreateStream("s", config).ok());

  const std::vector<double> stream =
      GenerateDataset(DatasetKind::kUtilization, 4000, 3);
  ASSERT_TRUE(engine.AppendBatch("s", stream).ok());

  const std::vector<double> window(stream.end() - 256, stream.end());
  ExactEstimator exact(window);
  Random rng(9);
  for (int q = 0; q < 50; ++q) {
    const int64_t lo = rng.UniformInt(0, 255);
    const int64_t hi = rng.UniformInt(lo + 1, 256);
    std::ostringstream stmt;
    stmt << "SUM s " << lo << " " << hi;
    const double approx = std::stod(engine.Execute(stmt.str()).value());
    const double truth = exact.RangeSum(lo, hi);
    EXPECT_NEAR(approx, truth, std::max(50.0, 0.1 * std::fabs(truth)));
  }
}

}  // namespace
}  // namespace streamhist
