// Randomized cross-validation of invariants that cut across modules —
// fuzz-flavored checks that no single-module test covers.

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/agglomerative.h"
#include "src/core/fixed_window.h"
#include "src/core/histogram_io.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

// The strongest agglomerative property: the guarantee holds at *every*
// prefix of the stream, not just the end.
TEST(InvariantsTest, AgglomerativeGuaranteeHoldsAtEveryPrefix) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Random rng(seed);
    const int64_t n = 60;
    const int64_t buckets = 4;
    const double epsilon = 0.25;
    ApproxHistogramOptions options;
    options.num_buckets = buckets;
    options.epsilon = epsilon;
    AgglomerativeHistogram agg =
        AgglomerativeHistogram::Create(options).value();
    std::vector<double> prefix;
    for (int64_t i = 0; i < n; ++i) {
      const double v = rng.UniformInt(0, 40);
      agg.Append(v);
      prefix.push_back(v);
      const double opt = OptimalSse(prefix, buckets);
      const double approx = agg.Extract().SseAgainst(prefix);
      ASSERT_LE(approx, (1 + epsilon) * opt + 1e-9)
          << "seed " << seed << " prefix " << i + 1;
      ASSERT_GE(approx + 1e-9, opt);
    }
  }
}

// The fixed-window histogram's streamed error must equal the SSE of its own
// extracted histogram, under both cost metrics, at random checkpoints.
TEST(InvariantsTest, StreamedErrorMatchesExtractedCost) {
  for (WindowErrorMetric metric :
       {WindowErrorMetric::kSse, WindowErrorMetric::kMaxAbs}) {
    FixedWindowOptions options;
    options.window_size = 48;
    options.num_buckets = 5;
    options.epsilon = 0.3;
    options.rebuild_on_append = false;
    options.metric = metric;
    FixedWindowHistogram fw = FixedWindowHistogram::Create(options).value();
    Random rng(7);
    for (int i = 0; i < 150; ++i) {
      fw.Append(rng.UniformInt(0, 30));
      if (i % 17 != 0) continue;
      const std::vector<double> window = fw.window().ToVector();
      const Histogram& h = fw.Extract();
      double cost = 0.0;
      if (metric == WindowErrorMetric::kSse) {
        cost = h.SseAgainst(window);
      } else {
        for (const Bucket& b : h.buckets()) {
          double worst = 0.0;
          for (int64_t t = b.begin; t < b.end; ++t) {
            worst = std::max(worst,
                             std::fabs(window[static_cast<size_t>(t)] -
                                       b.value));
          }
          cost += worst;
        }
      }
      EXPECT_NEAR(fw.ApproxError(), cost, 1e-6 * (1.0 + cost))
          << "metric " << static_cast<int>(metric) << " step " << i;
    }
  }
}

// Serialization fuzz: arbitrary corruption must never crash — every input
// either round-trips to a structurally valid histogram or yields an error.
TEST(InvariantsTest, DeserializeNeverCrashesOnCorruptedBytes) {
  const std::vector<double> data =
      GenerateDataset(DatasetKind::kRandomWalk, 200, 1);
  const std::string bytes =
      SerializeHistogram(BuildVOptimalHistogram(data, 10).histogram);
  Random rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupted = bytes;
    // Random byte flips and truncations.
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                    corrupted.size()) - 1));
      corrupted[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (rng.Bernoulli(0.3)) {
      corrupted.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(corrupted.size()))));
    }
    auto result = DeserializeHistogram(corrupted);
    if (result.ok()) {
      EXPECT_TRUE(result.value().Validate().ok());
    }
  }
}

// Estimation identities every histogram must satisfy, checked on every
// builder output over random data.
TEST(InvariantsTest, HistogramEstimationIdentities) {
  Random rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> data;
    const int64_t n = rng.UniformInt(1, 120);
    for (int64_t i = 0; i < n; ++i) data.push_back(rng.Gaussian(0, 100));
    const int64_t b = rng.UniformInt(1, 12);
    const Histogram h = BuildVOptimalHistogram(data, b).histogram;

    // Range sums are additive and consistent with point estimates.
    const int64_t mid = rng.UniformInt(0, n);
    EXPECT_NEAR(h.RangeSum(0, mid) + h.RangeSum(mid, n), h.RangeSum(0, n),
                1e-7);
    double point_total = 0.0;
    for (int64_t i = 0; i < n; ++i) point_total += h.Estimate(i);
    EXPECT_NEAR(point_total, h.RangeSum(0, n), 1e-6);

    // Mean preservation: bucket means make the total estimated sum equal the
    // exact data sum.
    double exact_total = 0.0;
    for (double v : data) exact_total += v;
    EXPECT_NEAR(h.RangeSum(0, n), exact_total, 1e-6 * (1 + std::fabs(exact_total)));
  }
}

// The fixed window and the DP must agree exactly when eps is huge and B = 1
// (single bucket: both compute the same prefix error), and when B >= n
// (both exact).
TEST(InvariantsTest, DegenerateBucketCountsAgreeWithDp) {
  Random rng(23);
  std::vector<double> data;
  for (int i = 0; i < 40; ++i) data.push_back(rng.UniformInt(0, 99));

  for (int64_t buckets : {int64_t{1}, int64_t{64}}) {
    FixedWindowOptions options;
    options.window_size = 40;
    options.num_buckets = buckets;
    options.epsilon = 5.0;
    options.rebuild_on_append = false;
    FixedWindowHistogram fw = FixedWindowHistogram::Create(options).value();
    for (double v : data) fw.Append(v);
    EXPECT_NEAR(fw.ApproxError(), OptimalSse(data, buckets), 1e-7)
        << "B=" << buckets;
  }
}

}  // namespace
}  // namespace streamhist
