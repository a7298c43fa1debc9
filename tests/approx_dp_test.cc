// Property suite for the (1+delta)-approximate V-optimal DP
// (core/approx_dp.h): the sandwich bound
//
//   exact_sse <= approx_sse <= (1+delta)^(B-1) * exact_sse
//
// over random / Zipfian / sorted inputs across an (n, B, delta) grid,
// delta -> 0 convergence to the exact DP, realized-SSE consistency with the
// returned histogram, and the generic (virtual) cost-function path.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/approx_dp.h"
#include "src/core/bucket_cost.h"
#include "src/core/error_bounds.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

// Relative slack for comparisons between independently-computed long-double
// accumulations (exact DP vs approximate DP vs SseAgainst).
constexpr double kRelTol = 1e-9;

std::vector<double> MakeInput(const std::string& shape, int64_t n,
                              uint64_t seed) {
  if (shape == "zipf") {
    return GenerateZipfValues(n, /*domain=*/1000, /*skew=*/1.2, seed);
  }
  Random rng(seed);
  std::vector<double> data;
  data.reserve(static_cast<size_t>(n));
  if (shape == "sorted") {
    // Strictly increasing with random gaps: a monotone stress case with no
    // duplicate values (so DP tie-breaks are unambiguous).
    double v = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      v += rng.UniformDouble(0.01, 3.0);
      data.push_back(v);
    }
    return data;
  }
  for (int64_t i = 0; i < n; ++i) data.push_back(rng.UniformDouble(0, 1000));
  return data;
}

std::vector<int64_t> Boundaries(const Histogram& h) {
  std::vector<int64_t> b;
  b.push_back(0);
  for (const Bucket& bucket : h.buckets()) b.push_back(bucket.end);
  return b;
}

TEST(ApproxDpTest, SandwichBoundHoldsOnGrid) {
  const std::string shapes[] = {"random", "zipf", "sorted"};
#ifdef NDEBUG
  const int64_t sizes[] = {64, 500, 1500};
#else
  const int64_t sizes[] = {64, 300};
#endif
  const int64_t bucket_counts[] = {4, 16, 64};
  const double deltas[] = {0.01, 0.1, 0.5, 1.0};
  for (const std::string& shape : shapes) {
    for (const int64_t n : sizes) {
      const std::vector<double> data = MakeInput(shape, n, /*seed=*/7 + n);
      for (const int64_t buckets : bucket_counts) {
        const double exact = OptimalSse(data, buckets);
        for (const double delta : deltas) {
          SCOPED_TRACE(shape + " n=" + std::to_string(n) +
                       " B=" + std::to_string(buckets) +
                       " delta=" + std::to_string(delta));
          const ApproxHistogramResult approx =
              BuildApproxVOptimalHistogram(data, buckets, delta);
          const double bound =
              ApproxDpBoundFactor(std::min(buckets, n), delta);
          EXPECT_EQ(approx.bound_factor, bound);
          // Lower half of the sandwich: never better than optimal.
          EXPECT_GE(approx.sse, exact * (1.0 - kRelTol));
          // Upper half: the certified factor (plus float slack; the 1e-6
          // absolute term covers exact == 0, where the bound forces the
          // approximate SSE to zero as well).
          EXPECT_LE(approx.sse, bound * exact * (1.0 + kRelTol) + 1e-6);
          // The realized SSE never exceeds the DP's internal objective.
          EXPECT_LE(approx.sse, approx.dp_error * (1.0 + kRelTol) + 1e-9);
          // The reported SSE is the histogram's actual error.
          EXPECT_NEAR(approx.histogram.SseAgainst(data), approx.sse,
                      kRelTol * (1.0 + approx.sse));
          // Structural sanity: a real histogram over the full domain.
          EXPECT_EQ(approx.histogram.domain_size(), n);
          EXPECT_LE(approx.histogram.num_buckets(), buckets);
          EXPECT_GT(approx.cost_evals, 0);
        }
      }
    }
  }
}

TEST(ApproxDpTest, DeltaZeroMatchesExactDp) {
  // delta == 0 collapses each cover interval to one run of equal HERROR
  // values, whose right endpoint dominates the run (same layer error,
  // smaller bucket cost) — so the DP value equals the exact optimum, and
  // with all-distinct inputs the boundaries match too.
  for (const std::string& shape : {std::string("random"), std::string("sorted")}) {
    for (const int64_t n : {32L, 257L, 900L}) {
      for (const int64_t buckets : {3L, 8L, 24L}) {
        SCOPED_TRACE(shape + " n=" + std::to_string(n) +
                     " B=" + std::to_string(buckets));
        const std::vector<double> data = MakeInput(shape, n, /*seed=*/n + 1);
        const OptimalHistogramResult exact =
            BuildVOptimalHistogram(data, buckets);
        const ApproxHistogramResult approx =
            BuildApproxVOptimalHistogram(data, buckets, 0.0);
        EXPECT_EQ(approx.bound_factor, 1.0);
        EXPECT_NEAR(approx.sse, exact.error, kRelTol * (1.0 + exact.error));
        EXPECT_EQ(Boundaries(approx.histogram), Boundaries(exact.histogram));
      }
    }
  }
}

TEST(ApproxDpTest, TighterDeltaConvergesAndLooserDeltaPrunesMore) {
  const std::vector<double> data = MakeInput("random", 1200, /*seed=*/99);
  const int64_t buckets = 24;
  const double exact = OptimalSse(data, buckets);
  ASSERT_GT(exact, 0.0);
  const ApproxHistogramResult tight =
      BuildApproxVOptimalHistogram(data, buckets, 0.01);
  const ApproxHistogramResult loose =
      BuildApproxVOptimalHistogram(data, buckets, 1.0);
  // Small delta is nearly exact in realized terms (far inside its bound).
  EXPECT_LE(tight.sse / exact, 1.05);
  // Looser delta inspects strictly fewer candidates — the point of pruning.
  EXPECT_LT(loose.cost_evals, tight.cost_evals);
  EXPECT_LE(loose.max_cover_size, tight.max_cover_size);
}

TEST(ApproxDpTest, PruningEvaluatesUnderATenthOfTheExactDpCosts) {
  // The exact DP evaluates every (i, j) bucket cost once per layer after the
  // first: (B-1) * n(n-1)/2 of them. The interval cover is what makes the
  // approximate DP fast; at this cell it inspects about 53x fewer.
  constexpr int64_t n = 10000;
  constexpr int64_t buckets = 16;
  const std::vector<double> data =
      GenerateDataset(DatasetKind::kUtilization, n, /*seed=*/7);
  const ApproxHistogramResult approx =
      BuildApproxVOptimalHistogram(data, buckets, 0.1);
  const int64_t exact_evals = (buckets - 1) * n * (n - 1) / 2;
  EXPECT_GT(approx.cost_evals, 0);
  EXPECT_LE(approx.cost_evals, exact_evals / 10);
}

TEST(ApproxDpTest, GenericVirtualCostPathHonorsTheBound) {
  // The virtual-dispatch entry point with non-SSE cost families: the bound
  // argument only needs cost monotonicity under bucket shrinking, which
  // max-abs and SAE both satisfy.
  const std::vector<double> data = MakeInput("zipf", 220, /*seed=*/3);
  const int64_t buckets = 8;
  const double delta = 0.2;
  const double bound = ApproxDpBoundFactor(buckets, delta);

  const MaxAbsBucketCost max_abs(data);
  const double exact_max = BuildOptimalHistogram(max_abs, buckets).error;
  const ApproxHistogramResult approx_max =
      BuildApproxHistogram(max_abs, buckets, delta);
  EXPECT_GE(approx_max.sse, exact_max * (1.0 - kRelTol));
  EXPECT_LE(approx_max.sse, bound * exact_max * (1.0 + kRelTol) + 1e-6);

  const SaeBucketCost sae(data);
  const double exact_sae = BuildOptimalHistogram(sae, buckets).error;
  const ApproxHistogramResult approx_sae =
      BuildApproxHistogram(sae, buckets, delta);
  EXPECT_GE(approx_sae.sse, exact_sae * (1.0 - kRelTol));
  EXPECT_LE(approx_sae.sse, bound * exact_sae * (1.0 + kRelTol) + 1e-6);
}

TEST(ApproxDpTest, SseVirtualEntryPointMatchesFlatWrapper) {
  // BuildApproxHistogram(SseBucketCost) routes to the same devirtualized
  // inner loop as BuildApproxVOptimalHistogram — identical output bits.
  const std::vector<double> data = MakeInput("random", 700, /*seed=*/17);
  const SseBucketCost cost(data);
  const ApproxHistogramResult via_virtual =
      BuildApproxHistogram(cost, 16, 0.1);
  const ApproxHistogramResult via_span =
      BuildApproxVOptimalHistogram(data, 16, 0.1);
  EXPECT_EQ(Boundaries(via_virtual.histogram),
            Boundaries(via_span.histogram));
  EXPECT_EQ(via_virtual.sse, via_span.sse);
  EXPECT_EQ(via_virtual.dp_error, via_span.dp_error);
  EXPECT_EQ(via_virtual.cost_evals, via_span.cost_evals);
}

TEST(ApproxDpTest, EdgeCases) {
  // Empty input.
  const ApproxHistogramResult empty =
      BuildApproxVOptimalHistogram({}, 4, 0.1);
  EXPECT_EQ(empty.histogram.num_buckets(), 0);
  EXPECT_EQ(empty.sse, 0.0);
  EXPECT_EQ(empty.bound_factor, 1.0);

  // Single point.
  const std::vector<double> one{42.0};
  const ApproxHistogramResult single =
      BuildApproxVOptimalHistogram(one, 4, 0.1);
  EXPECT_EQ(single.histogram.num_buckets(), 1);
  EXPECT_EQ(single.sse, 0.0);

  // Fewer points than buckets: singletons, zero error.
  const std::vector<double> few{5.0, -1.0, 9.0};
  const ApproxHistogramResult singletons =
      BuildApproxVOptimalHistogram(few, 16, 0.5);
  EXPECT_EQ(singletons.histogram.num_buckets(), 3);
  EXPECT_EQ(singletons.sse, 0.0);

  // One bucket: no approximation possible, factor (1+delta)^0 == 1.
  const std::vector<double> data = MakeInput("random", 300, /*seed=*/5);
  const ApproxHistogramResult single_bucket =
      BuildApproxVOptimalHistogram(data, 1, 0.5);
  EXPECT_EQ(single_bucket.bound_factor, 1.0);
  EXPECT_NEAR(single_bucket.sse, OptimalSse(data, 1),
              kRelTol * (1.0 + single_bucket.sse));
}

}  // namespace
}  // namespace streamhist
