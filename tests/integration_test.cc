// End-to-end pipelines mirroring the paper's three application scenarios:
// approximate queries on a sliding-window stream (section 5.1), approximate
// warehouse querying, and similarity search (section 5.2).

#include <memory>
#include <vector>

#include <gtest/gtest.h>

// The umbrella header is compiled here (only here) so it provably stays
// self-contained and exports the full public API.
#include "src/streamhist.h"

namespace streamhist {
namespace {

TEST(IntegrationTest, StreamingRangeSumsStayAccurate) {
  // Stream a utilization trace through a fixed-window histogram; at several
  // checkpoints, random range-sum queries answered from the histogram must
  // track the exact answers, and must beat an equal-budget wavelet synopsis
  // rebuilt from scratch (the paper's Figure 6 comparison in miniature).
  const int64_t window = 256;
  const int64_t buckets = 16;
  const std::vector<double> stream =
      GenerateDataset(DatasetKind::kUtilization, 2048, 7);

  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = 0.1;
  options.rebuild_on_append = false;
  FixedWindowHistogram fw = FixedWindowHistogram::Create(options).value();

  Random rng(3);
  double hist_err_total = 0.0;
  double wave_err_total = 0.0;
  int checkpoints = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    fw.Append(stream[i]);
    if (!fw.window().full() || i % 97 != 0) continue;
    const std::vector<double> snapshot = fw.window().ToVector();
    ExactEstimator exact(snapshot);
    const Histogram& h = fw.Extract();
    HistogramEstimator hist(&h);
    // Equal space budget: a bucket stores (boundary, value), a wavelet
    // coefficient stores (index, value) -> B coefficients.
    const WaveletSynopsis w = WaveletSynopsis::Build(snapshot, buckets);
    WaveletEstimator wave(&w);

    const auto queries = GenerateUniformRangeQueries(window, 200, rng);
    const AccuracyReport hist_report = EvaluateRangeSums(exact, hist, queries);
    const AccuracyReport wave_report = EvaluateRangeSums(exact, wave, queries);
    hist_err_total += hist_report.mean_absolute_error;
    wave_err_total += wave_report.mean_absolute_error;
    ++checkpoints;

    // Average query sums are ~window/2 * ~20000; histogram error must be a
    // tiny fraction of that.
    const double typical_sum = exact.RangeSum(0, window) / 2.0;
    EXPECT_LT(hist_report.mean_absolute_error, 0.05 * typical_sum);
  }
  ASSERT_GT(checkpoints, 5);
  // Headline result: the histogram beats the wavelet baseline on average.
  EXPECT_LT(hist_err_total, wave_err_total);
}

TEST(IntegrationTest, WarehousePipelineAgglomerativeVsOptimal) {
  // One-pass agglomerative construction must be accuracy-competitive with
  // the optimal DP on a stored dataset (the paper's warehouse experiment).
  const std::vector<double> data =
      GenerateDataset(DatasetKind::kUtilization, 1500, 21);
  const int64_t buckets = 24;

  ApproxHistogramOptions options;
  options.num_buckets = buckets;
  options.epsilon = 0.1;
  AgglomerativeHistogram agg = AgglomerativeHistogram::Create(options).value();
  for (double v : data) agg.Append(v);
  const Histogram approx = agg.Extract();
  const Histogram optimal = BuildVOptimalHistogram(data, buckets).histogram;

  ExactEstimator exact(data);
  HistogramEstimator approx_est(&approx);
  HistogramEstimator optimal_est(&optimal);
  Random rng(5);
  const auto queries =
      GenerateUniformRangeQueries(static_cast<int64_t>(data.size()), 500, rng);
  const double approx_mae =
      EvaluateRangeSums(exact, approx_est, queries).mean_absolute_error;
  const double optimal_mae =
      EvaluateRangeSums(exact, optimal_est, queries).mean_absolute_error;
  // "Comparable in accuracy": within a small constant factor, never wildly
  // off. (Query error is not the SSE objective, so allow generous slack.)
  EXPECT_LT(approx_mae, 3.0 * optimal_mae + 1e-6);
}

TEST(IntegrationTest, SubsequenceSimilarityPipeline) {
  // Subsequence matching over a long stream: extract sliding windows, index
  // them with histogram representations, and verify filter-and-refine
  // returns exactly the brute-force answers.
  const std::vector<double> series =
      GenerateDataset(DatasetKind::kSineMix, 600, 31);
  const auto windows = ExtractSubsequences(series, 64, 16);
  ASSERT_GT(windows.size(), 10u);

  SimilarityIndex index(windows, 6, MakeFixedWindowBuilder(0.2));
  const std::vector<double>& query = windows[windows.size() / 2];

  SearchStats stats;
  const auto matches = index.RangeSearch(query, 1000.0, &stats);
  // The query window itself must be returned at distance 0.
  ASSERT_FALSE(matches.empty());
  EXPECT_DOUBLE_EQ(matches[0].distance, 0.0);
  EXPECT_EQ(stats.candidates, stats.answers + stats.false_positives);

  // kNN must agree with brute force.
  const auto knn = index.KnnSearch(query, 3, &stats);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_DOUBLE_EQ(knn[0].distance, 0.0);
}

TEST(IntegrationTest, AgglomerativeAndFixedWindowAgreeOnFullWindow) {
  // When the fixed window covers the whole (short) stream, both algorithms
  // solve the same problem; their errors should both be within (1+eps) of
  // optimal and hence within (1+eps) of each other.
  const std::vector<double> data =
      GenerateDataset(DatasetKind::kRandomWalk, 200, 17);
  const int64_t buckets = 6;
  const double epsilon = 0.1;

  ApproxHistogramOptions aopt;
  aopt.num_buckets = buckets;
  aopt.epsilon = epsilon;
  AgglomerativeHistogram agg = AgglomerativeHistogram::Create(aopt).value();

  FixedWindowOptions fopt;
  fopt.window_size = 200;
  fopt.num_buckets = buckets;
  fopt.epsilon = epsilon;
  fopt.rebuild_on_append = false;
  FixedWindowHistogram fw = FixedWindowHistogram::Create(fopt).value();

  for (double v : data) {
    agg.Append(v);
    fw.Append(v);
  }
  const double opt = OptimalSse(data, buckets);
  const double agg_sse = agg.Extract().SseAgainst(data);
  const double fw_sse = fw.Extract().SseAgainst(data);
  EXPECT_LE(agg_sse, (1 + epsilon) * opt + 1e-6);
  EXPECT_LE(fw_sse, (1 + epsilon) * opt + 1e-6);
}

}  // namespace
}  // namespace streamhist
