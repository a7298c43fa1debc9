#include "src/core/fixed_window.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/bucket_cost.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/util/random.h"

namespace streamhist {
namespace {

FixedWindowHistogram MakeFw(int64_t window, int64_t buckets, double epsilon,
                            bool rebuild_on_append = true) {
  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  options.rebuild_on_append = rebuild_on_append;
  return FixedWindowHistogram::Create(options).value();
}

TEST(FixedWindowTest, CreateValidatesOptions) {
  FixedWindowOptions bad;
  bad.window_size = 0;
  EXPECT_FALSE(FixedWindowHistogram::Create(bad).ok());
  bad.window_size = 8;
  bad.num_buckets = 0;
  EXPECT_FALSE(FixedWindowHistogram::Create(bad).ok());
  bad.num_buckets = 2;
  bad.epsilon = 0.0;
  EXPECT_FALSE(FixedWindowHistogram::Create(bad).ok());
  bad.epsilon = 0.5;
  EXPECT_TRUE(FixedWindowHistogram::Create(bad).ok());
}

TEST(FixedWindowTest, EmptyWindowExtractsEmptyHistogram) {
  FixedWindowHistogram fw = MakeFw(8, 2, 1.0);
  EXPECT_EQ(fw.Extract().num_buckets(), 0);
  EXPECT_DOUBLE_EQ(fw.ApproxError(), 0.0);
}

// The paper's Example 1, first phase: stream 100,0,0,0,1,1,1,1 with eps such
// that delta = 1 and B = 2. The level-1 interval list should be
// (1,1),(2,8) in the paper's 1-based notation — i.e. endpoints {1, 8} in
// prefix lengths — because HERROR[1,1] = 0 and all of [2..8] stays within a
// factor (1+1) of HERROR[2,1].
TEST(FixedWindowTest, PaperExampleOneInitialWindow) {
  // delta = eps/(2B) = 1  =>  eps = 4 with B = 2.
  FixedWindowHistogram fw = MakeFw(8, 2, 4.0);
  for (double v : {100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0}) fw.Append(v);

  // Optimal split: {100} | {0,0,0,1,1,1,1}; SSE = 12/7.
  const double opt = 3 * (4.0 / 7) * (4.0 / 7) + 4 * (3.0 / 7) * (3.0 / 7);
  EXPECT_LE(fw.ApproxError(), (1 + 4.0) * opt + 1e-9);
  // With HERROR[1,1]=0 the first interval is exactly the prefix {100}, so the
  // approximate solution actually equals the optimum here.
  EXPECT_NEAR(fw.ApproxError(), opt, 1e-9);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 2);
  EXPECT_EQ(h.buckets()[0].end, 1);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 100.0);
}

// The paper's Example 1, after the slide: 100 is evicted and another 1
// appended, giving window 0,0,0,1,1,1,1,1. The level-1 endpoints become
// {3, 6, 8} (prefix lengths) and the optimal solution (1,3),(4,8) in the
// paper's notation — buckets [0,3) and [3,8) here — is found with zero error.
TEST(FixedWindowTest, PaperExampleOneAfterSlide) {
  FixedWindowHistogram fw = MakeFw(8, 2, 4.0);
  for (double v : {100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0}) fw.Append(v);
  fw.Append(1.0);  // evicts 100

  EXPECT_NEAR(fw.ApproxError(), 0.0, 1e-9);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 2);
  EXPECT_EQ(h.buckets()[0].begin, 0);
  EXPECT_EQ(h.buckets()[0].end, 3);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 0.0);
  EXPECT_EQ(h.buckets()[1].end, 8);
  EXPECT_DOUBLE_EQ(h.buckets()[1].value, 1.0);
}

TEST(FixedWindowTest, ExtractCoversWindowAndValidates) {
  FixedWindowHistogram fw = MakeFw(16, 4, 0.5);
  Random rng(3);
  for (int i = 0; i < 40; ++i) {
    fw.Append(rng.UniformInt(0, 100));
    const Histogram& h = fw.Extract();
    EXPECT_TRUE(h.Validate().ok());
    EXPECT_EQ(h.domain_size(), fw.window().size());
    EXPECT_LE(h.num_buckets(), 4);
  }
}

TEST(FixedWindowTest, LazyRebuildMatchesEagerRebuild) {
  FixedWindowHistogram eager = MakeFw(32, 3, 0.2, /*rebuild_on_append=*/true);
  FixedWindowHistogram lazy = MakeFw(32, 3, 0.2, /*rebuild_on_append=*/false);
  Random rng(9);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Gaussian(10, 5);
    eager.Append(v);
    lazy.Append(v);
  }
  EXPECT_DOUBLE_EQ(eager.ApproxError(), lazy.ApproxError());
  EXPECT_EQ(eager.Extract(), lazy.Extract());
}

TEST(FixedWindowTest, ApproxErrorMatchesExtractedHistogramSse) {
  FixedWindowHistogram fw = MakeFw(64, 5, 0.3);
  Random rng(17);
  for (int i = 0; i < 200; ++i) fw.Append(rng.UniformInt(0, 50));
  const std::vector<double> window = fw.window().ToVector();
  // The streamed error must match the SSE of the extracted histogram (same
  // boundaries, mean representatives).
  EXPECT_NEAR(fw.ApproxError(), fw.Extract().SseAgainst(window),
              1e-6 * (1.0 + fw.ApproxError()));
}

TEST(FixedWindowTest, SingleBucketMatchesPrefixError) {
  FixedWindowHistogram fw = MakeFw(16, 1, 0.1);
  Random rng(23);
  std::vector<double> tail;
  for (int i = 0; i < 50; ++i) {
    const double v = rng.UniformDouble(0, 10);
    fw.Append(v);
    tail.push_back(v);
  }
  const std::vector<double> window = fw.window().ToVector();
  EXPECT_NEAR(fw.ApproxError(), OptimalSse(window, 1), 1e-6);
}

TEST(FixedWindowTest, RangeSumUsesExtractedHistogram) {
  FixedWindowHistogram fw = MakeFw(8, 2, 4.0);
  for (double v : {100.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0}) fw.Append(v);
  // Bucket [0,1)=100, [1,8)=4/7.
  EXPECT_NEAR(fw.RangeSum(0, 8), 104.0, 1e-9);
  EXPECT_NEAR(fw.RangeSum(1, 8), 4.0, 1e-9);
}

TEST(FixedWindowTest, IntervalCountStaysModest) {
  // Bounded integer inputs: interval count per level is O((1/delta) log n).
  FixedWindowHistogram fw = MakeFw(256, 4, 0.4);
  Random rng(31);
  for (int i = 0; i < 512; ++i) fw.Append(rng.UniformInt(0, 1024));
  const double delta = fw.delta();
  const double bound =
      3.0 * (1.0 / delta) * std::log(1024.0 * 1024.0 * 256.0) *
      static_cast<double>(4 - 1);
  EXPECT_GT(fw.last_total_intervals(), 0);
  EXPECT_LT(static_cast<double>(fw.last_total_intervals()), bound);
}

// Property sweep: the maintained histogram's error is within (1+eps) of the
// optimal B-bucket histogram of the *current window*, at every step of a
// sliding stream, across datasets, window sizes, B and eps.
struct GuaranteeCase {
  const char* dataset;
  int64_t window;
  int64_t buckets;
  double epsilon;
  uint64_t seed;
};

void PrintTo(const GuaranteeCase& c, std::ostream* os) {
  *os << c.dataset << "/n" << c.window << "/B" << c.buckets << "/eps"
      << c.epsilon << "/s" << c.seed;
}

class FixedWindowGuaranteeTest
    : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(FixedWindowGuaranteeTest, WithinOnePlusEpsilonOfOptimal) {
  const GuaranteeCase c = GetParam();
  const std::vector<double> stream =
      GenerateDataset(ParseDatasetKind(c.dataset), 3 * c.window, c.seed);
  FixedWindowHistogram fw = MakeFw(c.window, c.buckets, c.epsilon);
  int64_t checked = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    fw.Append(stream[i]);
    // Checking every step is O(n^2 B) per step; sample a handful of steps.
    if (!fw.window().full() || i % 37 != 0) continue;
    const std::vector<double> window = fw.window().ToVector();
    const double opt = OptimalSse(window, c.buckets);
    EXPECT_LE(fw.ApproxError(), (1.0 + c.epsilon) * opt + 1e-6)
        << "at stream position " << i << " (opt=" << opt << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedWindowGuaranteeTest,
    ::testing::Values(GuaranteeCase{"walk", 64, 4, 0.5, 1},
                      GuaranteeCase{"walk", 64, 4, 0.1, 2},
                      GuaranteeCase{"walk", 128, 8, 0.2, 3},
                      GuaranteeCase{"piecewise", 64, 4, 0.5, 4},
                      GuaranteeCase{"piecewise", 128, 6, 0.1, 5},
                      GuaranteeCase{"zipf", 64, 4, 0.3, 6},
                      GuaranteeCase{"zipf", 96, 8, 1.0, 7},
                      GuaranteeCase{"sines", 128, 8, 0.2, 8},
                      GuaranteeCase{"utilization", 128, 6, 0.5, 9},
                      GuaranteeCase{"utilization", 64, 2, 0.05, 10}));

// --- Max-abs error metric (the paper's footnote-3 generalization) ---

FixedWindowHistogram MakeMaxAbsFw(int64_t window, int64_t buckets,
                                  double epsilon) {
  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  options.rebuild_on_append = false;
  options.metric = WindowErrorMetric::kMaxAbs;
  return FixedWindowHistogram::Create(options).value();
}

TEST(FixedWindowMaxAbsTest, PiecewiseConstantIsExact) {
  FixedWindowHistogram fw = MakeMaxAbsFw(12, 3, 0.5);
  for (double v : {4.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0, 9.0, 9.0, 9.0, 9.0,
                   9.0}) {
    fw.Append(v);
  }
  EXPECT_NEAR(fw.ApproxError(), 0.0, 1e-12);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 3);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 4.0);   // midrange of a constant run
  EXPECT_DOUBLE_EQ(h.buckets()[1].value, -1.0);
  EXPECT_DOUBLE_EQ(h.buckets()[2].value, 9.0);
}

TEST(FixedWindowMaxAbsTest, RepresentativeIsMidrange) {
  FixedWindowHistogram fw = MakeMaxAbsFw(4, 1, 0.5);
  for (double v : {0.0, 10.0, 2.0, 4.0}) fw.Append(v);
  const Histogram& h = fw.Extract();
  ASSERT_EQ(h.num_buckets(), 1);
  EXPECT_DOUBLE_EQ(h.buckets()[0].value, 5.0);  // (min+max)/2
  EXPECT_DOUBLE_EQ(fw.ApproxError(), 5.0);      // (max-min)/2
}

class FixedWindowMaxAbsGuaranteeTest
    : public ::testing::TestWithParam<GuaranteeCase> {};

TEST_P(FixedWindowMaxAbsGuaranteeTest, WithinOnePlusEpsilonOfOptimal) {
  const GuaranteeCase c = GetParam();
  const std::vector<double> stream =
      GenerateDataset(ParseDatasetKind(c.dataset), 2 * c.window, c.seed);
  FixedWindowHistogram fw = MakeMaxAbsFw(c.window, c.buckets, c.epsilon);
  int64_t checked = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    fw.Append(stream[i]);
    if (!fw.window().full() || i % 41 != 0) continue;
    const std::vector<double> window = fw.window().ToVector();
    const MaxAbsBucketCost cost(window);
    const double opt = BuildOptimalHistogram(cost, c.buckets).error;
    EXPECT_LE(fw.ApproxError(), (1.0 + c.epsilon) * opt + 1e-9)
        << "at stream position " << i << " (opt=" << opt << ")";
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FixedWindowMaxAbsGuaranteeTest,
    ::testing::Values(GuaranteeCase{"walk", 64, 4, 0.5, 21},
                      GuaranteeCase{"piecewise", 96, 6, 0.2, 22},
                      GuaranteeCase{"zipf", 64, 4, 1.0, 23},
                      GuaranteeCase{"utilization", 128, 8, 0.5, 24}));

// --- Bit-identity pin ---
//
// A rebuild is a pure function of the window contents. This table pins, per
// configuration, a digest of everything a rebuild reports (ApproxError bits,
// each bucket's begin/end/value bits, BucketErrors bits) over seeded AR(1)
// windows, plus the summed HERROR evaluations and interval counts, so any
// change to the rebuild's scratch handling that alters a single bit or a
// single evaluation fails here.

uint64_t MixWord(uint64_t digest, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {  // FNV-1a over the word's bytes
    digest ^= (word >> (8 * byte)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
  return digest;
}

uint64_t MixDouble(uint64_t digest, double value) {
  return MixWord(digest, std::bit_cast<uint64_t>(value));
}

struct PinnedRebuild {
  uint64_t digest;
  int64_t herror_evals;
  int64_t total_intervals;
};

// Feeds 1.5 windows (plus 3) of AR(1) values. Eager instances take all but
// the last three as one batch and the rest one at a time, so each eager case
// covers four rebuilds; lazy instances rebuild once, on the first query.
PinnedRebuild RunPinnedCase(int64_t window, int64_t buckets, double epsilon,
                            WindowErrorMetric metric, bool eager) {
  FixedWindowOptions options;
  options.window_size = window;
  options.num_buckets = buckets;
  options.epsilon = epsilon;
  options.rebuild_on_append = eager;
  options.metric = metric;
  FixedWindowHistogram fw = FixedWindowHistogram::Create(options).value();

  Random rng(static_cast<uint64_t>(1000 + window));
  std::vector<double> values(static_cast<size_t>(window + window / 2 + 3));
  double x = 0.0;
  for (double& v : values) {
    x = 0.9 * x + rng.Gaussian(0.0, 10.0);
    v = 100.0 + x;
  }
  const size_t head = eager ? values.size() - 3 : 0;
  fw.AppendBatch(std::span<const double>(values.data(), head));
  for (size_t i = head; i < values.size(); ++i) fw.Append(values[i]);

  uint64_t digest = 0xcbf29ce484222325ULL;
  digest = MixDouble(digest, fw.ApproxError());
  const Histogram& h = fw.Extract();
  digest = MixWord(digest, static_cast<uint64_t>(h.num_buckets()));
  for (const Bucket& b : h.buckets()) {
    digest = MixWord(digest, static_cast<uint64_t>(b.begin));
    digest = MixWord(digest, static_cast<uint64_t>(b.end));
    digest = MixDouble(digest, b.value);
  }
  if (metric == WindowErrorMetric::kSse) {
    for (double e : fw.BucketErrors()) digest = MixDouble(digest, e);
  }
  return PinnedRebuild{digest, fw.last_herror_evals(),
                       fw.last_total_intervals()};
}

// Case order: window, buckets, epsilon, metric (SSE, max-abs), then lazy
// before eager.
constexpr uint64_t kPinnedDigests[] = {
    0xe41298031080a165ULL, 0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL,
    0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL, 0xe41298031080a165ULL,
    0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL,
    0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL,
    0xe41298031080a165ULL, 0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL,
    0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL, 0xe41298031080a165ULL,
    0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL,
    0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL,
    0xe41298031080a165ULL, 0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL,
    0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL, 0xe41298031080a165ULL,
    0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL,
    0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL,
    0xe41298031080a165ULL, 0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL,
    0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL, 0xe41298031080a165ULL,
    0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL, 0xe41298031080a165ULL,
    0xe41298031080a165ULL, 0xd4a262e133c5d6c5ULL, 0xd4a262e133c5d6c5ULL,
    0x128d86e4eed43b8bULL, 0x128d86e4eed43b8bULL, 0x1e96b502d8b85b13ULL,
    0x1e96b502d8b85b13ULL, 0x128d86e4eed43b8bULL, 0x128d86e4eed43b8bULL,
    0x1e96b502d8b85b13ULL, 0x1e96b502d8b85b13ULL, 0x128d86e4eed43b8bULL,
    0x128d86e4eed43b8bULL, 0x1e96b502d8b85b13ULL, 0x1e96b502d8b85b13ULL,
    0x4d6a6825efef8ef0ULL, 0x4d6a6825efef8ef0ULL, 0x8d87b10ea146cdc5ULL,
    0x8d87b10ea146cdc5ULL, 0x4d6a6825efef8ef0ULL, 0x4d6a6825efef8ef0ULL,
    0x8d87b10ea146cdc5ULL, 0x8d87b10ea146cdc5ULL, 0x4d6a6825efef8ef0ULL,
    0x4d6a6825efef8ef0ULL, 0x8d87b10ea146cdc5ULL, 0x8d87b10ea146cdc5ULL,
    0x20ae7b338dc08d73ULL, 0x20ae7b338dc08d73ULL, 0x7b8a5c1767e642f5ULL,
    0x7b8a5c1767e642f5ULL, 0x20ae7b338dc08d73ULL, 0x20ae7b338dc08d73ULL,
    0x7b8a5c1767e642f5ULL, 0x7b8a5c1767e642f5ULL, 0x20ae7b338dc08d73ULL,
    0x20ae7b338dc08d73ULL, 0x7b8a5c1767e642f5ULL, 0x7b8a5c1767e642f5ULL,
    0x84d28ad5d295776dULL, 0x84d28ad5d295776dULL, 0x2b7261f443ad1a0dULL,
    0x2b7261f443ad1a0dULL, 0x84d28ad5d295776dULL, 0x84d28ad5d295776dULL,
    0x2b7261f443ad1a0dULL, 0x2b7261f443ad1a0dULL, 0x84d28ad5d295776dULL,
    0x84d28ad5d295776dULL, 0x2b7261f443ad1a0dULL, 0x2b7261f443ad1a0dULL,
    0x079c661e9180326bULL, 0x079c661e9180326bULL, 0x40d3728cb696042dULL,
    0x40d3728cb696042dULL, 0x079c661e9180326bULL, 0x079c661e9180326bULL,
    0x40d3728cb696042dULL, 0x40d3728cb696042dULL, 0x079c661e9180326bULL,
    0x079c661e9180326bULL, 0x40d3728cb696042dULL, 0x40d3728cb696042dULL,
    0x47b3788ca5a162edULL, 0x47b3788ca5a162edULL, 0xb0a9aca4b6637860ULL,
    0xb0a9aca4b6637860ULL, 0x47b3788ca5a162edULL, 0x47b3788ca5a162edULL,
    0xb0a9aca4b6637860ULL, 0xb0a9aca4b6637860ULL, 0x47b3788ca5a162edULL,
    0x47b3788ca5a162edULL, 0xb0a9aca4b6637860ULL, 0xb0a9aca4b6637860ULL,
    0x0b7e6eaa08d06b14ULL, 0x0b7e6eaa08d06b14ULL, 0x4512fb566d4c7a4fULL,
    0x4512fb566d4c7a4fULL, 0x0b7e6eaa08d06b14ULL, 0x0b7e6eaa08d06b14ULL,
    0x4512fb566d4c7a4fULL, 0x4512fb566d4c7a4fULL, 0x0b7e6eaa08d06b14ULL,
    0x0b7e6eaa08d06b14ULL, 0x4512fb566d4c7a4fULL, 0x4512fb566d4c7a4fULL,
    0xc86ea20488dc6906ULL, 0xc86ea20488dc6906ULL, 0x3097630d91885925ULL,
    0x3097630d91885925ULL, 0xc86ea20488dc6906ULL, 0xc86ea20488dc6906ULL,
    0x3097630d91885925ULL, 0x3097630d91885925ULL, 0xc86ea20488dc6906ULL,
    0xc86ea20488dc6906ULL, 0x3097630d91885925ULL, 0x3097630d91885925ULL,
    0xcb4fdf910fb95223ULL, 0xcb4fdf910fb95223ULL, 0x1125853046984f54ULL,
    0x1125853046984f54ULL, 0xcb4fdf910fb95223ULL, 0xcb4fdf910fb95223ULL,
    0x1125853046984f54ULL, 0x1125853046984f54ULL, 0xcb4fdf910fb95223ULL,
    0xcb4fdf910fb95223ULL, 0x1125853046984f54ULL, 0x1125853046984f54ULL,
    0x226a4c760bf5f2daULL, 0x226a4c760bf5f2daULL, 0xa915736a1a546706ULL,
    0xa915736a1a546706ULL, 0xe1811ae0145998b1ULL, 0xe1811ae0145998b1ULL,
    0xa915736a1a546706ULL, 0xa915736a1a546706ULL, 0x3ba72eef4eadb6acULL,
    0x3ba72eef4eadb6acULL, 0xa915736a1a546706ULL, 0xa915736a1a546706ULL,
    0x1a711994f3a2ec00ULL, 0x1a711994f3a2ec00ULL, 0x9c13f5e8cabb2a3cULL,
    0x9c13f5e8cabb2a3cULL, 0x1a711994f3a2ec00ULL, 0x1a711994f3a2ec00ULL,
    0x9c13f5e8cabb2a3cULL, 0x9c13f5e8cabb2a3cULL, 0x66bd935f93d709e8ULL,
    0x66bd935f93d709e8ULL, 0x9c13f5e8cabb2a3cULL, 0x9c13f5e8cabb2a3cULL,
    0xea7182de4752e9c9ULL, 0xea7182de4752e9c9ULL, 0x7d7778c710a3cf65ULL,
    0x7d7778c710a3cf65ULL, 0xea7182de4752e9c9ULL, 0xea7182de4752e9c9ULL,
    0x7d7778c710a3cf65ULL, 0x7d7778c710a3cf65ULL, 0xaf1a13d55ef7aff3ULL,
    0xaf1a13d55ef7aff3ULL, 0x7d7778c710a3cf65ULL, 0x7d7778c710a3cf65ULL,
    0xca51fb0711731624ULL, 0xca51fb0711731624ULL, 0x996390a1526767f8ULL,
    0x996390a1526767f8ULL, 0xca51fb0711731624ULL, 0xca51fb0711731624ULL,
    0x996390a1526767f8ULL, 0x996390a1526767f8ULL, 0xca51fb0711731624ULL,
    0xca51fb0711731624ULL, 0x996390a1526767f8ULL, 0x996390a1526767f8ULL,
    0x727abc486be94b9eULL, 0x727abc486be94b9eULL, 0x7e8733f93642f45aULL,
    0x7e8733f93642f45aULL, 0xfd2ebc82577beb2dULL, 0xfd2ebc82577beb2dULL,
    0x7e8733f93642f45aULL, 0x7e8733f93642f45aULL, 0x6b59f09dbd7075d5ULL,
    0x6b59f09dbd7075d5ULL, 0x7e8733f93642f45aULL, 0x7e8733f93642f45aULL,
    0x089550fe29e138a8ULL, 0x089550fe29e138a8ULL, 0x5a0a82e12ddfa016ULL,
    0x5a0a82e12ddfa016ULL, 0x22e94b2738f9851dULL, 0x22e94b2738f9851dULL,
    0x5a0a82e12ddfa016ULL, 0x5a0a82e12ddfa016ULL, 0xa069335ee1f60142ULL,
    0xa069335ee1f60142ULL, 0x5a0a82e12ddfa016ULL, 0x5a0a82e12ddfa016ULL,
    0x301c471b3b9e10daULL, 0x301c471b3b9e10daULL, 0x30a7c6bc8d04bf3dULL,
    0x30a7c6bc8d04bf3dULL, 0x36feac3dc13e8009ULL, 0x36feac3dc13e8009ULL,
    0x30a7c6bc8d04bf3dULL, 0x30a7c6bc8d04bf3dULL, 0x7022acb77ba185d4ULL,
    0x7022acb77ba185d4ULL, 0x30a7c6bc8d04bf3dULL, 0x30a7c6bc8d04bf3dULL,
};
constexpr int64_t kPinnedHerrorEvals = 240116;
constexpr int64_t kPinnedTotalIntervals = 80284;

TEST(FixedWindowPinnedTest, RebuildsMatchThePinnedTable) {
  size_t index = 0;
  int64_t herror_evals = 0;
  int64_t total_intervals = 0;
  for (int64_t window : {1, 7, 64, 300, 1024}) {
    for (int64_t buckets : {1, 2, 5, 16}) {
      for (double epsilon : {0.05, 0.1, 1.0}) {
        for (WindowErrorMetric metric :
             {WindowErrorMetric::kSse, WindowErrorMetric::kMaxAbs}) {
          for (bool eager : {false, true}) {
            const PinnedRebuild got =
                RunPinnedCase(window, buckets, epsilon, metric, eager);
            ASSERT_LT(index, std::size(kPinnedDigests));
            EXPECT_EQ(got.digest, kPinnedDigests[index])
                << "W=" << window << " B=" << buckets << " eps=" << epsilon
                << " metric=" << static_cast<int>(metric)
                << " eager=" << eager;
            herror_evals += got.herror_evals;
            total_intervals += got.total_intervals;
            ++index;
          }
        }
      }
    }
  }
  EXPECT_EQ(index, std::size(kPinnedDigests));
  EXPECT_EQ(herror_evals, kPinnedHerrorEvals);
  EXPECT_EQ(total_intervals, kPinnedTotalIntervals);
}

}  // namespace
}  // namespace streamhist
