#include "src/core/fixed_window.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/core/bucket_cost.h"
#include "src/util/framing.h"
#include "src/util/logging.h"

namespace streamhist {

Result<FixedWindowHistogram> FixedWindowHistogram::Create(
    const FixedWindowOptions& options) {
  if (options.window_size < 1) {
    return Status::InvalidArgument("window_size must be >= 1");
  }
  if (options.num_buckets < 1) {
    return Status::InvalidArgument("num_buckets must be >= 1");
  }
  if (!(options.epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be > 0");
  }
  return FixedWindowHistogram(options);
}

FixedWindowHistogram::FixedWindowHistogram(const FixedWindowOptions& options)
    : options_(options),
      delta_(options.epsilon / (2.0 * static_cast<double>(options.num_buckets))),
      window_(options.window_size) {}

void FixedWindowHistogram::Append(double value) {
  window_.Append(value);
  histogram_.reset();
  if (options_.rebuild_on_append) Rebuild();
}

void FixedWindowHistogram::AppendBatch(std::span<const double> values) {
  if (values.empty()) return;
  for (double v : values) window_.Append(v);
  histogram_.reset();
  if (options_.rebuild_on_append) Rebuild();
}

namespace {

// The scratch of one rebuild: the per-level interval lists, the HERROR memo
// and (for kMaxAbs) the sparse min/max tables. It is built on the stack by
// FixedWindowHistogram::Rebuild and freed when that returns.
class WindowRebuild {
 public:
  WindowRebuild(const SlidingWindow& window, WindowErrorMetric metric,
                int64_t num_buckets, double delta)
      : window_(window),
        metric_(metric),
        num_buckets_(num_buckets),
        delta_(delta),
        m_(window.size()),
        queues_(static_cast<size_t>(num_buckets - 1)),
        memo_(static_cast<size_t>(num_buckets + 1) *
                  static_cast<size_t>(m_ + 1),
              Eval{0.0, -1}) {
    if (metric_ == WindowErrorMetric::kMaxAbs) {
      // O(n log n) sparse min/max tables over the window, giving O(1)
      // bucket costs during the rebuild.
      maxabs_cost_.emplace(window_.ToVector());
    }
  }

  /// Builds every level's interval list, then backtracks the histogram.
  Histogram Run() {
    if (m_ == 0) return Histogram();
    for (int64_t k = 1; k < num_buckets_; ++k) CreateList(1, m_, k);
    const Eval final = EvalHerror(m_, num_buckets_);
    herror_ = final.herror;
    return ExtractFromState(final.boundary);
  }

  /// Upper bound on the bytes a rebuild over m points allocates.
  static double PeakBytes(int64_t m, int64_t num_buckets,
                          WindowErrorMetric metric) {
    const double n = static_cast<double>(m);
    const double b = static_cast<double>(num_buckets);
    double bytes = (b + 1.0) * (n + 1.0) * sizeof(Eval) +
                   (b - 1.0) * n * sizeof(QueueEntry);
    if (metric == WindowErrorMetric::kMaxAbs) {
      // The window copy plus min and max tables of floor(log2 m)+1 levels.
      const double levels = std::floor(std::log2(std::max(n, 1.0))) + 1.0;
      bytes += (1.0 + 2.0 * levels) * n * sizeof(double);
    }
    return bytes;
  }

  double herror() const { return herror_; }
  int64_t herror_evals() const { return herror_evals_; }
  int64_t total_intervals() const {
    int64_t total = 0;
    for (const auto& q : queues_) total += static_cast<int64_t>(q.size());
    return total;
  }

 private:
  struct Eval {
    double herror;
    int64_t boundary;  // start of the last bucket in the minimizing split;
                       // -1 while (p, k) is not yet evaluated
  };
  struct QueueEntry {
    int64_t p;  // prefix length (interval endpoint b_l)
    double herror;
  };

  /// Bucket cost of window positions [i, j) under the configured metric.
  double BucketCostOf(int64_t i, int64_t j) const {
    if (metric_ == WindowErrorMetric::kSse) return window_.SqError(i, j);
    return maxabs_cost_->Cost(i, j);
  }

  /// Optimal representative of [i, j) under the configured metric.
  double RepresentativeOf(int64_t i, int64_t j) const {
    if (metric_ == WindowErrorMetric::kSse) return window_.Mean(i, j);
    return maxabs_cost_->Representative(i, j);
  }

  /// Memoized HERROR[p, k] over the window, minimized over the level-(k-1)
  /// interval endpoints plus the recursive candidate (p-1, k-1) that covers
  /// positions inside the endpoint's own interval.
  Eval EvalHerror(int64_t p, int64_t k);

  /// Builds the level-k interval list over prefix lengths [a, b] (paper's
  /// CreateList, iterative form).
  void CreateList(int64_t a, int64_t b, int64_t k);

  /// Backtracks bucket boundaries through the memo table, starting from the
  /// final minimization's last-bucket boundary.
  Histogram ExtractFromState(int64_t boundary);

  const SlidingWindow& window_;
  const WindowErrorMetric metric_;
  const int64_t num_buckets_;
  const double delta_;
  const int64_t m_;  // window size at the rebuild
  std::optional<MaxAbsBucketCost> maxabs_cost_;
  // queues_[k-1]: level-k interval endpoints, increasing p, k in [1, B-1].
  std::vector<std::vector<QueueEntry>> queues_;
  // Flat memo over (k, p): (B+1) * (m+1) slots.
  std::vector<Eval> memo_;
  double herror_ = 0.0;
  int64_t herror_evals_ = 0;
};

WindowRebuild::Eval WindowRebuild::EvalHerror(int64_t p, int64_t k) {
  STREAMHIST_DCHECK(k >= 1);
  STREAMHIST_DCHECK(0 <= p && p <= m_);
  const size_t key = static_cast<size_t>(k * (m_ + 1) + p);
  if (memo_[key].boundary >= 0) return memo_[key];
  ++herror_evals_;

  Eval result;
  if (p <= k) {
    // Enough buckets for singletons: exact, last bucket is [p-1, p).
    result = Eval{0.0, p > 0 ? p - 1 : 0};
  } else if (k == 1) {
    result = Eval{BucketCostOf(0, p), 0};
  } else {
    // Start from the candidate p-1, which covers splits inside the endpoint
    // interval containing p-1 (its HERROR is within (1+delta) of any such
    // split's, by the interval invariant).
    const Eval inner = EvalHerror(p - 1, k - 1);
    double best = inner.herror + BucketCostOf(p - 1, p);
    int64_t best_boundary = p - 1;
    // Then minimize over the level-(k-1) interval endpoints below p,
    // scanning from the most recent endpoint backwards: the last bucket
    // [e.p, p) only widens going back, so its SQERROR is non-decreasing, and
    // once it alone reaches the best total no earlier entry can improve —
    // an exact prune that keeps the scan near the balance point.
    const auto& queue = queues_[static_cast<size_t>(k - 2)];
    auto first_ge = std::lower_bound(
        queue.begin(), queue.end(), p,
        [](const QueueEntry& e, int64_t value) { return e.p < value; });
    for (auto it = std::make_reverse_iterator(first_ge); it != queue.rend();
         ++it) {
      const double span = BucketCostOf(it->p, p);
      if (span >= best) break;
      const double candidate = it->herror + span;
      if (candidate < best) {
        best = candidate;
        best_boundary = it->p;
      }
    }
    result = Eval{best, best_boundary};
  }
  memo_[key] = result;
  return result;
}

void WindowRebuild::CreateList(int64_t a, int64_t b, int64_t k) {
  auto& queue = queues_[static_cast<size_t>(k - 1)];
  while (a <= b) {
    if (a == b) {
      queue.push_back(QueueEntry{a, EvalHerror(a, k).herror});
      return;
    }
    const double t = EvalHerror(a, k).herror;
    const double threshold = (1.0 + delta_) * t;
    // Largest c in [a, b] with HERROR[c, k] <= threshold (HERROR is
    // non-decreasing in the prefix length, so this is a binary search; c >= a
    // always since HERROR[a, k] == t <= threshold).
    int64_t lo = a;
    int64_t hi = b;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo + 1) / 2;
      if (EvalHerror(mid, k).herror <= threshold) {
        lo = mid;
      } else {
        hi = mid - 1;
      }
    }
    queue.push_back(QueueEntry{lo, EvalHerror(lo, k).herror});
    a = lo + 1;
  }
}

Histogram WindowRebuild::ExtractFromState(int64_t boundary) {
  std::vector<int64_t> boundaries;
  boundaries.push_back(m_);
  int64_t k = num_buckets_;
  while (true) {
    boundaries.push_back(boundary);
    if (boundary == 0) break;
    --k;
    STREAMHIST_CHECK_GE(k, 1);
    boundary = EvalHerror(boundary, k).boundary;
  }
  std::reverse(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());

  std::vector<Bucket> buckets;
  buckets.reserve(boundaries.size() - 1);
  for (size_t t = 0; t + 1 < boundaries.size(); ++t) {
    const int64_t begin = boundaries[t];
    const int64_t end = boundaries[t + 1];
    buckets.push_back(Bucket{begin, end, RepresentativeOf(begin, end)});
  }
  return Histogram::FromBucketsUnchecked(std::move(buckets));
}

}  // namespace

void FixedWindowHistogram::Rebuild() {
  WindowRebuild rebuild(window_, options_.metric, options_.num_buckets,
                        delta_);
  histogram_ = rebuild.Run();
  approx_error_ = rebuild.herror();
  last_herror_evals_ = rebuild.herror_evals();
  last_total_intervals_ = rebuild.total_intervals();
}

int64_t FixedWindowHistogram::RebuildScratchBytes(
    const FixedWindowOptions& options) {
  constexpr double kCap = 0x1p60;
  const double bytes = WindowRebuild::PeakBytes(
      std::max<int64_t>(options.window_size, 1),
      std::max<int64_t>(options.num_buckets, 1), options.metric);
  return static_cast<int64_t>(std::min(bytes, kCap));
}

double FixedWindowHistogram::ApproxError() {
  if (!histogram_.has_value()) Rebuild();
  return approx_error_;
}

const Histogram& FixedWindowHistogram::Extract() {
  if (!histogram_.has_value()) Rebuild();
  return *histogram_;
}

double FixedWindowHistogram::RangeSum(int64_t lo, int64_t hi) {
  return Extract().RangeSum(lo, hi);
}

std::vector<double> FixedWindowHistogram::BucketErrors() {
  STREAMHIST_CHECK(options_.metric == WindowErrorMetric::kSse)
      << "certified bounds need mean representatives";
  const Histogram& h = Extract();
  std::vector<double> errors;
  errors.reserve(static_cast<size_t>(h.num_buckets()));
  for (const Bucket& b : h.buckets()) {
    errors.push_back(window_.SqError(b.begin, b.end));
  }
  return errors;
}

int64_t FixedWindowHistogram::MemoryBytes() const {
  size_t bytes = window_.MemoryBytes();
  if (histogram_.has_value()) {
    bytes += static_cast<size_t>(histogram_->num_buckets()) * sizeof(Bucket);
  }
  return static_cast<int64_t>(bytes);
}

namespace {
constexpr uint32_t kFixedWindowMagic = 0x53484657;  // "SHFW"
constexpr uint32_t kFixedWindowVersion = 1;
}  // namespace

std::string FixedWindowHistogram::Serialize() const {
  ByteWriter payload;
  payload.PutI64(options_.window_size);
  payload.PutI64(options_.num_buckets);
  payload.PutF64(options_.epsilon);
  payload.PutBool(options_.rebuild_on_append);
  payload.PutU32(static_cast<uint32_t>(options_.metric));
  payload.PutLengthPrefixed(window_.Serialize());
  return WrapFrame(kFixedWindowMagic, kFixedWindowVersion, payload.bytes());
}

Result<FixedWindowHistogram> FixedWindowHistogram::Deserialize(
    std::string_view bytes) {
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView frame,
      UnwrapFrame(bytes, kFixedWindowMagic, "fixed-window histogram"));
  if (frame.version != kFixedWindowVersion) {
    return Status::InvalidArgument("unsupported fixed-window version");
  }
  ByteReader reader(frame.payload);
  FixedWindowOptions options;
  uint32_t metric = 0;
  std::string_view window_bytes;
  if (!reader.ReadI64(&options.window_size) ||
      !reader.ReadI64(&options.num_buckets) ||
      !reader.ReadF64(&options.epsilon) ||
      !reader.ReadBool(&options.rebuild_on_append) ||
      !reader.ReadU32(&metric) ||
      !reader.ReadLengthPrefixed(&window_bytes) || !reader.AtEnd()) {
    return Status::InvalidArgument("malformed fixed-window payload");
  }
  if (metric > static_cast<uint32_t>(WindowErrorMetric::kMaxAbs)) {
    return Status::InvalidArgument("unknown fixed-window error metric");
  }
  options.metric = static_cast<WindowErrorMetric>(metric);
  if (!std::isfinite(options.epsilon)) {
    return Status::InvalidArgument("fixed-window epsilon is not finite");
  }
  STREAMHIST_ASSIGN_OR_RETURN(FixedWindowHistogram fw, Create(options));
  STREAMHIST_ASSIGN_OR_RETURN(SlidingWindow window,
                              SlidingWindow::Deserialize(window_bytes));
  if (window.capacity() != options.window_size) {
    return Status::InvalidArgument(
        "window capacity disagrees with fixed-window options");
  }
  fw.window_ = std::move(window);  // the histogram rebuilds lazily
  return fw;
}

FixedWindowHistogram FixedWindowHistogram::FromContents(
    const FixedWindowOptions& options, std::span<const double> contents) {
  FixedWindowOptions lazy_options = options;
  lazy_options.rebuild_on_append = false;  // one rebuild, on first demand
  FixedWindowHistogram fw(lazy_options);
  fw.AppendBatch(contents);
  return fw;
}

}  // namespace streamhist
