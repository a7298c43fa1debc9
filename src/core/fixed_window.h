#ifndef STREAMHIST_CORE_FIXED_WINDOW_H_
#define STREAMHIST_CORE_FIXED_WINDOW_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/histogram.h"
#include "src/stream/sliding_window.h"
#include "src/util/result.h"

namespace streamhist {

/// Bucket-cost family for the fixed-window algorithm. The paper's analysis
/// (footnote 3) holds for any point-wise additive error whose bucket cost is
/// monotone under widening; both families below qualify. The agglomerative
/// algorithm supports only kSse, whose bucket costs are computable from the
/// prefix-sum snapshots it retains; the fixed window buffers its points, so
/// any O(1)-evaluable cost works.
enum class WindowErrorMetric {
  /// Sum of squared deviations from the bucket mean (the paper's SQERROR,
  /// V-optimal histograms). O(1) bucket costs from sliding prefix sums.
  kSse,
  /// Maximum absolute deviation from the bucket midrange, summed over
  /// buckets (L-infinity flavored). O(1) bucket costs from sparse min/max
  /// tables rebuilt per rebuild.
  kMaxAbs,
};

/// Options for FixedWindowHistogram.
struct FixedWindowOptions {
  /// Sliding-window length n (>= 1): histograms cover the latest n points.
  int64_t window_size = 1024;
  /// Target number of buckets B (>= 1).
  int64_t num_buckets = 8;
  /// Approximation slack: total error within (1+epsilon) of the optimal
  /// B-bucket histogram of the window. Must be > 0. delta = epsilon / (2B).
  double epsilon = 0.1;
  /// When true (the paper's accounting), the interval structure is rebuilt
  /// on every Append; when false it is rebuilt lazily on the next query.
  bool rebuild_on_append = true;
  /// Bucket-cost family (see WindowErrorMetric).
  WindowErrorMetric metric = WindowErrorMetric::kSse;
};

/// The paper's primary contribution (section 4.5, figure 5): incremental
/// maintenance of a (1+eps)-approximate V-optimal histogram over a sliding
/// window of the stream.
///
/// Unlike the agglomerative algorithm — whose interval lists are anchored at
/// the stream start and are invalidated by the eviction of old points
/// (section 4.4, the "shifted function" problem) — this algorithm rebuilds
/// the per-level interval lists *on demand* after each arrival with the
/// recursive binary-search procedure CreateList, evaluating HERROR at only
/// O((1/delta) log^2 n) positions per level instead of all n: that is
/// O((B^3/eps^2) log^3 n) HERROR work per rebuild.
///
/// A rebuild is a function of the window contents alone: its interval lists,
/// HERROR memo and (for kMaxAbs) sparse min/max tables are scratch that lives
/// for that one rebuild. The object keeps O(n): the window, plus the
/// histogram and error the last rebuild produced. The price is that every
/// rebuild allocates and fills a fresh (B+1)(n+1)-slot memo, a Theta(B n)
/// term on top of the HERROR work (13 us of a median 18-22 ms rebuild at
/// n=1024, B=16); with rebuild_on_append every arrival pays it.
class FixedWindowHistogram {
 public:
  /// Validates options (window_size >= 1, num_buckets >= 1, epsilon > 0).
  static Result<FixedWindowHistogram> Create(const FixedWindowOptions& options);

  /// Appends a point, evicting the oldest when the window is full. Rebuilds
  /// the interval structure unless options.rebuild_on_append is false.
  void Append(double value);

  /// Batched arrivals (paper footnote 2): appends every point but rebuilds
  /// the interval structure at most once, after the batch.
  void AppendBatch(std::span<const double> values);

  /// The underlying sliding window (exact values, for ground-truth queries).
  const SlidingWindow& window() const { return window_; }

  /// Approximate HERROR[m, B] of the current window (rebuilds if stale).
  double ApproxError();

  /// Extracts the (1+eps)-approximate B-bucket histogram of the current
  /// window. Cached until the next Append.
  const Histogram& Extract();

  /// Estimated sum of the window values over [lo, hi) using the extracted
  /// histogram (window-relative indices).
  double RangeSum(int64_t lo, int64_t hi);

  /// Exact per-bucket SSEs of the extracted histogram against the current
  /// window, O(B) from the sliding prefix sums — feed these to
  /// RangeSumWithBound (core/error_bounds.h) for certified query error
  /// bars. Requires the SSE metric (mean representatives).
  std::vector<double> BucketErrors();

  /// True when the last rebuild covers the current window — i.e.
  /// ApproxError()/Extract() are pure lookups right now. The publish path
  /// uses this to adopt an already-built histogram into an eager snapshot
  /// section instead of freezing the window contents for lazy
  /// materialization.
  bool HasCurrentHistogram() const { return histogram_.has_value(); }

  /// Serializes options plus the complete sliding-window state as a framed,
  /// CRC-protected blob. The histogram is *not* serialized: it is a
  /// deterministic function of the window contents and is rebuilt lazily on
  /// the first query after Deserialize, so a round-trip reproduces identical
  /// query answers at a fraction of the checkpoint size.
  std::string Serialize() const;

  /// Inverse of Serialize; validates structure and never aborts on hostile
  /// bytes.
  static Result<FixedWindowHistogram> Deserialize(std::string_view bytes);

  /// A window histogram whose contents are exactly `contents` (oldest
  /// first, at most options.window_size points) — the materializer behind
  /// lazily-built snapshot sections, which freeze the live window's
  /// contents at publish time and rebuild from them on first demand. A
  /// rebuild is a deterministic function of the contents (the Serialize
  /// contract), so the extracted histogram matches what the live window
  /// would have produced. `options` must already be valid (they come from a
  /// live instance).
  static FixedWindowHistogram FromContents(const FixedWindowOptions& options,
                                           std::span<const double> contents);

  /// --- diagnostics for tests and benchmarks ---
  /// Number of HERROR evaluations during the most recent rebuild, including
  /// the backtrack that extracts its histogram.
  int64_t last_herror_evals() const { return last_herror_evals_; }
  /// Total interval-list entries across all levels in the last rebuild.
  int64_t last_total_intervals() const { return last_total_intervals_; }
  double delta() const { return delta_; }
  const FixedWindowOptions& options() const { return options_; }

  /// Approximate heap footprint in bytes — the window buffers plus the
  /// extracted histogram (for the memory governor). A rebuild's scratch is
  /// freed before it returns, so it is not part of this.
  int64_t MemoryBytes() const;

  /// Upper bound on the bytes one rebuild of a full window allocates under
  /// `options`: the memo, B-1 interval lists of at most n entries each and,
  /// for kMaxAbs, the sparse min/max tables. Admission control charges it
  /// up front, since no one charges it while a rebuild runs. Saturates at
  /// 2^60, which no budget admits.
  static int64_t RebuildScratchBytes(const FixedWindowOptions& options);

 private:
  explicit FixedWindowHistogram(const FixedWindowOptions& options);

  /// Builds the interval lists for the current window contents, extracts
  /// the histogram and records the diagnostics; keeps none of the scratch.
  void Rebuild();

  FixedWindowOptions options_;
  double delta_;
  SlidingWindow window_;
  // The last rebuild's results; empty while stale (appended since).
  std::optional<Histogram> histogram_;
  double approx_error_ = 0.0;
  int64_t last_herror_evals_ = 0;
  int64_t last_total_intervals_ = 0;
};

}  // namespace streamhist

#endif  // STREAMHIST_CORE_FIXED_WINDOW_H_
