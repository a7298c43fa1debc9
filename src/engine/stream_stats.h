#ifndef STREAMHIST_ENGINE_STREAM_STATS_H_
#define STREAMHIST_ENGINE_STREAM_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/histogram.h"

namespace streamhist {

/// Every verb of the engine's query language, stream-scoped and
/// engine-scoped alike. The enumerator order is STATS' line order; it is in
/// no durable format.
enum class QueryVerb : uint8_t {
  kSum = 0,
  kAvg,
  kSumBound,
  kAvgBound,
  kPoint,
  kQuantile,
  kDistinct,
  kCount,
  kError,
  kBuild,
  kAppend,
  kDescribe,
  kShow,
  kStats,
  kCreate,
  kDrop,
  kList,
  kMemory,
  kSave,
  kLoad,
  kWal,
  kFlush,
  kPromote,
  kNumVerbs  // sentinel: "unknown verb"
};

inline constexpr size_t kNumQueryVerbs =
    static_cast<size_t>(QueryVerb::kNumVerbs);

/// Stable upper-case name ("SUM", "BUILD", ...).
const char* QueryVerbName(QueryVerb verb);

/// Parses a verb token in any ASCII case; false when it names no known verb.
bool ParseQueryVerb(std::string_view token, QueryVerb* verb);

/// True when `token` spells the upper-case `keyword` in any ASCII case: the
/// query language's keyword match, with no upper-cased copy of the token.
bool KeywordEquals(std::string_view token, std::string_view keyword);

/// Number of logarithmic latency buckets QueryStats keeps per verb.
inline constexpr size_t kVerbLatencyBuckets = 24;

/// Point-in-time copy of one verb's counters (plain values, no atomics).
struct VerbCounters {
  int64_t count = 0;
  int64_t errors = 0;
  int64_t total_nanos = 0;
  std::array<int64_t, kVerbLatencyBuckets> latency = {};
};

/// Per-verb execution counters and latency histograms, safe to record into
/// from any number of threads concurrently (relaxed atomics: counters are
/// diagnostics, not synchronization). One instance lives in every registry
/// entry (stream-scoped verbs) and one in the QueryEngine (engine-scoped
/// verbs); both live for the process lifetime and are never serialized.
///
/// Latencies land in logarithmic buckets: bucket 0 is [0, 512ns) and bucket
/// i >= 1 covers [256 << i, 256 << (i+1)) ns, the last bucket open-ended —
/// 24 buckets span half a microsecond to ~2 seconds, plenty for verbs that
/// range from a lock-free snapshot lookup to an exact DP build.
class QueryStats {
 public:
  static constexpr size_t kLatencyBuckets = kVerbLatencyBuckets;

  QueryStats() = default;
  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  /// Which latency bucket `nanos` lands in.
  static size_t LatencyBucketIndex(int64_t nanos);

  /// Inclusive lower edge of bucket `index` in nanoseconds (0 for bucket 0).
  static int64_t LatencyBucketLowerNanos(size_t index);

  /// Exclusive upper edge of bucket `index` in nanoseconds.
  static int64_t LatencyBucketUpperNanos(size_t index);

  /// Records one execution of `verb`: outcome and wall-clock cost.
  void Record(QueryVerb verb, bool ok, int64_t nanos);

  /// A coherent-enough copy of one verb's counters (each field read
  /// atomically; fields may straddle a concurrent Record).
  VerbCounters Read(QueryVerb verb) const;

  /// True when any verb has a nonzero count.
  bool Any() const;

  /// The verb's latency distribution rendered as a core/histogram Histogram:
  /// domain index i is latency bucket i, the bucket value its hit count. An
  /// empty histogram when the verb was never recorded.
  Histogram LatencyHistogram(QueryVerb verb) const;

  /// One "VERB count=N errors=E mean=X p50<=Y p99<=Z" line per verb with a
  /// nonzero count, joined with '\n'; empty string when nothing was
  /// recorded. The quantiles are bucket upper bounds, hence the "<=".
  std::string Render() const;

 private:
  struct Slot {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> errors{0};
    std::atomic<int64_t> total_nanos{0};
    std::array<std::atomic<int64_t>, kLatencyBuckets> latency{};
  };
  std::array<Slot, kNumQueryVerbs> slots_;
};

/// "1.2us" / "3.4ms" style rendering of a nanosecond count.
std::string FormatNanos(double nanos);

/// Point-in-time copy of a stream's publication counters.
struct PublishCounters {
  int64_t publishes = 0;
  int64_t skipped = 0;
  int64_t max_staleness_us = 0;
  int64_t total_nanos = 0;
  std::array<int64_t, kVerbLatencyBuckets> latency = {};
};

/// Snapshot-publication telemetry for one stream: how many times a fresh
/// QuerySnapshot was published, how many publication opportunities the
/// coalescing policy skipped, the worst observed staleness (age of the
/// oldest unpublished append when its publish finally ran), and a latency
/// histogram of the publish operation itself (same log2 nanosecond buckets
/// as QueryStats). Relaxed atomics, same recording discipline as QueryStats;
/// process-lifetime only, never serialized.
class PublishStats {
 public:
  PublishStats() = default;
  PublishStats(const PublishStats&) = delete;
  PublishStats& operator=(const PublishStats&) = delete;

  /// Records one publish: its own wall-clock cost and the staleness it
  /// cleared (0 when nothing was pending).
  void RecordPublish(int64_t nanos, int64_t staleness_us);

  /// Records one coalesced (skipped) publication opportunity.
  void RecordSkipped();

  PublishCounters Read() const;

  /// One "publish count=N skipped=K max_staleness=Xus mean=Y p50<=Z p99<=W"
  /// line; empty string when nothing was ever published.
  std::string Render() const;

 private:
  std::atomic<int64_t> publishes_{0};
  std::atomic<int64_t> skipped_{0};
  std::atomic<int64_t> max_staleness_us_{0};
  std::atomic<int64_t> total_nanos_{0};
  std::array<std::atomic<int64_t>, kVerbLatencyBuckets> latency_{};
};

}  // namespace streamhist

#endif  // STREAMHIST_ENGINE_STREAM_STATS_H_
