#include "src/engine/stream_stats.h"

#include <bit>
#include <sstream>
#include <vector>

namespace streamhist {

namespace {

struct VerbNameEntry {
  QueryVerb verb;
  const char* name;
};

constexpr VerbNameEntry kVerbNames[] = {
    {QueryVerb::kSum, "SUM"},           {QueryVerb::kAvg, "AVG"},
    {QueryVerb::kSumBound, "SUMBOUND"}, {QueryVerb::kAvgBound, "AVGBOUND"},
    {QueryVerb::kPoint, "POINT"},       {QueryVerb::kQuantile, "QUANTILE"},
    {QueryVerb::kDistinct, "DISTINCT"}, {QueryVerb::kCount, "COUNT"},
    {QueryVerb::kError, "ERROR"},       {QueryVerb::kBuild, "BUILD"},
    {QueryVerb::kAppend, "APPEND"},     {QueryVerb::kDescribe, "DESCRIBE"},
    {QueryVerb::kShow, "SHOW"},         {QueryVerb::kStats, "STATS"},
    {QueryVerb::kCreate, "CREATE"},     {QueryVerb::kDrop, "DROP"},
    {QueryVerb::kList, "LIST"},         {QueryVerb::kMemory, "MEMORY"},
    {QueryVerb::kSave, "SAVE"},         {QueryVerb::kLoad, "LOAD"},
    {QueryVerb::kWal, "WAL"},           {QueryVerb::kFlush, "FLUSH"},
    {QueryVerb::kPromote, "PROMOTE"},
};
static_assert(sizeof(kVerbNames) / sizeof(kVerbNames[0]) == kNumQueryVerbs,
              "every QueryVerb needs a name");

}  // namespace

const char* QueryVerbName(QueryVerb verb) {
  const size_t i = static_cast<size_t>(verb);
  if (i >= kNumQueryVerbs) return "UNKNOWN";
  return kVerbNames[i].name;
}

bool KeywordEquals(std::string_view token, std::string_view keyword) {
  if (token.size() != keyword.size()) return false;
  for (size_t i = 0; i < token.size(); ++i) {
    char c = token[i];
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
    if (c != keyword[i]) return false;
  }
  return true;
}

bool ParseQueryVerb(std::string_view token, QueryVerb* verb) {
  for (const VerbNameEntry& entry : kVerbNames) {
    if (KeywordEquals(token, entry.name)) {
      *verb = entry.verb;
      return true;
    }
  }
  return false;
}

size_t QueryStats::LatencyBucketIndex(int64_t nanos) {
  if (nanos < 512) return 0;
  // nanos >= 512 => nanos >> 8 >= 2 => bit_width >= 2; bucket i holds
  // [256 << i, 256 << (i+1)).
  const size_t index =
      static_cast<size_t>(std::bit_width(static_cast<uint64_t>(nanos) >> 8)) -
      1;
  return index < kLatencyBuckets ? index : kLatencyBuckets - 1;
}

int64_t QueryStats::LatencyBucketLowerNanos(size_t index) {
  if (index == 0) return 0;
  return int64_t{256} << index;
}

int64_t QueryStats::LatencyBucketUpperNanos(size_t index) {
  return int64_t{256} << (index + 1);
}

void QueryStats::Record(QueryVerb verb, bool ok, int64_t nanos) {
  const size_t i = static_cast<size_t>(verb);
  if (i >= kNumQueryVerbs) return;
  if (nanos < 0) nanos = 0;
  Slot& slot = slots_[i];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  if (!ok) slot.errors.fetch_add(1, std::memory_order_relaxed);
  slot.total_nanos.fetch_add(nanos, std::memory_order_relaxed);
  slot.latency[LatencyBucketIndex(nanos)].fetch_add(1,
                                                    std::memory_order_relaxed);
}

VerbCounters QueryStats::Read(QueryVerb verb) const {
  VerbCounters out;
  const size_t i = static_cast<size_t>(verb);
  if (i >= kNumQueryVerbs) return out;
  const Slot& slot = slots_[i];
  out.count = slot.count.load(std::memory_order_relaxed);
  out.errors = slot.errors.load(std::memory_order_relaxed);
  out.total_nanos = slot.total_nanos.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    out.latency[b] = slot.latency[b].load(std::memory_order_relaxed);
  }
  return out;
}

bool QueryStats::Any() const {
  for (const Slot& slot : slots_) {
    if (slot.count.load(std::memory_order_relaxed) > 0) return true;
  }
  return false;
}

Histogram QueryStats::LatencyHistogram(QueryVerb verb) const {
  const VerbCounters c = Read(verb);
  if (c.count == 0) return Histogram();
  std::vector<Bucket> buckets;
  buckets.reserve(kLatencyBuckets);
  for (size_t b = 0; b < kLatencyBuckets; ++b) {
    buckets.push_back(Bucket{static_cast<int64_t>(b),
                             static_cast<int64_t>(b) + 1,
                             static_cast<double>(c.latency[b])});
  }
  return Histogram::FromBucketsUnchecked(std::move(buckets));
}

namespace {

/// Upper bound of the bucket holding the q-quantile of the recorded
/// latencies, in nanoseconds.
int64_t QuantileUpperNanos(const VerbCounters& c, double q) {
  const int64_t target =
      static_cast<int64_t>(q * static_cast<double>(c.count - 1)) + 1;
  int64_t seen = 0;
  for (size_t b = 0; b < kVerbLatencyBuckets; ++b) {
    seen += c.latency[b];
    if (seen >= target) return QueryStats::LatencyBucketUpperNanos(b);
  }
  return QueryStats::LatencyBucketUpperNanos(kVerbLatencyBuckets - 1);
}

}  // namespace

std::string FormatNanos(double nanos) {
  std::ostringstream os;
  os.precision(3);
  if (nanos < 1e3) {
    os << nanos << "ns";
  } else if (nanos < 1e6) {
    os << nanos / 1e3 << "us";
  } else if (nanos < 1e9) {
    os << nanos / 1e6 << "ms";
  } else {
    os << nanos / 1e9 << "s";
  }
  return os.str();
}

std::string QueryStats::Render() const {
  std::ostringstream os;
  bool first = true;
  for (size_t i = 0; i < kNumQueryVerbs; ++i) {
    const QueryVerb verb = static_cast<QueryVerb>(i);
    const VerbCounters c = Read(verb);
    if (c.count == 0) continue;
    if (!first) os << '\n';
    first = false;
    os << QueryVerbName(verb) << " count=" << c.count
       << " errors=" << c.errors << " mean="
       << FormatNanos(static_cast<double>(c.total_nanos) /
                      static_cast<double>(c.count))
       << " p50<="
       << FormatNanos(static_cast<double>(QuantileUpperNanos(c, 0.5)))
       << " p99<="
       << FormatNanos(static_cast<double>(QuantileUpperNanos(c, 0.99)));
  }
  return os.str();
}

void PublishStats::RecordPublish(int64_t nanos, int64_t staleness_us) {
  if (nanos < 0) nanos = 0;
  if (staleness_us < 0) staleness_us = 0;
  publishes_.fetch_add(1, std::memory_order_relaxed);
  total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  latency_[QueryStats::LatencyBucketIndex(nanos)].fetch_add(
      1, std::memory_order_relaxed);
  int64_t seen = max_staleness_us_.load(std::memory_order_relaxed);
  while (staleness_us > seen &&
         !max_staleness_us_.compare_exchange_weak(seen, staleness_us,
                                                  std::memory_order_relaxed)) {
  }
}

void PublishStats::RecordSkipped() {
  skipped_.fetch_add(1, std::memory_order_relaxed);
}

PublishCounters PublishStats::Read() const {
  PublishCounters out;
  out.publishes = publishes_.load(std::memory_order_relaxed);
  out.skipped = skipped_.load(std::memory_order_relaxed);
  out.max_staleness_us = max_staleness_us_.load(std::memory_order_relaxed);
  out.total_nanos = total_nanos_.load(std::memory_order_relaxed);
  for (size_t b = 0; b < kVerbLatencyBuckets; ++b) {
    out.latency[b] = latency_[b].load(std::memory_order_relaxed);
  }
  return out;
}

std::string PublishStats::Render() const {
  const PublishCounters c = Read();
  if (c.publishes == 0) return {};
  // Reuse the verb-quantile machinery: only count/latency matter to it.
  VerbCounters as_verb;
  as_verb.count = c.publishes;
  as_verb.latency = c.latency;
  std::ostringstream os;
  os << "publish count=" << c.publishes << " skipped=" << c.skipped
     << " max_staleness=" << c.max_staleness_us << "us mean="
     << FormatNanos(static_cast<double>(c.total_nanos) /
                    static_cast<double>(c.publishes))
     << " p50<="
     << FormatNanos(static_cast<double>(QuantileUpperNanos(as_verb, 0.5)))
     << " p99<="
     << FormatNanos(static_cast<double>(QuantileUpperNanos(as_verb, 0.99)));
  return os.str();
}

}  // namespace streamhist
