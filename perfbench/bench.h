#ifndef STREAMHIST_PERFBENCH_BENCH_H_
#define STREAMHIST_PERFBENCH_BENCH_H_

// Shared pieces of the load generator: seeded inputs, sample statistics, the
// in-memory span log, and the per-layer (traced) measurements.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: every input the benchmark sends derives from --seed through
/// this generator, so one seed always yields the same statements and values.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  Rng(uint64_t seed, uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int64_t Below(int64_t n) { return static_cast<int64_t>(Next() % uint64_t(n)); }
  double Gaussian() {
    const double u = std::max(Uniform(), 1e-300);
    return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * Uniform());
  }

 private:
  uint64_t state_;
};

/// One stream's measurement series: a utilization-like level in [40, 60]
/// with AR(1) noise and rare level shifts, so range sums stay well away from
/// zero and histograms have real structure to find. Every stream has the
/// same statistics, so accuracy figures do not swing with the seed.
class Source {
 public:
  Source(uint64_t seed, int64_t index)
      : rng_(seed, 1000 + static_cast<uint64_t>(index)),
        level_(40.0 + 20.0 * rng_.Uniform()) {}
  double Next() {
    if (rng_.Uniform() < 0.004) level_ = 40.0 + 20.0 * rng_.Uniform();
    noise_ = 0.9 * noise_ + 4.0 * rng_.Gaussian();
    return std::clamp(level_ + noise_, 0.0, 100.0);
  }

 private:
  Rng rng_;
  double level_;
  double noise_ = 0.0;
};

/// Linear-interpolated quantile of `v` (copied); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One timed interval: a request on the wire, or a call into one layer from
/// the benchmark's own code. Spans of one request share `trace`; `parent` is
/// the enclosing span's id (0 for a root).
struct Span {
  int64_t id = 0;
  int64_t trace = 0;
  int64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t stream = -1;  // stream index, -1 when none
};

/// Spans stay in memory (bounded) and are written once, at exit.
class SpanLog {
 public:
  explicit SpanLog(size_t cap) : cap_(cap) { spans_.reserve(std::min<size_t>(cap, 1 << 16)); }
  /// Records a span; returns its id (0 once the log is full).
  int64_t Add(Span span) {
    if (spans_.size() >= cap_) return 0;
    span.id = static_cast<int64_t>(spans_.size()) + 1 + id_base_;
    spans_.push_back(span);
    return span.id;
  }
  /// Sets the end time of a span added open-ended (id 0 is ignored).
  void Close(int64_t id, int64_t end_ns) {
    if (id > id_base_) spans_[static_cast<size_t>(id - id_base_ - 1)].end_ns = end_ns;
  }
  void set_id_base(int64_t base) { id_base_ = base; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  size_t cap_;
  int64_t id_base_ = 0;
  std::vector<Span> spans_;
};

/// What a workload's streams look like.
struct Shape {
  int streams = 0;
  int64_t window = 0;
  int64_t buckets = 0;
  int64_t fill = 0;  // values appended per stream during set-up (> window)
};

/// Inputs for the in-process layer measurements of a traced run, taken from
/// the run itself: the streams' acked values, the frames it sent, the WAL
/// record size of its timed writes, and the statements it read with.
struct LayerInputs {
  Shape shape;
  std::vector<std::vector<double>> histories;  // per stream, oldest first
  std::vector<std::string> frames;             // encoded batch-APPEND frames
  int64_t record_values = 1;                   // values per timed WAL record
  std::vector<std::string> read_statements;    // the run's read mix (if any)
  std::vector<std::string> read_verbs;         // verb of each statement
  std::string scratch_dir;                     // for the standalone WAL
};

/// Runs every in-process layer measurement, recording a span around each
/// call into `log`, and adds the per-layer metrics to `metrics`. Sets
/// `problem` when a result breaks its guarantee (the approximate DP's
/// certified SSE factor). Returns the median in-process Execute time of
/// `read_statements` (µs; 0 when none).
double MeasureLayers(const LayerInputs& in, SpanLog* log,
                     std::map<std::string, double>* metrics,
                     std::string* problem);

}  // namespace perfbench

#endif  // STREAMHIST_PERFBENCH_BENCH_H_
