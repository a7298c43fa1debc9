// The streamhist benchmark's load generator: starts the real server, loads
// it, drives one workload over TCP for a fixed time, checks every answer it
// can, and prints the run's metrics. See NOTES.md for why each workload
// exists and which layer each metric belongs to.
//
//   perfbench_gen --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --tool <streamhist_tool> --run-dir <dir> [--trace-out <f>]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones. Exit 0 when every check passed, 1 when one failed, 2
// when the run could not be set up (then no JSON line is printed).

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "net.h"
#include "src/core/fixed_window.h"
#include "src/server/wire.h"

namespace perfbench {
namespace {

enum class Kind { kReadWarm, kIngestDurable };

struct Workload {
  const char* name;
  Kind kind;
  Shape shape;
};

// Why these workloads: NOTES.md. Every window is over-filled (fill >
// window) so eviction is in steady state before timing starts.
const Workload kWorkloads[] = {
    {"read_warm", Kind::kReadWarm, {64, 1024, 16, 1280}},
    {"ingest_durable", Kind::kIngestDurable, {64, 1024, 16, 1280}},
};

constexpr int kSetups = 5;                // set-ups per run; setup_s = median
constexpr double kWarmupSeconds = 2.0;    // untimed load before measuring
constexpr int64_t kSetupFrameValues = 1024;
constexpr int64_t kIngestFrameValues = 64;
// read_warm statements per write. Pipelining spreads the two thread wakeups
// of a round trip over many reads, so host scheduling delays move the
// figures less and the server's own per-read work more (NOTES.md).
constexpr size_t kPipelineDepth = 16;
constexpr double kQuantileEpsilon = 0.01;  // StreamConfig default
constexpr size_t kRequestSpans = 20000;
constexpr int kStallsTolerated = 4;  // read_warm rebuild check, see Run()

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tool;
  std::string run_dir;
  std::string trace_out;
};

std::string StreamName(int64_t i) {
  char name[16];
  std::snprintf(name, sizeof(name), "s%02lld", static_cast<long long>(i));
  return name;
}

std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

bool ParseDouble(std::string_view text, double* out) {
  while (!text.empty() && text.front() == ' ') text.remove_prefix(1);
  const auto r = std::from_chars(text.data(), text.data() + text.size(), *out);
  return r.ec == std::errc() && r.ptr == text.data() + text.size();
}

/// The number after `key` in `text` (0 when absent).
double After(const std::string& text, const std::string& key) {
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

/// FormatNanos output ("812ns", "3.2us", "1.5ms", "2s") in microseconds.
double NanosTextToUs(const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  const std::string unit(end);
  if (unit.rfind("ns", 0) == 0) return v / 1e3;
  if (unit.rfind("us", 0) == 0) return v;
  if (unit.rfind("ms", 0) == 0) return v * 1e3;
  return v * 1e6;
}

/// One read statement and what is needed to check its answer.
struct ReadOp {
  std::string text;
  const char* verb = "";
  int64_t stream = 0;
  bool histogram = false;  // answered from the window histogram section
  int64_t lo = 0, hi = 0;  // SUM/AVG range, POINT index in lo
  double phi = 0.0;
};

// The read mix: 6 SUM, 4 AVG, 4 POINT, 3 QUANTILE, 3 COUNT per 20 reads,
// cycled in this fixed order so the mix itself never varies between runs.
// The proportions are synthetic: no recorded traffic backs them (NOTES.md).
constexpr const char* kReadPattern[20] = {
    "SUM",   "AVG", "POINT", "SUM",      "QUANTILE", "SUM",   "COUNT",
    "AVG",   "SUM", "POINT", "QUANTILE", "SUM",      "AVG",   "COUNT",
    "POINT", "SUM", "AVG",   "QUANTILE", "POINT",    "COUNT"};
constexpr double kPhis[] = {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};

ReadOp MakeRead(Rng& rng, int64_t stream, int64_t window, int64_t seq) {
  ReadOp op;
  op.verb = kReadPattern[seq % 20];
  op.stream = stream;
  const std::string name = StreamName(stream);
  const std::string verb(op.verb);
  if (verb == "SUM" || verb == "AVG") {
    op.histogram = true;
    op.lo = rng.Below(window);
    op.hi = op.lo + 1 + rng.Below(window - op.lo);
    op.text = verb + " " + name + " " + std::to_string(op.lo) + " " +
              std::to_string(op.hi) + "\n";
  } else if (verb == "POINT") {
    op.histogram = true;
    op.lo = rng.Below(window);
    op.text = "POINT " + name + " " + std::to_string(op.lo) + "\n";
  } else if (verb == "QUANTILE") {
    op.phi = kPhis[rng.Below(7)];
    op.text = "QUANTILE " + name + " " + Num(op.phi) + "\n";
  } else {
    op.text = "COUNT " + name + "\n";
  }
  return op;
}

/// What a read_warm stream must answer: the histogram the server's lazy window
/// section materializes from the same contents, and the sorted values for
/// the quantile summary's rank guarantee.
struct Model {
  streamhist::Histogram histogram;
  std::vector<double> sorted;
};

struct StreamData {
  std::string name;
  Source source;
  std::vector<double> history;  // every value the server acked, in order
};

/// Everything the load loop measured in one phase.
struct PhaseResult {
  double seconds = 0.0;
  int64_t start_ns = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wrong = 0;
  std::string first_problem;
  // The workload's timed operation, a batch of kPipelineDepth reads or one
  // frame: its duration, and its completion time (steady clock).
  std::vector<double> op_us;
  std::vector<int64_t> op_end_ns;
  int64_t histogram_reads = 0;   // SUM/AVG/POINT reads
  int64_t values_acked = 0;
  std::vector<std::string> frames;  // sample of sent batch frames

  void Problem(const std::string& what) {
    ++wrong;
    if (first_problem.empty()) first_problem = what;
  }
  /// Adds `o` to the run's totals.
  void Merge(const PhaseResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    if (first_problem.empty()) first_problem = o.first_problem;
    op_us.insert(op_us.end(), o.op_us.begin(), o.op_us.end());
    op_end_ns.insert(op_end_ns.end(), o.op_end_ns.begin(), o.op_end_ns.end());
    histogram_reads += o.histogram_reads;
  }
};

class Bench {
 public:
  Bench(const Workload& w, const Options& opt)
      : w_(w), opt_(opt), rng_(opt.seed, 17) {
    for (int i = 0; i < w.shape.streams; ++i) {
      streams_.push_back({StreamName(i), Source(opt.seed, i), {}});
      for (int64_t v = 0; v < w.shape.fill; ++v) {
        streams_.back().history.push_back(streams_.back().source.Next());
      }
    }
  }

  /// Reference answers computed from the generated inputs alone, before
  /// the server sees them.
  void PrepareReferences() {
    if (w_.kind == Kind::kReadWarm) {
      streamhist::FixedWindowOptions options;
      options.window_size = w_.shape.window;
      options.num_buckets = w_.shape.buckets;
      options.epsilon = 0.1;  // StreamConfig default
      options.rebuild_on_append = false;
      for (const StreamData& s : streams_) {
        Model model;
        auto fw = streamhist::FixedWindowHistogram::FromContents(
            options, Window(s.history));
        model.histogram = fw.Extract();
        model.sorted = s.history;
        std::sort(model.sorted.begin(), model.sorted.end());
        models_.push_back(std::move(model));
      }
    }
    for (const StreamData& s : streams_) {
      for (int64_t at = 0; at < w_.shape.fill; at += kSetupFrameValues) {
        const int64_t n = std::min(kSetupFrameValues, w_.shape.fill - at);
        setup_frames_.push_back(streamhist::net::EncodeBatchAppend(
            s.name, std::span<const double>(s.history.data() + at,
                                            static_cast<size_t>(n))));
        setup_frame_values_.push_back(n);
      }
    }
  }

  /// kSetups fresh servers, each loaded from scratch; keeps the last one.
  /// Returns false (with `error_`) when any set-up step fails.
  bool SetUp(std::vector<double>* seconds) {
    for (int i = 0; i < kSetups; ++i) {
      if (server_ != nullptr) {
        int status = 0;
        control_.reset();
        server_->Stop(&status);
        server_.reset();
      }
      const std::string wal_dir = opt_.run_dir + "/wal" + std::to_string(i);
      std::filesystem::remove_all(wal_dir);
      if (i > 0) {
        std::filesystem::remove_all(opt_.run_dir + "/wal" +
                                    std::to_string(i - 1));
      }
      const int64_t t0 = NowNs();
      if (!SetUpOnce(wal_dir)) return false;
      seconds->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    return true;
  }

  /// Opens the one load connection. One closed loop keeps two threads busy,
  /// the generator and the server worker answering it, and leaves the rest
  /// of a 4-vCPU host to its other work instead of queueing behind it
  /// (NOTES.md). The server deals connections to its two workers
  /// round-robin in accept order, so with the control connection on worker
  /// 0 this one lands on worker 1.
  bool Connect() {
    load_ = Conn::Dial(server_->port());
    Reply r;
    if (load_ == nullptr || !load_->Call("LIST\n", &r) || !r.ok) {
      return Fail("dial failed");
    }
    return true;
  }

  /// Runs the workload for `seconds`; `log` non-null in the traced phase.
  PhaseResult RunPhase(double seconds, SpanLog* log) {
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    PhaseResult result;
    if (w_.kind == Kind::kReadWarm) {
      ReadLoop(end, log, &result);
    } else {
      IngestLoop(end, log, &result);
    }
    result.seconds = static_cast<double>(NowNs() - start) / 1e9;
    result.start_ns = start;
    return result;
  }

  /// After the timed phases: every stream's COUNT equals its set-up values
  /// plus its acked appends, and SUMBOUND / AVGBOUND answers lie within
  /// their certified bounds of the exact sums over the generator's own copy
  /// of each window. Fills `rel_err` with |estimate - exact| / |exact| of
  /// every SUMBOUND.
  void CheckFinalState(PhaseResult* r, std::vector<double>* rel_err) {
    Rng rng(opt_.seed, 99);
    struct Check {
      enum { kFlush, kCount, kSum, kAvg } kind;
      int64_t stream, lo, hi;
    };
    std::vector<Check> checks;
    std::string batch = "FLUSH\n";
    checks.push_back({Check::kFlush, 0, 0, 0});
    // 64 ranges a stream: with 16, the median relative error moved ~15%
    // between seeds from the draw of ranges alone.
    const int64_t ranges = 64;
    const int64_t window = w_.shape.window;
    for (int64_t s = 0; s < w_.shape.streams; ++s) {
      const std::string& name = streams_[static_cast<size_t>(s)].name;
      batch += "COUNT " + name + "\n";
      checks.push_back({Check::kCount, s, 0, 0});
      for (int64_t i = 0; i < ranges + 2; ++i) {
        const int64_t lo = rng.Below(window);
        const int64_t hi = lo + 1 + rng.Below(window - lo);
        const bool avg = i >= ranges;
        batch += std::string(avg ? "AVGBOUND " : "SUMBOUND ") + name + " " +
                 std::to_string(lo) + " " + std::to_string(hi) + "\n";
        checks.push_back({avg ? Check::kAvg : Check::kSum, s, lo, hi});
      }
    }
    if (!control_->Send(batch)) {
      r->failed += static_cast<int64_t>(checks.size());
      r->Problem("control connection lost before the final checks");
      return;
    }
    for (const Check& c : checks) {
      Reply reply;
      ++r->attempted;
      if (!control_->Read(&reply) || !reply.ok) {
        ++r->failed;
        r->Problem("final check failed: " + reply.code + " " + reply.text);
        continue;
      }
      if (c.kind == Check::kFlush) continue;
      const StreamData& s = streams_[static_cast<size_t>(c.stream)];
      if (c.kind == Check::kCount) {
        double count = 0;
        if (!ParseDouble(reply.text, &count) ||
            count != static_cast<double>(s.history.size())) {
          r->Problem("COUNT " + s.name + " = " + reply.text + ", expected " +
                     std::to_string(s.history.size()));
        }
        continue;
      }
      const size_t pm = reply.text.find(" +- ");
      double est = 0, bound = 0;
      if (pm == std::string::npos ||
          !ParseDouble(std::string_view(reply.text).substr(0, pm), &est) ||
          !ParseDouble(std::string_view(reply.text).substr(pm + 4), &bound)) {
        r->Problem("unparseable bound reply: " + reply.text);
        continue;
      }
      const std::vector<double> win = Window(s.history);
      long double exact = 0, magnitude = 0;
      for (int64_t i = c.lo; i < c.hi; ++i) {
        exact += win[static_cast<size_t>(i)];
        magnitude += std::abs(win[static_cast<size_t>(i)]);
      }
      double scale = 1.0;
      if (c.kind == Check::kAvg) scale = static_cast<double>(c.hi - c.lo);
      const double want = static_cast<double>(exact) / scale;
      // Rounding slack for sums the server derives from prefix sums.
      const double tol = 1e-6 * static_cast<double>(magnitude) / scale + 1e-9;
      if (std::abs(est - want) > bound + tol) {
        r->Problem(reply.text + " misses the exact " + Num(want) + " for " +
                   s.name + " [" + std::to_string(c.lo) + ", " +
                   std::to_string(c.hi) + ")");
      }
      if (c.kind == Check::kSum && want != 0.0) {
        rel_err->push_back(std::abs(est - want) / std::abs(want));
      }
    }
  }

  /// MEMORY, WAL and (traced) STATS readings from the live server.
  bool ReadServerStats(std::map<std::string, double>* out) {
    Reply r;
    if (!control_->Call("MEMORY\n", &r) || !r.ok) return Fail("MEMORY failed");
    (*out)["mem_peak_bytes"] = After(r.text, "peak=");
    if (!control_->Call("WAL\n", &r) || !r.ok) return Fail("WAL failed");
    (*out)["wal_bytes"] = After(r.text, "; bytes=");
    (*out)["wal_fsyncs"] = After(r.text, "fsyncs=");
    (*out)["wal_sync_waits"] = After(r.text, "sync waits=");
    if (!control_->Call("STATS\n", &r) || !r.ok) return Fail("STATS failed");
    // Per-stream "publish count=N ... p50<=X" lines: total publishes and the
    // publish-count-weighted median of the per-stream p50 bounds.
    std::istringstream lines(r.text);
    std::string line;
    std::vector<std::pair<double, double>> p50s;  // (p50 us, publishes)
    double publishes = 0;
    while (std::getline(lines, line)) {
      if (line.rfind("publish count=", 0) != 0) continue;
      const double count = After(line, "publish count=");
      const size_t at = line.find("p50<=");
      if (at == std::string::npos) continue;
      publishes += count;
      p50s.emplace_back(NanosTextToUs(line.substr(at + 5)), count);
    }
    std::sort(p50s.begin(), p50s.end());
    double seen = 0, p50 = 0;
    for (const auto& [us, count] : p50s) {
      seen += count;
      p50 = us;
      if (seen * 2 >= publishes) break;
    }
    (*out)["publishes"] = publishes;
    (*out)["publish_p50_us"] = p50;
    return true;
  }

  /// Closes every connection and stops the server; parses its summary line.
  bool Shutdown(std::map<std::string, double>* out) {
    load_.reset();
    control_.reset();
    int status = -1;
    const std::string summary = server_->Stop(&status);
    server_.reset();
    long long st = 0, st_err = 0, frames = 0, values = 0, accepted = 0,
              refused = 0, slow = 0, proto = 0;
    const size_t at = summary.find("serve: ");
    if (status != 0 || at == std::string::npos ||
        std::sscanf(summary.c_str() + at,
                    "serve: %lld statements (%lld errors), %lld batch frames "
                    "(%lld values), %lld connections (%lld refused, %lld "
                    "slow-reader disconnects, %lld protocol errors)",
                    &st, &st_err, &frames, &values, &accepted, &refused, &slow,
                    &proto) != 8) {
      return Fail("server did not shut down cleanly: " + summary);
    }
    (*out)["statements"] = static_cast<double>(st);
    (*out)["batch_frames"] = static_cast<double>(frames);
    (*out)["protocol_errors"] = static_cast<double>(proto);
    (*out)["refused"] = static_cast<double>(refused + slow);
    return true;
  }

  /// The inputs of the traced run's in-process layer measurements.
  LayerInputs MakeLayerInputs(const PhaseResult& traced) {
    LayerInputs in;
    in.shape = w_.shape;
    for (const StreamData& s : streams_) in.histories.push_back(s.history);
    in.frames = traced.frames.empty() ? setup_frames_ : traced.frames;
    in.record_values = w_.kind == Kind::kIngestDurable
                           ? kIngestFrameValues
                           : setup_frame_values_.front();
    Rng rng(opt_.seed, 77);
    const int64_t k = std::min<int64_t>(w_.shape.streams, 4);
    for (int64_t i = 0; i < 500; ++i) {
      const ReadOp op = MakeRead(rng, rng.Below(k), w_.shape.window, i);
      in.read_statements.push_back(op.text.substr(0, op.text.size() - 1));
      in.read_verbs.push_back(op.verb);
    }
    in.scratch_dir = opt_.run_dir;
    return in;
  }

  int64_t values_total() const {
    int64_t n = 0;
    for (const StreamData& s : streams_) {
      n += static_cast<int64_t>(s.history.size());
    }
    return n;
  }
  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = what;
    return false;
  }

  std::vector<double> Window(const std::vector<double>& history) const {
    const size_t n =
        std::min(history.size(), static_cast<size_t>(w_.shape.window));
    return std::vector<double>(history.end() - static_cast<ptrdiff_t>(n),
                               history.end());
  }

  /// Sends `batch` and expects `n` OK replies whose text starts `prefix`.
  bool Pipeline(const std::string& batch, size_t n, const std::string& prefix) {
    if (!control_->Send(batch)) return Fail("set-up send failed");
    for (size_t i = 0; i < n; ++i) {
      Reply r;
      if (!control_->Read(&r) || !r.ok || r.text.rfind(prefix, 0) != 0) {
        return Fail("set-up reply: " + r.code + " " + r.text);
      }
    }
    return true;
  }

  bool SetUpOnce(const std::string& wal_dir) {
    std::string error;
    server_ = Server::Start(opt_.tool, wal_dir, &error);
    if (server_ == nullptr) return Fail(error);
    control_ = Conn::Dial(server_->port());
    if (control_ == nullptr) return Fail("cannot connect to the server");
    std::string creates;
    for (const StreamData& s : streams_) {
      creates += "CREATE " + s.name + " " + std::to_string(w_.shape.window) +
                 " " + std::to_string(w_.shape.buckets) + "\n";
    }
    if (!Pipeline(creates, streams_.size(), "created")) return false;
    std::string frames;
    for (const std::string& f : setup_frames_) frames += f;
    if (!Pipeline(frames, setup_frames_.size(), "appended")) return false;
    if (w_.kind == Kind::kReadWarm) {
      std::string reads;
      for (const StreamData& s : streams_) {
        reads += "SUM " + s.name + " 0 " + std::to_string(w_.shape.window) +
                 "\n";
      }
      if (!Pipeline(reads, streams_.size(), "")) return false;
    }
    return true;
  }

  /// Checks one read answer against the stream's model.
  void CheckRead(const ReadOp& op, const std::string& text, PhaseResult* r) {
    double got = 0;
    if (!ParseDouble(text, &got)) {
      r->Problem("unparseable answer to " + op.text + ": " + text);
      return;
    }
    const std::string verb(op.verb);
    const Model& m = models_[static_cast<size_t>(op.stream)];
    double want = got;
    if (verb == "SUM") want = m.histogram.RangeSum(op.lo, op.hi);
    if (verb == "AVG") {
      want = m.histogram.RangeSum(op.lo, op.hi) /
             static_cast<double>(op.hi - op.lo);
    }
    if (verb == "POINT") want = m.histogram.Estimate(op.lo);
    if (verb == "COUNT") want = static_cast<double>(m.sorted.size());
    // Answers are printed to 12 significant digits.
    bool ok = std::abs(got - want) <= 1e-9 * (1.0 + std::abs(want));
    if (verb == "QUANTILE") {
      // GK: the answer is a seen value (printed to 12 digits) whose rank is
      // within eps*n of the target rank ceil(phi*n).
      const double n = static_cast<double>(m.sorted.size());
      const double tol = 1e-9 * (1.0 + std::abs(got));
      const auto lo =
          std::lower_bound(m.sorted.begin(), m.sorted.end(), got - tol);
      const auto hi =
          std::upper_bound(m.sorted.begin(), m.sorted.end(), got + tol);
      const double target = std::clamp(std::ceil(op.phi * n), 1.0, n);
      const double slack = kQuantileEpsilon * n + 1.0;
      const double rank_lo = static_cast<double>(lo - m.sorted.begin()) + 1;
      const double rank_hi = static_cast<double>(hi - m.sorted.begin());
      ok = hi > lo && rank_lo <= target + slack && rank_hi >= target - slack;
    }
    if (!ok) {
      r->Problem(op.text + " answered " + text + ", expected " + Num(want));
    }
  }

  /// Closed-loop pipelined reads of the read mix over uniformly chosen
  /// streams: kPipelineDepth statements go out in one write, and the next
  /// batch waits for all their replies. Each batch is timed from its
  /// send to its last reply, the time a client waiting for the batch sees;
  /// answers are checked after the batch's last reply.
  void ReadLoop(int64_t end, SpanLog* log, PhaseResult* r) {
    std::vector<ReadOp> ops(kPipelineDepth);
    std::vector<Reply> replies(kPipelineDepth);
    std::vector<int64_t> done_ns(kPipelineDepth);
    while (NowNs() < end) {
      std::string batch;
      for (ReadOp& op : ops) {
        op = MakeRead(rng_, rng_.Below(w_.shape.streams), w_.shape.window,
                      read_seq_++);
        batch += op.text;
      }
      const int64_t t0 = NowNs();
      bool alive = load_->Send(batch);
      for (size_t i = 0; i < ops.size(); ++i) {
        replies[i] = Reply();
        if (alive) alive = load_->Read(&replies[i]);
        done_ns[i] = NowNs();
      }
      if (alive) {
        r->op_us.push_back(static_cast<double>(done_ns.back() - t0) / 1e3);
        r->op_end_ns.push_back(done_ns.back());
      }
      for (size_t i = 0; i < ops.size(); ++i) {
        const ReadOp& op = ops[i];
        ++r->attempted;
        if (!replies[i].ok) {
          ++r->failed;
          r->Problem(op.text + " failed: " + replies[i].code + " " +
                     replies[i].text);
          continue;
        }
        CheckRead(op, replies[i].text, r);
        if (op.histogram) ++r->histogram_reads;
        if (log != nullptr && log->spans().size() < kRequestSpans) {
          log->Add({0, ++span_seq_, 0, op.verb, t0, done_ns[i], op.stream});
        }
      }
      if (!alive) return;
    }
  }

  /// Closed-loop 64-value batch frames to uniformly chosen streams; one
  /// connection sends them all, so each stream's arrival order is known.
  void IngestLoop(int64_t end, SpanLog* log, PhaseResult* r) {
    std::vector<double> values(static_cast<size_t>(kIngestFrameValues));
    const std::string expect =
        "appended " + std::to_string(kIngestFrameValues) + " point(s)";
    while (NowNs() < end) {
      const int64_t stream = rng_.Below(w_.shape.streams);
      StreamData& s = streams_[static_cast<size_t>(stream)];
      for (double& v : values) v = s.source.Next();
      const std::string frame = streamhist::net::EncodeBatchAppend(s.name, values);
      const int64_t t0 = NowNs();
      Reply reply;
      const bool alive = load_->Call(frame, &reply);
      const int64_t t1 = NowNs();
      ++r->attempted;
      if (!alive || !reply.ok || reply.text != expect) {
        ++r->failed;
        r->Problem("batch frame failed: " + reply.code + " " + reply.text);
        if (!alive) return;
        continue;
      }
      s.history.insert(s.history.end(), values.begin(), values.end());
      r->values_acked += kIngestFrameValues;
      const double us = static_cast<double>(t1 - t0) / 1e3;
      r->op_us.push_back(us);
      r->op_end_ns.push_back(t1);
      if (r->frames.size() < 256) r->frames.push_back(frame);
      if (log != nullptr && log->spans().size() < kRequestSpans) {
        log->Add({0, ++span_seq_, 0, "APPEND(frame)", t0, t1, stream});
      }
    }
  }

  const Workload& w_;
  const Options& opt_;
  std::vector<StreamData> streams_;
  Rng rng_;
  std::vector<Model> models_;  // read_warm only
  std::vector<std::string> setup_frames_;
  std::vector<int64_t> setup_frame_values_;
  int64_t read_seq_ = 0;
  int64_t span_seq_ = 1;  // trace ids of request spans
  std::unique_ptr<Server> server_;
  std::unique_ptr<Conn> control_;
  std::unique_ptr<Conn> load_;
  std::string error_;
};

constexpr double kSliceSeconds = 1.0;
// Host noise only ever slows a slice down, so each figure comes from the
// fast quartile of the slices rather than their median: a stretch of
// interference moves it only when it covers more than three quarters of
// the run (NOTES.md).
constexpr double kFastQuartile = 0.25;

/// The measured phase cut into slices of kSliceSeconds by completion time:
/// per slice, throughput in items (`per_op` to an operation) and the p50
/// and p90 of the timed operation.
struct Summary {
  double throughput_per_s = 0.0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  std::vector<double> slice_tput;  // for the stderr report
};

Summary Summarize(const PhaseResult& m, size_t per_op) {
  const int n = std::max(1, static_cast<int>(m.seconds / kSliceSeconds));
  std::vector<std::vector<double>> slices(static_cast<size_t>(n));
  const double slice_ns = m.seconds * 1e9 / n;
  for (size_t i = 0; i < m.op_us.size(); ++i) {
    const int k = static_cast<int>(
        static_cast<double>(m.op_end_ns[i] - m.start_ns) / slice_ns);
    slices[static_cast<size_t>(std::clamp(k, 0, n - 1))].push_back(
        m.op_us[i]);
  }
  Summary r;
  std::vector<double> p50, p90;
  for (const std::vector<double>& s : slices) {
    r.slice_tput.push_back(static_cast<double>(s.size() * per_op) /
                           (slice_ns / 1e9));
    p50.push_back(Quantile(s, 0.5));
    p90.push_back(Quantile(s, 0.9));
  }
  r.throughput_per_s = Quantile(r.slice_tput, 1.0 - kFastQuartile);
  r.p50_us = Quantile(p50, kFastQuartile);
  r.p90_us = Quantile(p90, kFastQuartile);
  return r;
}

struct Metric {
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<std::pair<std::string, Metric>>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            Num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
}

const char* LayerUnit(const std::string& name) {
  if (name.ends_with("_us") || name.find("_us.") != std::string::npos) {
    return "us";
  }
  if (name.ends_with("_ms")) return "ms";
  if (name.ends_with("_ratio") || name.ends_with("_frac") ||
      name.ends_with("_per_wait")) {
    return "ratio";
  }
  if (name.ends_with("_per_value")) return "B";
  return "count";
}

void WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  if (path.empty()) return;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      out << "{\"id\": " << s.id << ", \"trace\": " << s.trace
          << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"stream\": " << s.stream << "}\n";
    }
  }
}

int Run(const Options& opt) {
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (opt.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  std::filesystem::create_directories(opt.run_dir);
  Bench bench(*w, opt);
  bench.PrepareReferences();
  std::vector<double> setup_seconds;
  if (!bench.SetUp(&setup_seconds) || !bench.Connect()) {
    std::cerr << "set-up failed: " << bench.error() << "\n";
    return 2;
  }

  PhaseResult all;
  all.Merge(bench.RunPhase(kWarmupSeconds, nullptr));
  PhaseResult measured, untraced;
  std::vector<SpanLog> logs;
  // Request spans, then the in-process layer calls.
  for (const size_t cap : {kRequestSpans, size_t{1} << 20}) {
    logs.emplace_back(cap);
    logs.back().set_id_base(static_cast<int64_t>(logs.size() - 1) << 48);
  }
  if (opt.trace) {
    // Half untraced, half traced: the throughput ratio is the tracing
    // overhead.
    untraced = bench.RunPhase(opt.seconds / 2, nullptr);
    measured = bench.RunPhase(opt.seconds / 2, &logs.front());
  } else {
    measured = bench.RunPhase(opt.seconds, nullptr);
  }
  PhaseResult checks;
  std::vector<double> rel_err;
  bench.CheckFinalState(&checks, &rel_err);
  std::map<std::string, double> server;
  const bool stats_ok = bench.ReadServerStats(&server);
  const bool shutdown_ok = bench.Shutdown(&server);

  // Totals over every phase, including warm-up and the final checks.
  all.Merge(untraced);
  all.Merge(measured);
  all.Merge(checks);
  const int64_t attempted = all.attempted;
  const int64_t failed =
      all.failed + static_cast<int64_t>(server["refused"]) +
      static_cast<int64_t>(server["protocol_errors"]);
  std::string problem = all.first_problem;
  if (!stats_ok || !shutdown_ok) problem = bench.error();
  if (failed > all.failed && problem.empty()) {
    problem = "the server refused a connection or saw a protocol error";
  }

  const bool reads = w->kind == Kind::kReadWarm;
  const size_t per_op = reads ? kPipelineDepth : 1;
  const double ops = static_cast<double>(measured.op_us.size());
  std::vector<std::pair<std::string, Metric>> metrics;
  if (!opt.trace) {
    const Summary sum = Summarize(measured, per_op);
    metrics = {
        {"setup_s", {Quantile(setup_seconds, 0.5), "s"}},
        {"throughput_per_s", {sum.throughput_per_s, "1/s"}},
        {"latency_p50_us", {sum.p50_us, "us"}},
        {"latency_p90_us", {sum.p90_us, "us"}},
        {"mem_peak_mb", {server["mem_peak_bytes"] / 1048576.0, "MB"}},
        {"sum_rel_err", {Quantile(rel_err, 0.5), "ratio"}},
    };
    // The same figures under the names the workload's users know them by.
    const auto named = [&](const char* name, double v, const char* unit,
                           size_t n) {
      std::cerr << "  " << name << " = " << Num(v) << " " << unit
                << " (n=" << n << ")\n";
    };
    std::cerr << w->name << " (seed " << opt.seed << ", " << opt.seconds
              << " s):\n";
    const size_t n = measured.op_us.size();
    const size_t counts[] = {setup_seconds.size(), n, n, n, 1, rel_err.size()};
    for (size_t i = 0; i < metrics.size(); ++i) {
      named(metrics[i].first.c_str(), metrics[i].second.value,
            metrics[i].second.unit, counts[i]);
    }
    if (reads) {
      named("reads_per_s", ops * per_op / measured.seconds, "1/s", n * per_op);
      named("read_batch_p50_us", Quantile(measured.op_us, 0.5), "us", n);
      named("read_batch_p99_us", Quantile(measured.op_us, 0.99), "us", n);
      named("range_sum_rel_err", Quantile(rel_err, 0.5), "ratio",
            rel_err.size());
    } else {
      named("ingest_values_per_s",
            static_cast<double>(measured.values_acked) / measured.seconds,
            "1/s", n);
      named("append_ack_p50_us", Quantile(measured.op_us, 0.5), "us", n);
      named("append_ack_p99_us", Quantile(measured.op_us, 0.99), "us", n);
    }
    const std::vector<double>& st = sum.slice_tput;
    std::cerr << "  slice throughput min/q1/median/q3/max = "
              << Num(Quantile(st, 0)) << " / " << Num(Quantile(st, 0.25))
              << " / " << Num(Quantile(st, 0.5)) << " / "
              << Num(Quantile(st, 0.75)) << " / " << Num(Quantile(st, 1))
              << " 1/s (n=" << st.size() << " slices)\n";
    named("failed_op_frac",
          static_cast<double>(failed) / static_cast<double>(attempted), "ratio",
          static_cast<size_t>(attempted));
  } else {
    LayerInputs in = bench.MakeLayerInputs(measured);
    std::map<std::string, double> layer;
    std::string layer_problem;
    const double execute_us =
        MeasureLayers(in, &logs.back(), &layer, &layer_problem);
    if (!layer_problem.empty() && problem.empty()) problem = layer_problem;
    // Per read: the median batch round trip shared over its reads, less the
    // engine's own time for one read.
    layer["server.read_self_us"] =
        reads ? Quantile(measured.op_us, 0.5) / kPipelineDepth - execute_us
              : 0.0;
    layer["server.statements"] = server["statements"];
    layer["server.batch_frames"] = server["batch_frames"];
    layer["engine.publishes"] = server["publishes"];
    layer["engine.publish_p50_us"] = server["publish_p50_us"];
    layer["wal.fsyncs_per_wait"] =
        server["wal_sync_waits"] > 0
            ? server["wal_fsyncs"] / server["wal_sync_waits"]
            : 0.0;
    layer["wal.bytes_per_value"] =
        server["wal_bytes"] / static_cast<double>(bench.values_total());
    layer["gen.append_ack_p50_us"] =
        reads ? 0.0 : Quantile(measured.op_us, 0.5);
    layer["gen.append_ack_p99_us"] =
        reads ? 0.0 : Quantile(measured.op_us, 0.99);
    const double plain = static_cast<double>(untraced.op_us.size()) /
                         untraced.seconds;
    layer["trace.overhead_frac"] =
        plain > 0 ? 1.0 - (ops / measured.seconds) / plain : 0.0;
    for (const auto& [name, value] : layer) {
      metrics.push_back({name, {value, LayerUnit(name)}});
    }
    WriteSpans(opt.trace_out, logs);
    if (reads) {
      // Nothing is written on read_warm and every stream was read in
      // set-up, so no read may rebuild its window histogram. The server
      // does not count rebuilds; a batch counts one for each whole median
      // in-process rebuild of this run that it took. Warm batches take tens
      // of µs and a rebuild at W=1024 15-35 ms, but host stalls, which hit
      // every verb alike, reached 23 ms, so a few are tolerated as stalls.
      // A set-up that warmed nothing fails (NOTES.md).
      const double rebuild_us = layer["core.fixed_window.rebuild_ms"] * 1e3;
      const auto& batch_us = all.op_us;
      int64_t rebuilds = 0;
      for (const double us : batch_us) {
        rebuilds += static_cast<int64_t>(us / rebuild_us);
      }
      std::cerr << "  window_hit_ratio >= "
                << Num(1.0 - static_cast<double>(rebuilds) /
                                 static_cast<double>(all.histogram_reads))
                << " (n=" << all.histogram_reads << " histogram reads in "
                << batch_us.size() << " batches; slowest batch "
                << Num(batch_us.empty() ? 0.0
                                        : *std::max_element(batch_us.begin(),
                                                            batch_us.end()))
                << " us, rebuild " << Num(rebuild_us) << " us)\n";
      if (rebuilds > kStallsTolerated && problem.empty()) {
        problem = "read_warm batches took as long as " +
                  std::to_string(rebuilds) + " window rebuilds";
      }
    }
  }
  const bool correct = problem.empty() && all.wrong == 0;
  if (!correct) {
    std::cerr << "CHECK FAILED: "
              << (problem.empty() ? "a read answer was wrong" : problem)
              << "\n";
  }
  std::filesystem::remove_all(opt.run_dir);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--tool") {
      opt.tool = value;
    } else if (flag == "--run-dir") {
      opt.run_dir = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (opt.tool.empty() || opt.run_dir.empty() || !(opt.seconds > 0)) {
    std::cerr << "usage: perfbench_gen --workload W --seed N --seconds S "
                 "--trace 0|1 --tool PATH --run-dir DIR [--trace-out FILE]\n";
    return 2;
  }
  return perfbench::Run(opt);
}
