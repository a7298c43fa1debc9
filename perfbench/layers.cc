// The traced run's per-layer measurements: calls into each layer's public
// functions, made from the benchmark with the run's own inputs and timed
// with spans. Nothing in src/ is instrumented.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <span>

#include "bench.h"
#include "src/core/agglomerative.h"
#include "src/core/approx_dp.h"
#include "src/core/fixed_window.h"
#include "src/core/vopt_dp.h"
#include "src/engine/query_engine.h"
#include "src/engine/wal_records.h"
#include "src/quantile/gk_summary.h"
#include "src/server/wire.h"
#include "src/sketch/fm_sketch.h"
#include "src/stream/sliding_window.h"
#include "src/util/wal.h"

namespace perfbench {

namespace {

constexpr int64_t kTrace = 1;  // every layer span belongs to one trace
constexpr double kEpsilon = 0.1;  // StreamConfig default, and BUILD's delta

void Must(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "layer measurement failed: %s\n", what);
    std::abort();
  }
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

std::string StreamName(int64_t i) {
  char name[16];
  std::snprintf(name, sizeof(name), "s%02lld", static_cast<long long>(i));
  return name;
}

std::vector<double> WindowOf(const std::vector<double>& history,
                             int64_t window) {
  const size_t n = std::min(history.size(), static_cast<size_t>(window));
  return std::vector<double>(history.end() - static_cast<ptrdiff_t>(n),
                             history.end());
}

/// A span covering one whole measurement; its per-call spans name it as
/// their parent.
class Scope {
 public:
  Scope(SpanLog* log, int64_t parent, const char* name) : log_(log) {
    Span span;
    span.trace = kTrace;
    span.parent = parent;
    span.name = name;
    span.start_ns = NowNs();
    id_ = log_->Add(span);
  }
  ~Scope() { log_->Close(id_, NowNs()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t id() const { return id_; }

  /// Times one call as a child span; returns its duration in µs.
  double Time(const char* name, const std::function<void()>& call) {
    Span span;
    span.trace = kTrace;
    span.parent = id_;
    span.name = name;
    span.start_ns = NowNs();
    call();
    span.end_ns = NowNs();
    log_->Add(span);
    return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }

  /// Times `calls` calls of `f` in spans of 4096; returns µs per call (the
  /// median over spans) for operations too short to time one by one.
  double PerCall(const char* name, int64_t calls,
                 const std::function<void(int64_t)>& f) {
    std::vector<double> per;
    for (int64_t i = 0; i < calls; i += 4096) {
      per.push_back(Time(name, [&] {
                      for (int64_t c = i; c < i + 4096; ++c) f(c);
                    }) /
                    4096.0);
    }
    return Quantile(per, 0.5);
  }

 private:
  SpanLog* log_;
  int64_t id_ = 0;
};

class Layers {
 public:
  Layers(const LayerInputs& in, SpanLog* log, std::map<std::string, double>* m,
         std::string* problem)
      : in_(in),
        log_(log),
        m_(*m),
        problem_(*problem),
        k_(std::min<int64_t>(in.shape.streams, 4)),
        root_(log, 0, "layers") {}

  /// server/wire: decoding the run's own batch frames.
  void Wire() {
    Scope s(log_, root_.id(), "wire");
    std::vector<double> us;
    for (size_t i = 0; us.size() < 4000 && !in_.frames.empty(); ++i) {
      const std::string& frame = in_.frames[i % in_.frames.size()];
      us.push_back(s.Time("net::DecodeBatchAppend", [&] {
        Must(streamhist::net::DecodeBatchAppend(frame).ok(), "decode");
      }));
    }
    m_["wire.decode_batch_us"] = Quantile(us, 0.5);
  }

  /// engine: a WAL-less in-process engine holding the first k streams with
  /// exactly the values the server acked. Returns the median Execute time
  /// of the run's read statements (µs).
  double Engine() {
    streamhist::QueryEngine engine;
    const std::string window = std::to_string(in_.shape.window);
    for (int64_t j = 0; j < k_; ++j) {
      const std::string name = StreamName(j);
      Must(engine.Execute("CREATE " + name + " " + window + " " +
                          std::to_string(in_.shape.buckets))
                   .ok() &&
               engine.AppendBatch(name, in_.histories[static_cast<size_t>(j)])
                   .ok() &&
               engine.Execute("SUM " + name + " 0 " + window).ok(),
           "engine set-up");
    }
    double execute_median_us = 0.0;
    {
      Scope s(log_, root_.id(), "engine.Execute");
      std::map<std::string, std::vector<double>> by_verb;
      std::vector<double> all;
      for (int rep = 0; rep < 4; ++rep) {
        for (size_t i = 0; i < in_.read_statements.size(); ++i) {
          const double us = s.Time("QueryEngine::Execute", [&] {
            Must(engine.Execute(in_.read_statements[i]).ok(), "read");
          });
          by_verb[in_.read_verbs[i]].push_back(us);
          all.push_back(us);
        }
      }
      for (const auto& [verb, us] : by_verb) {
        m_["engine.execute_us." + verb] = Quantile(us, 0.5);
      }
      execute_median_us = Quantile(all, 0.5);
    }
    {
      Scope s(log_, root_.id(), "engine.Execute(BUILD)");
      std::vector<double> ms;
      for (int rep = 0; rep < 3; ++rep) {
        for (int64_t j = 0; j < k_; ++j) {
          ms.push_back(s.Time("QueryEngine::Execute(BUILD)", [&] {
            Must(engine.Execute("BUILD " + StreamName(j) + " ERROR 0.1").ok(),
                 "BUILD");
          }) / 1e3);
        }
      }
      m_["engine.build_ms"] = Quantile(ms, 0.5);
    }
    {
      // Last: it appends, so the windows it leaves behind have moved on.
      Scope s(log_, root_.id(), "engine.ExecuteBatchAppend");
      std::vector<double> us;
      std::vector<double> batch(64);
      for (int64_t i = 0; i < 240; ++i) {
        const std::vector<double>& h = in_.histories[static_cast<size_t>(i % k_)];
        for (size_t v = 0; v < batch.size(); ++v) {
          batch[v] = h[(static_cast<size_t>(i) * batch.size() + v) % h.size()];
        }
        us.push_back(s.Time("QueryEngine::ExecuteBatchAppend", [&] {
          Must(engine.ExecuteBatchAppend(StreamName(i % k_), batch).ok(),
               "batch append");
        }));
      }
      m_["engine.commit_batch_us"] = Quantile(us, 0.5);
    }
    return execute_median_us;
  }

  /// util/wal: Append + WaitDurable under policy always on a standalone
  /// log, with the run's record size.
  void Wal() {
    const std::string dir = in_.scratch_dir + "/wal-probe";
    std::filesystem::remove_all(dir);
    streamhist::wal::OpenReport report;
    auto opened =
        streamhist::wal::Wal::Open(dir, streamhist::wal::Options{}, &report);
    Must(opened.ok(), "WAL open");
    std::unique_ptr<streamhist::wal::Wal> wal = std::move(opened.value());
    const std::vector<double>& h = in_.histories[0];
    std::vector<double> values(static_cast<size_t>(in_.record_values));
    for (size_t v = 0; v < values.size(); ++v) values[v] = h[v % h.size()];
    const std::string payload = streamhist::walrec::EncodeAppend("s00", values);
    {
      Scope s(log_, root_.id(), "wal");
      std::vector<double> us;
      for (int i = 0; i < 300; ++i) {
        us.push_back(s.Time("wal::Wal::Append+WaitDurable", [&] {
          const auto lsn = wal->Append(payload);
          Must(lsn.ok() && wal->WaitDurable(*lsn, 5000), "WAL append");
        }));
      }
      m_["wal.append_durable_p50_us"] = Quantile(us, 0.5);
      m_["wal.append_durable_p99_us"] = Quantile(us, 0.99);
    }
    wal.reset();
    std::filesystem::remove_all(dir);
  }

  /// core: the fixed-window rebuild a lazy snapshot section pays on its
  /// first histogram read, the agglomerative per-value upkeep, and the
  /// offline approximate DP behind BUILD.
  void Core() {
    {
      streamhist::FixedWindowOptions options;
      options.window_size = in_.shape.window;
      options.num_buckets = in_.shape.buckets;
      options.epsilon = kEpsilon;
      options.rebuild_on_append = false;
      Scope s(log_, root_.id(), "core.fixed_window");
      std::vector<double> ms, evals;
      for (int rep = 0; rep < 2; ++rep) {
        for (int64_t j = 0; j < k_; ++j) {
          const std::vector<double> window = WindowOf(
              in_.histories[static_cast<size_t>(j)], in_.shape.window);
          int64_t herror_evals = 0;
          // What WindowSection::Materialize does on a snapshot's first
          // histogram read.
          ms.push_back(s.Time("FixedWindowHistogram::FromContents+Extract", [&] {
            auto fw =
                streamhist::FixedWindowHistogram::FromContents(options, window);
            (void)fw.ApproxError();
            (void)fw.Extract();
            (void)fw.BucketErrors();
            herror_evals = fw.last_herror_evals();
          }) / 1e3);
          if (rep == 0) evals.push_back(static_cast<double>(herror_evals));
        }
      }
      m_["core.fixed_window.rebuild_ms"] = Quantile(ms, 0.5);
      m_["core.fixed_window.herror_evals"] = Mean(evals);
    }
    {
      streamhist::ApproxHistogramOptions options;
      options.num_buckets = in_.shape.buckets;
      options.epsilon = kEpsilon;
      auto agg = streamhist::AgglomerativeHistogram::Create(options);
      Must(agg.ok(), "agglomerative create");
      const std::vector<double>& h = in_.histories[0];
      for (int64_t i = 0; i < in_.shape.window; ++i) {
        agg->Append(h[static_cast<size_t>(i) % h.size()]);
      }
      Scope s(log_, root_.id(), "core.agglomerative");
      m_["core.agglomerative.append_us"] =
          s.PerCall("AgglomerativeHistogram::Append x4096", 3 * 4096,
                    [&](int64_t c) {
                      agg->Append(h[static_cast<size_t>(c) % h.size()]);
                    });
    }
    {
      Scope s(log_, root_.id(), "core.approx_dp");
      std::vector<double> ms, evals, ratio;
      for (int64_t j = 0; j < k_; ++j) {
        const std::vector<double> window = WindowOf(
            in_.histories[static_cast<size_t>(j)], in_.shape.window);
        streamhist::ApproxHistogramResult result;
        ms.push_back(s.Time("BuildApproxVOptimalHistogram", [&] {
          result = streamhist::BuildApproxVOptimalHistogram(
              window, in_.shape.buckets, kEpsilon);
        }) / 1e3);
        const double opt =
            streamhist::BuildVOptimalHistogram(window, in_.shape.buckets).error;
        // The DP's guarantee: OPT <= realized SSE <= certified factor * OPT.
        if ((result.sse < opt * (1 - 1e-9) - 1e-9 ||
             result.sse > result.bound_factor * opt * (1 + 1e-9) + 1e-9) &&
            problem_.empty()) {
          problem_ = "approximate DP on " + StreamName(j) + ": SSE " +
                     std::to_string(result.sse) + " outside [OPT, " +
                     std::to_string(result.bound_factor) + " x OPT], OPT " +
                     std::to_string(opt);
        }
        evals.push_back(static_cast<double>(result.cost_evals));
        ratio.push_back(opt > 0.0 ? result.sse / opt : 1.0);
      }
      m_["core.approx_dp.build_ms"] = Quantile(ms, 0.5);
      m_["core.approx_dp.cost_evals"] = Mean(evals);
      m_["core.approx_dp.sse_ratio"] = Quantile(ratio, 0.5);
    }
  }

  /// stream / quantile / sketch: the per-value upkeep every append pays
  /// besides the histograms, and the quantile summary's query.
  void Synopses() {
    const std::vector<double>& h = in_.histories[0];
    auto value = [&](int64_t c) { return h[static_cast<size_t>(c) % h.size()]; };
    {
      streamhist::SlidingWindow window(in_.shape.window);
      for (int64_t i = 0; i < in_.shape.window; ++i) window.Append(value(i));
      Scope s(log_, root_.id(), "stream.window");
      m_["stream.window.append_us"] =
          s.PerCall("SlidingWindow::Append x4096", 1 << 17,
                    [&](int64_t c) { window.Append(value(c)); });
    }
    {
      auto gk = streamhist::GKSummary::Create(0.01);  // StreamConfig default
      Must(gk.ok(), "GK create");
      for (int64_t i = 0; i < 65536; ++i) gk->Insert(value(i));
      Scope s(log_, root_.id(), "quantile.gk");
      m_["quantile.gk.insert_us"] =
          s.PerCall("GKSummary::Insert x4096", 1 << 16,
                    [&](int64_t c) { gk->Insert(value(c)); });
      double sink = 0.0;
      m_["quantile.gk.query_us"] =
          s.PerCall("GKSummary::Quantile x4096", 1 << 15, [&](int64_t c) {
            sink += gk->Quantile(static_cast<double>(c % 97) / 96.0);
          });
      Must(std::isfinite(sink), "GK query");
    }
    {
      auto fm = streamhist::FMSketch::Create(256);  // ManagedStream's size
      Must(fm.ok(), "FM create");
      Scope s(log_, root_.id(), "sketch.fm");
      m_["sketch.fm.add_us"] = s.PerCall(
          "FMSketch::AddValue x4096", 1 << 17,
          [&](int64_t c) { fm->AddValue(value(c)); });
    }
  }

 private:
  const LayerInputs& in_;
  SpanLog* log_;
  std::map<std::string, double>& m_;
  std::string& problem_;
  const int64_t k_;  // streams the in-process measurements use
  Scope root_;
};

}  // namespace

double MeasureLayers(const LayerInputs& in, SpanLog* log,
                     std::map<std::string, double>* metrics,
                     std::string* problem) {
  Layers layers(in, log, metrics, problem);
  layers.Wire();
  const double execute_median_us = layers.Engine();
  layers.Wal();
  layers.Core();
  layers.Synopses();
  return execute_median_us;
}

}  // namespace perfbench
