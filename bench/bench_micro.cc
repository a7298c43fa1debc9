// E10 — google-benchmark micro-benchmarks: per-operation costs of every
// builder and of the supporting data structures.

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/core/agglomerative.h"
#include "src/core/fixed_window.h"
#include "src/core/heuristics.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/engine/query_engine.h"
#include "src/quantile/gk_summary.h"
#include "src/sketch/fm_sketch.h"
#include "src/sketch/l1_sketch.h"
#include "src/stream/sliding_window.h"
#include "src/timeseries/paa.h"
#include "src/timeseries/rtree.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/wavelet/sliding_wavelet.h"
#include "src/wavelet/synopsis.h"

namespace streamhist {
namespace {

const std::vector<double>& SharedStream() {
  static const std::vector<double>* stream = new std::vector<double>(
      GenerateDataset(DatasetKind::kUtilization, 1 << 18, /*seed=*/1));
  return *stream;
}

void BM_SlidingWindowAppend(benchmark::State& state) {
  const auto& stream = SharedStream();
  SlidingWindow w(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    w.Append(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlidingWindowAppend)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FixedWindowAppend(benchmark::State& state) {
  const auto& stream = SharedStream();
  FixedWindowOptions options;
  options.window_size = state.range(0);
  options.num_buckets = state.range(1);
  options.epsilon = 0.5;
  options.rebuild_on_append = true;
  FixedWindowHistogram fw = FixedWindowHistogram::Create(options).value();
  size_t i = 0;
  for (; i < static_cast<size_t>(options.window_size); ++i) {
    fw.Append(stream[i]);
  }
  for (auto _ : state) {
    fw.Append(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedWindowAppend)
    ->Args({256, 8})
    ->Args({1024, 8})
    ->Args({1024, 32})
    ->Args({4096, 8});

void BM_AgglomerativeAppend(benchmark::State& state) {
  const auto& stream = SharedStream();
  ApproxHistogramOptions options;
  options.num_buckets = state.range(0);
  options.epsilon = 0.1;
  AgglomerativeHistogram agg = AgglomerativeHistogram::Create(options).value();
  size_t i = 0;
  for (auto _ : state) {
    agg.Append(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AgglomerativeAppend)->Arg(8)->Arg(32)->Arg(128);

void BM_StreamingMergeAppend(benchmark::State& state) {
  const auto& stream = SharedStream();
  StreamingMergeHistogram merge(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    merge.Append(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_StreamingMergeAppend)->Arg(8)->Arg(32)->Arg(128);

void BM_GKSummaryInsert(benchmark::State& state) {
  const auto& stream = SharedStream();
  GKSummary gk = GKSummary::Create(1.0 / static_cast<double>(state.range(0)))
                     .value();
  size_t i = 0;
  for (auto _ : state) {
    gk.Insert(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GKSummaryInsert)->Arg(100)->Arg(1000);

void BM_WaveletRebuild(benchmark::State& state) {
  const auto& stream = SharedStream();
  const int64_t n = state.range(0);
  const std::vector<double> window(stream.begin(),
                                   stream.begin() + static_cast<ptrdiff_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(WaveletSynopsis::Build(window, 32));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_WaveletRebuild)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VOptimalDp(benchmark::State& state) {
  const auto& stream = SharedStream();
  const int64_t n = state.range(0);
  const std::vector<double> data(stream.begin(),
                                 stream.begin() + static_cast<ptrdiff_t>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVOptimalHistogram(data, 16));
  }
}
BENCHMARK(BM_VOptimalDp)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VOptimalDpThreads(benchmark::State& state) {
  const auto& stream = SharedStream();
  const int64_t n = state.range(0);
  const std::vector<double> data(stream.begin(),
                                 stream.begin() + static_cast<ptrdiff_t>(n));
  SetThreadCount(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildVOptimalHistogram(data, 32));
  }
  SetThreadCount(DefaultThreadCount());
}
BENCHMARK(BM_VOptimalDpThreads)
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 4});

void BM_QueryEngineAppend(benchmark::State& state) {
  const auto& stream = SharedStream();
  QueryEngine engine;
  StreamConfig config;
  config.window_size = state.range(0);
  config.num_buckets = 16;
  (void)engine.CreateStream("s", config);
  const StreamHandle s = engine.Stream("s").value();
  size_t i = 0;
  for (auto _ : state) {
    s.stream().Append(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryEngineAppend)->Arg(1024)->Arg(8192);

void BM_QueryEngineExecute(benchmark::State& state) {
  const auto& stream = SharedStream();
  QueryEngine engine;
  StreamConfig config;
  config.window_size = 1024;
  config.num_buckets = 16;
  (void)engine.CreateStream("s", config);
  // Feed through the engine so the query snapshot is published.
  (void)engine.AppendBatch("s", std::span<const double>(stream.data(), 4096));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute("SUM s LAST 100"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QueryEngineExecute);

void BM_SlidingWaveletAppend(benchmark::State& state) {
  const auto& stream = SharedStream();
  SlidingWavelet w = SlidingWavelet::Create(state.range(0)).value();
  size_t i = 0;
  for (auto _ : state) {
    w.Append(stream[i++ & (stream.size() - 1)]);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SlidingWaveletAppend)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FMSketchAdd(benchmark::State& state) {
  FMSketch sketch = FMSketch::Create(state.range(0)).value();
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Add(key++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FMSketchAdd)->Arg(64)->Arg(1024);

void BM_L1SketchUpdate(benchmark::State& state) {
  L1Sketch sketch = L1Sketch::Create(state.range(0)).value();
  int64_t i = 0;
  for (auto _ : state) {
    sketch.Update(i++, 1.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_L1SketchUpdate)->Arg(32)->Arg(256);

void BM_PaaFeatures(benchmark::State& state) {
  const auto& stream = SharedStream();
  const std::vector<double> series(stream.begin(), stream.begin() + 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaaFeatures(series, state.range(0)));
  }
}
BENCHMARK(BM_PaaFeatures)->Arg(8)->Arg(64);

void BM_RTreeBallQuery(benchmark::State& state) {
  Random rng(1);
  std::vector<std::vector<double>> points;
  for (int64_t i = 0; i < state.range(0); ++i) {
    std::vector<double> p;
    for (int d = 0; d < 8; ++d) p.push_back(rng.UniformDouble(0, 100));
    points.push_back(std::move(p));
  }
  RTree tree(points);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.BallQuery(points[q++ % points.size()], 20.0));
  }
}
BENCHMARK(BM_RTreeBallQuery)->Arg(1000)->Arg(10000);

void BM_HistogramRangeSum(benchmark::State& state) {
  const auto& stream = SharedStream();
  const std::vector<double> data(stream.begin(), stream.begin() + 4096);
  const Histogram h = BuildEquiWidthHistogram(data, state.range(0));
  int64_t lo = 0;
  for (auto _ : state) {
    lo = (lo + 97) % 2048;
    benchmark::DoNotOptimize(h.RangeSum(lo, lo + 2048));
  }
}
BENCHMARK(BM_HistogramRangeSum)->Arg(16)->Arg(256);

}  // namespace
}  // namespace streamhist

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
