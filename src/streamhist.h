#ifndef STREAMHIST_STREAMHIST_H_
#define STREAMHIST_STREAMHIST_H_

/// Umbrella header for the streamhist library — one include for the whole
/// public API. Individual module headers remain includable on their own.

#include "src/core/agglomerative.h"
#include "src/core/bucket_cost.h"
#include "src/core/error_bounds.h"
#include "src/core/fixed_window.h"
#include "src/core/heuristics.h"
#include "src/core/histogram.h"
#include "src/core/histogram_io.h"
#include "src/core/vopt_dp.h"
#include "src/data/generators.h"
#include "src/data/io.h"
#include "src/engine/managed_stream.h"
#include "src/engine/query_engine.h"
#include "src/quantile/gk_summary.h"
#include "src/quantile/reservoir.h"
#include "src/query/estimator.h"
#include "src/query/metrics.h"
#include "src/query/workload.h"
#include "src/selectivity/value_histogram.h"
#include "src/sketch/fm_sketch.h"
#include "src/sketch/l1_sketch.h"
#include "src/stream/prefix_sums.h"
#include "src/stream/sliding_window.h"
#include "src/timeseries/apca.h"
#include "src/timeseries/distance.h"
#include "src/timeseries/indexed_search.h"
#include "src/timeseries/paa.h"
#include "src/timeseries/piecewise.h"
#include "src/timeseries/rtree.h"
#include "src/timeseries/similarity.h"
#include "src/util/random.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/timer.h"
#include "src/wavelet/haar.h"
#include "src/wavelet/sliding_wavelet.h"
#include "src/wavelet/synopsis.h"

#endif  // STREAMHIST_STREAMHIST_H_
