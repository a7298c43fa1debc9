#ifndef STREAMHIST_ENGINE_MANAGED_STREAM_H_
#define STREAMHIST_ENGINE_MANAGED_STREAM_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/fixed_window.h"
#include "src/core/histogram.h"
#include "src/engine/stream_stats.h"
#include "src/quantile/gk_summary.h"
#include "src/sketch/fm_sketch.h"
#include "src/util/deadline.h"
#include "src/util/result.h"
#include "src/util/snapshot.h"

namespace streamhist {

/// How offline window construction (BUILD queries) runs for a stream: the
/// exact O(n^2 B) V-optimal DP, or the paper's (1+delta)-approximate
/// interval-pruned DP (core/approx_dp.h).
enum class WindowBuildMode : uint8_t { kExact = 0, kApprox = 1 };

/// One rung of the degradation ladder BuildWindowHistogram descends when a
/// deadline expires or the memory governor refuses DP scratch: the exact DP,
/// the approximate DP (with escalating delta), and finally the continuously
/// maintained fixed-window snapshot, which needs no scratch and no rebuild
/// and therefore always terminates.
enum class BuildRung : uint8_t { kExact = 0, kApprox = 1, kSnapshot = 2 };

/// Stable lowercase name ("exact", "approx", "snapshot").
const char* BuildRungName(BuildRung rung);

/// Which synopses a managed stream maintains; the fixed-window histogram is
/// always on (it is the primary query surface).
struct StreamConfig {
  /// Sliding-window length for the fixed-window histogram.
  int64_t window_size = 1024;
  /// Bucket budget for the window histogram.
  int64_t num_buckets = 16;
  /// Approximation slack for the window histogram.
  double epsilon = 0.1;
  /// Maintain a GK quantile summary of the value distribution.
  bool keep_quantiles = true;
  /// Rank slack of the quantile summary.
  double quantile_epsilon = 0.01;
  /// Maintain an FM distinct-values sketch.
  bool keep_distinct = true;
  /// Construction mode for BUILD queries over the window contents.
  WindowBuildMode build_mode = WindowBuildMode::kExact;
  /// Per-layer slack of the approximate offline DP when build_mode is
  /// kApprox: the realized SSE is certified <= (1+build_delta)^(B-1) * OPT.
  /// Must be finite and >= 0.
  double build_delta = 0.1;
  /// Snapshot-publication staleness bound in milliseconds (DESIGN.md §13):
  /// 0 publishes on every committed batch (strictest, the effective
  /// default); > 0 lets CommitAppendBatch coalesce publications, with the
  /// engine's flusher guaranteeing no acked value stays reader-invisible
  /// longer than the bound; < 0 defers to the process-wide default from
  /// STREAMHIST_PUBLISH_STALENESS_MS (itself 0 when unset). Operational
  /// knob, in-memory only: never serialized and never WAL-logged, so it can
  /// be tuned per process without a format change.
  int64_t publish_staleness_ms = -1;
};

/// The process default for StreamConfig::publish_staleness_ms — the value of
/// STREAMHIST_PUBLISH_STALENESS_MS, parsed once, 0 when unset or malformed.
int64_t DefaultPublishStalenessMillis();

/// How one BUILD descended (or did not descend) the degradation ladder: one
/// attempt per rung tried, in order, each with its wall-clock share and —
/// when it did not complete — the reason it was abandoned. The final attempt
/// always completed; the ladder's last rung cannot fail.
struct DegradationReport {
  struct Attempt {
    BuildRung rung = BuildRung::kExact;
    /// Approx slack for kApprox; snapshot epsilon for kSnapshot; 0 for exact.
    double delta = 0.0;
    double elapsed_ms = 0.0;
    bool completed = false;
    std::string reason;  // empty when completed
  };
  std::vector<Attempt> attempts;
  /// True when the first planned rung was not the one that completed.
  bool degraded = false;

  /// "exact[deadline expired] -> approx(delta=0.01)" style one-liner.
  std::string ToString() const;
};

/// Result of one offline BUILD over a stream's current window contents.
struct WindowBuildReport {
  WindowBuildMode mode = WindowBuildMode::kExact;
  /// The rung that produced `histogram` (matches `mode` unless degraded).
  BuildRung rung = BuildRung::kExact;
  double delta = 0.0;  // slack of the producing rung (see DegradationReport)
  int64_t points = 0;  // window length at build time
  Histogram histogram;
  double sse = 0.0;           // realized SSE of `histogram`
  double bound_factor = 1.0;  // certified sse <= bound_factor * OPT
  DegradationReport degradation;
};

/// The window-histogram section of a QuerySnapshot: the extracted (1+eps)-
/// approximate histogram, its per-bucket SSEs, and the certified HERROR
/// bound. The section is immutable to callers and shared across snapshots
/// whose window contents did not change (copy-on-write publication).
///
/// Materialization is lazy: the publish path freezes an O(n) copy of the
/// window contents instead of paying the O((B^3/eps^2) log^3 n) interval
/// rebuild per publish, and the first accessor call rebuilds from the
/// frozen copy — so SUM/COUNT/DISTINCT traffic that never touches the
/// histogram never pays for it, and a held snapshot stays answerable from
/// its own frozen contents no matter how far the live window has advanced.
/// When the live window is already materialized (Refresh/BUILD), the
/// section adopts the built histogram eagerly and the frozen copy is
/// skipped. Thread-safe: first-demand materialization is double-checked
/// under an internal mutex; every later read is lock-free.
class WindowSection {
 public:
  /// Eager: adopts an already-materialized histogram.
  WindowSection(Histogram histogram, std::vector<double> bucket_errors,
                double approx_error);

  /// Lazy: freezes `contents` (oldest first); the first accessor call
  /// materializes via FixedWindowHistogram::FromContents.
  WindowSection(const FixedWindowOptions& options,
                std::vector<double> contents);

  /// The extracted histogram; answers SUM/AVG/POINT/SHOW.
  const Histogram& histogram() const;

  /// Exact per-bucket SSEs (the *BOUND verbs' error bars).
  const std::vector<double>& bucket_errors() const;

  /// The window histogram's SSE bound (the ERROR verb's answer).
  double approx_error() const;

 private:
  void Materialize() const;

  FixedWindowOptions options_;
  mutable std::vector<double> frozen_;  // released after materialization
  mutable std::mutex mu_;
  mutable std::atomic<bool> ready_{false};
  mutable Histogram histogram_;
  mutable std::vector<double> bucket_errors_;
  mutable double approx_error_ = 0.0;
};

/// Immutable, atomically-published view of one stream's queryable state —
/// what every estimation verb reads instead of the live (mutating) synopses.
/// A writer publishes a fresh QuerySnapshot through the stream's
/// SnapshotCell; a reader that acquired a version keeps answering from it
/// coherently no matter how many republishes (or a DROP) happen meanwhile.
///
/// The snapshot is sectioned (DESIGN.md §13): cheap counters are plain
/// fields delta-maintained by the writer; the window histogram, the GK
/// summary, and the DESCRIBE line live behind independently ref-counted or
/// lazily-materialized sections, so a republish copy-on-writes only what
/// actually changed and expensive state is computed only on first demand.
/// Lazy accessors are thread-safe and, once materialized, lock-free.
struct QuerySnapshot {
  /// Publish sequence number (1 for the snapshot Create publishes).
  uint64_t version = 0;
  int64_t total_points = 0;
  /// Live points in the window (= capacity once the window has filled).
  int64_t window_size = 0;
  int64_t dropped_nonfinite = 0;
  /// Window-histogram section; never null once published. Shared with the
  /// previous snapshot when no append touched the window in between.
  std::shared_ptr<const WindowSection> window;
  /// GK quantile summary at publish time; null when disabled. Shared with
  /// the previous snapshot when no insert happened in between.
  std::shared_ptr<const GKSummary> quantiles;
  /// FM distinct estimate; recomputed at publish only when the sketch's
  /// bitmaps actually changed. Meaningless when !has_distinct.
  bool has_distinct = false;
  double distinct_estimate = 0.0;

  /// Everything the lazy DESCRIBE line needs beyond the fields above,
  /// frozen at publish time.
  struct DescribeSeed {
    int64_t window_capacity = 0;
    int64_t num_buckets = 0;
    double epsilon = 0.0;
    bool build_approx = false;
    double build_delta = 0.0;
    int64_t wal_lsn = 0;
    int64_t degraded_builds = 0;
    std::string last_degradation;  // empty when no degraded build yet
  };
  DescribeSeed describe_seed;

  /// Compatibility read surface over the sections.
  double approx_error() const { return window->approx_error(); }
  const Histogram& histogram() const { return window->histogram(); }
  const std::vector<double>& bucket_errors() const {
    return window->bucket_errors();
  }

  /// The DESCRIBE line, composed (and cached) on first demand — string
  /// formatting left the publish hot path with PR8.
  const std::string& describe() const;

 private:
  mutable std::mutex describe_mu_;
  mutable std::atomic<bool> describe_ready_{false};
  mutable std::string describe_;
};

/// One named data stream with its continuously-maintained synopses — the
/// paper's deployment picture (section 1): a network element's measurement
/// stream that must stay queryable without being stored.
///
/// Every stream keeps its synopsis footprint charged with the process-wide
/// memory governor (util/governor.h); the charge follows the synopses as
/// they grow and is released on destruction.
class ManagedStream {
 public:
  /// Validates the config (delegates to the synopsis factories).
  static Result<ManagedStream> Create(const StreamConfig& config);

  ManagedStream(ManagedStream&& other) noexcept;
  ManagedStream& operator=(ManagedStream&& other) noexcept;
  ~ManagedStream();

  /// Feeds one point to every maintained synopsis. Non-finite values
  /// (NaN/Inf) are quarantined — counted in dropped_nonfinite() and fed to
  /// nothing — because a single NaN would irreversibly poison every
  /// prefix-sum and SSE downstream.
  void Append(double value);

  /// Feeds a batch (synopses rebuild lazily, so batches are cheap). Does
  /// NOT publish — callers that need reader visibility use
  /// CommitAppendBatch (policy-driven) or PublishSnapshot (unconditional).
  void AppendBatch(std::span<const double> values);

  /// The engine's append core: feeds the batch, then runs the publication
  /// policy — staleness bound 0 publishes immediately (per-batch, the
  /// default); a positive bound coalesces, publishing only once the oldest
  /// unpublished append has aged past the bound (the engine's flusher
  /// closes the gap when the writer goes quiet). Caller holds the stream's
  /// writer mutex. Returns the number of values quarantined as non-finite.
  int64_t CommitAppendBatch(std::span<const double> values);

  /// Publishes a fresh snapshot iff committed appends are still
  /// unpublished; returns whether a publish ran. The flusher thread, the
  /// FLUSH verb, and SAVE all land here. Caller holds the writer mutex.
  bool FlushIfDirty();

  /// True when committed appends are not yet reader-visible.
  bool PublishPending() const;

  /// Effective staleness bound in milliseconds (config, with < 0 resolved
  /// against DefaultPublishStalenessMillis() at Create).
  int64_t publish_staleness_ms() const {
    return config_.publish_staleness_ms;
  }

  /// Tunes the bound at runtime (values < 0 clamp to 0: strict per-batch).
  void set_publish_staleness_ms(int64_t ms) {
    config_.publish_staleness_ms = ms < 0 ? 0 : ms;
  }

  /// Publication telemetry: publishes, coalesced skips, max staleness,
  /// publish latency histogram (thread-safe; process-lifetime only — a
  /// restored stream starts at zero).
  PublishStats& publish_stats();
  const PublishStats& publish_stats() const;

  /// Forces the lazily-maintained window histogram current: rebuilds the
  /// interval structure and materializes the extracted histogram, so
  /// subsequent queries are lookup-only. Touches only this stream's state —
  /// safe to run concurrently across *different* streams, which is what
  /// QueryEngine::RefreshAll exploits.
  void Refresh();

  /// Total points seen over the stream's lifetime.
  int64_t total_points() const;

  const StreamConfig& config() const { return config_; }

  /// The sliding-window histogram (always present).
  FixedWindowHistogram& window_histogram() { return *window_; }

  /// Value-quantile summary; null when disabled.
  const GKSummary* quantiles() const { return quantiles_.get(); }

  /// Distinct-values sketch; null when disabled.
  const FMSketch* distinct() const { return distinct_.get(); }

  /// Points rejected by Append because they were NaN or infinite.
  int64_t dropped_nonfinite() const { return dropped_nonfinite_; }

  /// BUILDs (since Create or Restore in this process) that had to descend
  /// below their first planned ladder rung.
  int64_t degraded_builds() const { return degraded_builds_; }

  /// Highest WAL LSN applied to this stream's synopses (0 when the stream
  /// never ran under a WAL). The engine's log-before-apply ordering keeps
  /// the setter under the stream's writer mutex; recovery replays only
  /// records above it. Carried in SHMS checkpoints.
  int64_t wal_lsn() const { return wal_lsn_; }
  void set_wal_lsn(int64_t lsn) { wal_lsn_ = lsn; }

  /// Approximate bytes held by this stream's synopses (what the stream has
  /// charged with the memory governor).
  int64_t MemoryBytes() const;

  /// Steady-state footprint estimate for a stream with this config — the
  /// admission check CREATE runs against the memory budget before any
  /// allocation happens.
  static int64_t EstimateFootprintBytes(const StreamConfig& config);

  /// Upper bound on the scratch one window rebuild allocates on top of that
  /// footprint (FixedWindowHistogram::RebuildScratchBytes). It lives only
  /// while the rebuild runs and is charged to no one then, so CREATE and
  /// LOAD probe it up front: a stream whose rebuild cannot fit is refused.
  static int64_t EstimateRebuildScratchBytes(const StreamConfig& config);

  /// Changes the offline construction mode for subsequent BUILD queries
  /// (serialized into snapshots). `delta` is ignored under kExact; under
  /// kApprox it must be finite and >= 0.
  Status SetBuildMode(WindowBuildMode mode, double delta);

  /// Offline V-optimal construction over the current window contents,
  /// bounded in time and memory by the degradation ladder:
  ///
  ///   exact DP  ->  approx DP (delta escalating 0.01 -> 0.1 -> 0.5)
  ///             ->  maintained fixed-window snapshot
  ///
  /// starting at the configured mode's rung. A rung is skipped when the
  /// deadline has expired (cancelling it mid-sweep at the next grain
  /// boundary) or the memory governor refuses its scratch tables; the
  /// snapshot rung needs neither and always completes, so the call always
  /// terminates with a histogram plus a certified error bound — exact: 1x
  /// OPT, approx: (1+delta)^(B-1) x OPT, snapshot: (1+epsilon) x OPT — and a
  /// truthful DegradationReport. With no deadline and an unconstrained
  /// governor the first rung runs to completion and its result is
  /// bit-identical to the pre-ladder builds across thread counts.
  WindowBuildReport BuildWindowHistogram(
      const Deadline& deadline = Deadline::Infinite());

  /// One-line status ("n=1024 window, 16 buckets, 120000 points seen, ...").
  std::string Describe();

  /// Publishes a fresh QuerySnapshot of everything queryable,
  /// unconditionally. Sections whose backing synopsis did not change since
  /// the last publish are shared (copy-on-write), the window section is
  /// frozen for lazy materialization unless already built, the distinct
  /// estimate is recomputed only when the FM bitmaps changed, and DESCRIBE
  /// is composed on first demand — nothing here rebuilds the window. Runs
  /// under the stream's writer mutex; between publishes, readers keep
  /// answering from the previous version. Also reconciles the governor
  /// charge.
  void PublishSnapshot();

  /// The latest published QuerySnapshot — never null (Create and Restore
  /// both publish an initial version). Lock-free; callable from any thread.
  std::shared_ptr<const QuerySnapshot> AcquireSnapshot() const;

  /// Serializes the config plus every maintained synopsis as one framed,
  /// CRC-protected blob — the unit of engine checkpoints. A restored stream
  /// answers every query identically and ingests future points identically.
  /// Telemetry (publish stats, degraded-build count) is not in the blob.
  /// `wal_lsn_floor` raises the serialized WAL LSN (the engine's checkpoint
  /// protocol stores max(wal_lsn(), global WAL high-water) — see
  /// query_engine.cc); pass 0 for a plain snapshot.
  std::string Snapshot(int64_t wal_lsn_floor = 0) const;

  /// Inverse of Snapshot; validates structure and never aborts on hostile
  /// bytes. The restored stream's telemetry starts at zero: its initial
  /// publish is not recorded.
  static Result<ManagedStream> Restore(std::string_view bytes);

 private:
  ManagedStream(const StreamConfig& config, FixedWindowHistogram window);

  // Create without the initial publish (whose reconcile takes the first
  // governor charge).
  static Result<ManagedStream> CreateUnpublished(const StreamConfig& config);
  // PublishSnapshot without the telemetry; `now` is the publish's start.
  // Returns the staleness (us) the publish cleared.
  int64_t Publish(std::chrono::steady_clock::time_point now);

  // Append without the governor reconcile (batched by AppendBatch).
  void AppendValue(double value);
  // Brings the governor charge in line with MemoryBytes().
  void ReconcileGovernorCharge();
  void ReleaseGovernorCharge();

  StreamConfig config_;
  int64_t dropped_nonfinite_ = 0;
  int64_t degraded_builds_ = 0;
  int64_t wal_lsn_ = 0;
  int64_t charged_bytes_ = 0;  // currently charged with the governor
  uint64_t publish_version_ = 0;
  DegradationReport last_degradation_;
  // unique_ptr keeps the type movable despite the large synopsis states.
  std::unique_ptr<FixedWindowHistogram> window_;
  std::unique_ptr<GKSummary> quantiles_;
  std::unique_ptr<FMSketch> distinct_;
  // shared_ptr (not unique_ptr): readers may still hold the cell's address
  // via a StreamHandle while the owning registry entry is being destroyed,
  // and the indirection keeps the cell's address stable across moves.
  std::shared_ptr<SnapshotCell<QuerySnapshot>> snapshot_cell_;
  // Change tracking, COW section caches, coalescing state, and publish
  // telemetry — mutated only under the stream's writer mutex. Behind
  // unique_ptr (the telemetry's atomics) to keep the stream movable.
  struct PublishState;
  std::unique_ptr<PublishState> publish_;
};

}  // namespace streamhist

#endif  // STREAMHIST_ENGINE_MANAGED_STREAM_H_
