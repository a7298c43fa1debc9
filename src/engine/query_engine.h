#ifndef STREAMHIST_ENGINE_QUERY_ENGINE_H_
#define STREAMHIST_ENGINE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/managed_stream.h"
#include "src/engine/stream_registry.h"
#include "src/engine/stream_stats.h"
#include "src/util/deadline.h"
#include "src/util/result.h"
#include "src/util/wal.h"

namespace streamhist {

/// One stream's worth of arrivals for QueryEngine::AppendBatches.
struct StreamBatch {
  std::string name;
  std::vector<double> values;
};

class StatementTokens;  // a tokenized statement; query_engine.cc

/// A numeric answer as the query language prints it: 12 significant digits,
/// byte for byte what printf("%.12g") prints (std::to_chars, so no locale
/// and no stream). "inf", "-inf", "nan" and "-nan" print as printf does.
std::string FormatAnswer(double v);

/// A registry of named managed streams plus a tiny textual query language —
/// the "operators commonly pose queries" interface of the paper's
/// introduction made concrete. All answers come from the maintained
/// synopses; the raw stream is never stored beyond the sliding window.
///
/// Query language (one statement per line, case-insensitive keywords,
/// window-relative indices, ranges half-open):
///
///   SUM <stream> <lo> <hi>        estimated sum of window values [lo, hi)
///   SUM <stream> LAST <k>         estimated sum of the latest k points
///   AVG <stream> <lo> <hi>        estimated average over [lo, hi)
///   AVG <stream> LAST <k>
///   SUMBOUND <stream> <args>      like SUM but answers "estimate +- bound"
///                                 with a certified deterministic bound
///   AVGBOUND <stream> <args>      like AVG, with the certified bound
///   POINT <stream> <i>            estimated value of window point i
///   QUANTILE <stream> <phi>       value quantile over the whole stream
///   DISTINCT <stream>             estimated distinct values seen
///   COUNT <stream>                total points seen
///   ERROR <stream>                window histogram SSE bound
///   BUILD <stream>                offline V-optimal build of the current
///                                 window contents (configured mode)
///   BUILD <stream> EXACT          switch the stream to the exact DP, build
///   BUILD <stream> ERROR <delta>  switch to the (1+delta)-approximate
///                                 interval-pruned DP, build; the reply
///                                 carries the certified (1+delta)^(B-1)
///                                 factor (mode persists into checkpoints)
///   BUILD ... WITHIN <ms>         any BUILD form with a wall-clock budget:
///                                 when it expires the build degrades down
///                                 the ladder (exact -> approx -> snapshot),
///                                 always terminating with a histogram, a
///                                 certified bound, and the ladder trace.
///                                 With no WITHIN clause the default comes
///                                 from STREAMHIST_BUILD_DEADLINE_MS.
///   DESCRIBE <stream>             synopsis status line
///   SHOW <stream>                 the window histogram's buckets
///   STATS                         per-verb execution counters and latency
///                                 quantiles: engine-scoped verbs plus one
///                                 block per stream
///   STATS <stream>                one stream's per-verb counters
///   STATS <stream> <verb>         that verb's latency histogram (log2
///                                 nanosecond buckets)
///   MEMORY                        governor budget / used / peak plus the
///                                 per-stream synopsis footprints; budget
///                                 comes from STREAMHIST_MEM_BUDGET
///   LIST                          names of registered streams
///   CREATE <stream> [<window> [<buckets>]]   register a stream (refused
///                                 when its estimated footprint would
///                                 exceed the memory budget)
///   APPEND <stream> <v1> [v2 ...] feed points (NaN/Inf quarantined)
///   DROP <stream>                 unregister a stream
///   SAVE <path>                   checkpoint every stream to a file
///                                 (transient I/O failures are retried)
///   LOAD <path>                   restore streams from a checkpoint
///   WAL                           durability status: policy, durable LSN,
///                                 segment counters, last recovery summary
///   WAL CHECKPOINT                force a checkpoint into the WAL
///                                 directory and truncate sealed segments
///   FLUSH [<stream>]              publish any coalesced appends now — one
///                                 stream, or every stream with publication
///                                 pending (see DESIGN.md §13; a no-op under
///                                 the default per-batch publication policy)
///   PROMOTE                       flip a read replica into a writable
///                                 primary at a clean LSN boundary (DESIGN.md
///                                 §14); refused on a non-replica
///
/// Concurrency model (DESIGN.md §10): Execute is safe to call from any
/// number of threads against one engine. Estimation verbs answer lock-free
/// from each stream's atomically-published QuerySnapshot; APPEND/BUILD
/// mutate under that stream's writer mutex and republish; CREATE/DROP touch
/// one registry shard exclusively; SAVE/LOAD serialize against writers per
/// stream / per shard. A query that acquired a snapshot before a concurrent
/// republish (or DROP) answers from the old version in full — no torn
/// reads, no dangling pointers. Single-threaded use behaves exactly as it
/// did before the registry existed, statement for statement.
class QueryEngine {
 public:
  // Special members are out-of-line: wal_ points at a type only
  // query_engine.cc completes.
  QueryEngine();
  ~QueryEngine();

  // Neither copyable nor movable: the WAL checkpointer and the flusher
  // threads hold `this` and the registry's address.
  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Registers a new stream under `name`; fails on duplicates or bad config.
  Status CreateStream(const std::string& name, const StreamConfig& config);

  /// Removes a stream; NotFound when absent.
  Status DropStream(const std::string& name);

  /// Appends one point to a named stream.
  Status Append(const std::string& name, double value);

  /// Appends a batch to a named stream.
  Status AppendBatch(const std::string& name, std::span<const double> values);

  /// Appends every batch, one job per stream on the global thread pool
  /// (util/thread_pool.h): streams hold disjoint synopsis state, so the
  /// per-stream work is independent and the result is identical to feeding
  /// the batches serially. Validates every name — and rejects duplicate
  /// names, which would race — before any point is appended.
  Status AppendBatches(std::span<const StreamBatch> batches);

  /// Rebuilds the lazily-maintained window histogram of every registered
  /// stream, one refresh job per stream on the global thread pool. After
  /// this, queries on any stream are lookup-only. Deterministic: each job
  /// touches only its own stream.
  void RefreshAll();

  /// The registered stream as a ref-counted handle, or NotFound. The handle
  /// keeps the stream's storage (and any snapshot acquired through it)
  /// alive across a concurrent DROP — the safe accessor.
  Result<StreamHandle> Stream(const std::string& name) const;

  /// Registered stream names, sorted.
  std::vector<std::string> ListStreams() const;

  /// Parses and executes one query statement; the result is rendered as a
  /// human-readable string (numeric answers print 12 significant digits,
  /// the bytes of printf("%.12g"); see FormatAnswer). Thread-safe (see the
  /// concurrency model above).
  Result<std::string> Execute(std::string_view statement) {
    return ExecuteStatement(statement, nullptr);
  }

  /// Execute with a per-session context: a cancelled context (or an expired
  /// session deadline) fails the statement with kCancelled before it runs,
  /// and a BUILD with no WITHIN clause inherits the session deadline.
  /// Cancellation is checked at statement boundaries, not mid-verb.
  Result<std::string> Execute(std::string_view statement, ExecContext& ctx) {
    return ExecuteStatement(statement, &ctx);
  }

  /// The binary wire form of `APPEND <name> <values...>` (the TCP front
  /// end's batch frame): appends every value under the stream's writer mutex
  /// and republishes the snapshot once — N values, one republish — then
  /// returns the same "appended N point(s)" message the text verb renders.
  /// Records APPEND stats on the stream exactly like Execute; `ctx` (may be
  /// null) is checked at the statement boundary like the Execute overload.
  Result<std::string> ExecuteBatchAppend(const std::string& name,
                                         std::span<const double> values,
                                         ExecContext* ctx = nullptr);

  /// Counters for engine-scoped verbs (CREATE/DROP/LIST/MEMORY/SAVE/LOAD,
  /// plus statements whose stream could not be resolved). Process-lifetime;
  /// not checkpointed.
  const QueryStats& engine_stats() const { return engine_stats_; }

  /// What LoadCheckpoint managed to recover: sections it restored and
  /// sections it had to discard (with the reason each was unusable).
  struct CheckpointReport {
    struct DroppedStream {
      std::string name;  // section label when the name itself was corrupted
      Status reason;
    };
    std::vector<std::string> loaded;
    std::vector<DroppedStream> dropped;

    bool fully_loaded() const { return dropped.empty(); }
    /// One-line human-readable summary for console/tool output.
    std::string ToString() const;
  };

  /// How a SaveCheckpoint call went: how many write attempts it took (1 on
  /// the happy path; up to the retry limit when transient I/O faults healed
  /// mid-save).
  struct SaveReport {
    int attempts = 0;
  };

  /// Atomically checkpoints every registered stream to `path` (write to a
  /// temp file, fsync, rename): a crash mid-save leaves any previous
  /// checkpoint at `path` intact. The file is a framed container with a
  /// CRC32C per section, so corruption is detected per stream on load.
  ///
  /// I/O failures are retried with exponential backoff (kSaveAttempts total
  /// attempts): the serialized image is built once, so every attempt writes
  /// identical bytes and a transient fault — a busy disk, an injected
  /// `fileio.fsync.transient` — self-heals without caller involvement.
  /// Non-I/O errors are not retried. `report`, when non-null, receives the
  /// attempt count either way.
  Status SaveCheckpoint(const std::string& path,
                        SaveReport* report = nullptr) const;

  /// Total write attempts SaveCheckpoint makes before giving up.
  static constexpr int kSaveAttempts = 3;

  /// Replaces the between-attempt backoff sleep (test seam: deterministic
  /// retry tests must not wall-clock sleep). Null restores the real sleep.
  static void SetBackoffSleeperForTest(void (*sleeper)(int64_t millis));

  /// Replaces the registry with the checkpoint's streams. Recovery is
  /// partial: a section whose CRC or contents are bad is dropped (reported
  /// in the result) while every intact section still loads. Only when the
  /// file itself is unreadable or its header frame is damaged does the call
  /// fail outright — and then the engine is left unchanged.
  ///
  /// With a WAL open, the restored streams' foreign LSN tails are reset and
  /// a fresh checkpoint is written into the WAL directory (truncating the
  /// log), so a crash right after LOAD recovers the loaded state instead of
  /// replaying a stale log over it.
  Result<CheckpointReport> LoadCheckpoint(const std::string& path);

  /// How OpenWal recovered: the log repair outcome, whether/what checkpoint
  /// seeded the registry, and the replay tallies.
  struct WalRecoveryReport {
    wal::OpenReport open;            // segment scan / torn-tail repair
    bool checkpoint_loaded = false;  // checkpoint.shcp seeded the registry
    std::string checkpoint_summary;  // CheckpointReport text, or why not
    int64_t records_applied = 0;     // replayed into live streams
    int64_t records_skipped = 0;     // already reflected by the checkpoint
    int64_t records_dropped = 0;     // undecodable or inapplicable
    /// Streams whose checkpoint section was dropped and that a replay from
    /// the oldest retained record rebuilt (DESIGN.md §8).
    std::vector<std::string> recovered_from_log;
    /// Dropped sections whose stream the log no longer holds from its
    /// CREATE on: those streams are lost.
    int64_t sections_lost = 0;
    std::string ToString() const;
  };

  /// Durability configuration for OpenWal.
  struct WalConfig {
    wal::Options options;
    /// Background checkpoint cadence; 0 disables the checkpointer thread
    /// (WAL CHECKPOINT still works on demand).
    int64_t checkpoint_interval_ms = 0;
  };

  /// Opens (or creates) the write-ahead log in `dir` and recovers: repairs
  /// the log (torn tails truncated, never fatal), loads `dir`/checkpoint.shcp
  /// when present, replays the retained records above each stream's applied
  /// LSN (carried in each SHMS snapshot),
  /// then starts logging CREATE/APPEND/DROP before each ack and — when
  /// configured — a background checkpoint thread that snapshots and
  /// truncates sealed segments. Fails only on real I/O errors, a governor
  /// refusal, or when a WAL is already open.
  Result<WalRecoveryReport> OpenWal(const std::string& dir,
                                    const WalConfig& config);

  /// Stops the checkpointer, flushes the log (the returned status is the
  /// flush outcome), and detaches the WAL. `final_stats`, when non-null,
  /// receives the post-flush counters — the last chance to read them.
  /// Idempotent; the destructor calls it best-effort.
  Status CloseWal(wal::StatsSnapshot* final_stats = nullptr);

  bool wal_enabled() const { return wal_ != nullptr; }

  /// Highest LSN the log has fsynced (0 without a WAL).
  int64_t WalDurableLsn() const;

  /// Log counters (zeroed snapshot without a WAL).
  wal::StatsSnapshot WalStats() const;

  /// The recovery report of the OpenWal call (empty report without a WAL).
  WalRecoveryReport LastWalRecovery() const;

  /// Checkpoints into the WAL directory and truncates every sealed segment
  /// the checkpoint covers — the WAL CHECKPOINT verb and the background
  /// checkpointer both land here. Serialized against itself.
  Status WalCheckpointNow(std::string* summary = nullptr);

  /// Tailing read of the durable log for replication shipping — a thin pass
  /// through to wal::Wal::ReadTail. Fails kFailedPrecondition without an
  /// open WAL.
  Status WalReadTail(wal::TailCursor* cursor, int64_t max_bytes,
                     wal::TailBatch* out) const;

  /// Blocks until the log's durable LSN reaches `lsn` or `timeout_ms`
  /// passes; false on timeout (or with no WAL open). The shipping loop's
  /// wait primitive: new durable records wake it, idle periods become
  /// heartbeats.
  bool WalWaitDurable(int64_t lsn, int64_t timeout_ms) const;

  // --- Replication (DESIGN.md §14) ---
  //
  // The engine carries the mechanism; the policy lives in src/server: a
  // primary installs a barrier (semi-sync acks), a replica runs read-only
  // with a feed of shipped batches, and PROMOTE hands control back.

  /// Read-only replica mode: CREATE/DROP/APPEND/LOAD are refused with
  /// kReadOnly while replicated batches keep applying underneath.
  /// Estimation verbs, SAVE, and WAL CHECKPOINT stay available.
  void SetReadOnly(bool read_only);
  bool read_only() const;

  /// Installed on a primary: called with each record's LSN after its
  /// successful WAL append (CREATE/DROP/APPEND log paths). A semi-sync
  /// barrier blocks until a replica acknowledged the LSN or its wait budget
  /// lapsed; returning non-OK fails the write (the record is already
  /// locally durable, so barriers should degrade, not error, on timeout).
  using ReplicationBarrier = std::function<Status(int64_t lsn)>;
  void SetReplicationBarrier(ReplicationBarrier barrier);

  /// Builds the serialized SHCP checkpoint image in memory — the bootstrap
  /// handoff body — plus the WAL LSN floor it reflects. Exactly the bytes
  /// SaveCheckpoint would write, without touching disk.
  Status BuildCheckpointImage(std::string* image, int64_t* wal_floor) const;

  /// Replica bootstrap: persists `image` as this engine's own checkpoint
  /// (crash-during-bootstrap recovers from it), replaces the registry with
  /// its streams KEEPING their per-stream LSN tails (primary and replica
  /// share one LSN space), and fast-forwards the local WAL so replication
  /// resumes at wal_floor + 1. Requires an open WAL.
  Status BootstrapFromImage(std::string_view image, int64_t wal_floor);

  /// What ApplyReplicatedBatch did with the shipped records.
  struct ReplicatedBatchReport {
    int64_t applied = 0;
    int64_t skipped = 0;  // LSN veto: already reflected (idempotent re-apply)
    int64_t dropped = 0;  // undecodable or inapplicable
  };

  /// Applies one shipped batch: logs every record into the local WAL at its
  /// primary LSN, fsyncs once (durability before acknowledgment), then
  /// applies through the replay path — the per-stream LSN veto makes
  /// re-delivery after a reconnect idempotent — and publishes the touched
  /// streams so estimation verbs serve the new state. Requires an open WAL.
  Status ApplyReplicatedBatch(std::span<const std::pair<int64_t, std::string>>
                                  records,
                              ReplicatedBatchReport* report = nullptr);

  /// Live replica-side replication state, fed by the replication client in
  /// src/server and rendered by STATS. Timestamps are steady-clock
  /// milliseconds so lag math never moves backwards with wall-clock jumps.
  struct ReplicaStatus {
    bool is_replica = false;
    bool connected = false;
    int64_t primary_durable_lsn = 0;  // from heartbeats / record batches
    int64_t applied_lsn = 0;          // highest LSN applied locally
    int64_t last_contact_ms = 0;      // steady-clock ms of last primary frame
    int64_t reconnects = 0;
    int64_t batches = 0;
    int64_t records = 0;
    int64_t bootstraps = 0;
  };
  void UpdateReplicaStatus(const ReplicaStatus& status);
  ReplicaStatus replica_status() const;

  /// Degradation ladder, replica rung: when > 0 and this replica has not
  /// heard from its primary for longer than `ms`, estimation verbs shed
  /// with kOverloaded instead of serving arbitrarily stale answers. 0
  /// disables the shed.
  void SetReplicaMaxLagMs(int64_t ms);

  /// Registered by the replica runtime; the PROMOTE verb invokes it. The
  /// handler stops replication at a batch boundary, flips read-only off,
  /// and returns the promotion summary.
  void SetPromoteHandler(std::function<Result<std::string>()> handler);

 private:
  struct WalState;      // defined in query_engine.cc
  struct FlusherState;  // defined in query_engine.cc
  struct ReplState;     // defined in query_engine.cc
  /// The one statement path behind both Execute overloads (`ctx` may be
  /// null): tokenize, resolve the verb, dispatch, record the verb's stats.
  Result<std::string> ExecuteStatement(std::string_view statement,
                                       ExecContext* ctx);

  /// The dispatcher for a tokenized statement. `verb` is kNumVerbs for a
  /// first token that names no verb.
  /// Sets `*touched` to the resolved stream handle for stream-scoped verbs
  /// (the stats target); leaves it empty for engine-scoped verbs and failed
  /// lookups.
  Result<std::string> ExecuteParsed(const StatementTokens& tokens,
                                    QueryVerb verb,
                                    ExecContext* ctx, StreamHandle* touched);

  /// LoadCheckpoint's parsing core; `header_lsn`, when non-null, receives
  /// the SHCP header's global WAL LSN.
  Result<CheckpointReport> LoadCheckpointFrom(const std::string& path,
                                              int64_t* header_lsn);

  /// The from-memory core behind LoadCheckpointFrom — also the bootstrap
  /// path, where the image arrives over the wire instead of from disk.
  Result<CheckpointReport> LoadCheckpointFromBytes(std::string_view file,
                                                   int64_t* header_lsn);

  /// CreateStream minus the read-only gate and the WAL record: the replay /
  /// replica-apply form, where the CREATE is already logged (or arrives at a
  /// primary-assigned LSN). `wal_lsn` seeds the stream's LSN tail.
  Status CreateStreamUnlogged(const std::string& name,
                              const StreamConfig& config, int64_t wal_lsn);

  /// Replay/apply tallies for ApplyWalRecord.
  struct WalApplyCounters {
    int64_t applied = 0;
    int64_t skipped = 0;
    int64_t dropped = 0;
  };

  /// Applies one decoded-or-droppable WAL record to the registry — the
  /// shared core of OpenWal's recovery replay and ApplyReplicatedBatch.
  /// Per-stream LSN tails veto records the state already reflects; touched
  /// streams are collected into `appended` for a deferred publish. Never
  /// fails on record content (damage counts as dropped).
  Status ApplyWalRecord(int64_t lsn, std::string_view payload,
                        WalApplyCounters* counters,
                        std::map<std::string, StreamHandle>* appended);

  /// Runs the installed replication barrier for `lsn` (no-op without one).
  Status RunReplicationBarrier(int64_t lsn);

  /// The replica lag shed: OK, or kOverloaded when read-only and the
  /// primary has been silent past the configured bound.
  Status CheckReplicaLag() const;

  /// SaveCheckpoint's core; `wal_floor_out`, when non-null, receives the
  /// global WAL LSN stored in the image (the safe truncation horizon).
  Status SaveCheckpointInternal(const std::string& path, SaveReport* report,
                                int64_t* wal_floor_out) const;

  /// Logs one APPEND record for `handle` (no-op without a WAL). Must run
  /// under the stream's writer lock, before the values are applied — the
  /// log-before-apply ordering the checkpoint LSN protocol relies on. A
  /// failure (e.g. wal.fsync under policy "always") means the values must
  /// not be applied or acked.
  Status LogAppend(const StreamHandle& handle, std::span<const double> values);

  /// The single append core every ingest path lands on — text APPEND, the
  /// binary batch frame, AppendBatch, and AppendBatches all funnel here.
  /// Takes the stream's writer lock, logs to the WAL (log-before-ack), feeds
  /// the batch, and runs the publication policy (ManagedStream::
  /// CommitAppendBatch). Returns the number of values quarantined as
  /// non-finite.
  Result<int64_t> AppendLocked(const StreamHandle& handle,
                               std::span<const double> values);

  /// Starts the background flusher (once) when any stream runs with a
  /// positive staleness bound: a thread that ticks at half the smallest
  /// bound and publishes any stream whose oldest unpublished append has aged
  /// past its stream's bound — the guarantee that a quiet writer cannot
  /// strand acked values reader-invisible.
  void EnsureFlusher(int64_t bound_ms);

  StreamRegistry registry_;
  QueryStats engine_stats_;
  std::unique_ptr<WalState> wal_;
  // Always allocated (the constructor does): replication flags are read on
  // hot paths without a null check. Behind a pointer because ReplState is
  // defined in query_engine.cc.
  std::unique_ptr<ReplState> repl_;
  // Guards flusher_ creation.
  std::mutex flusher_mu_;
  // Declared last: its joining destructor runs before the registry (which
  // the flusher thread walks) is torn down.
  std::unique_ptr<FlusherState> flusher_;
};

}  // namespace streamhist

#endif  // STREAMHIST_ENGINE_QUERY_ENGINE_H_
