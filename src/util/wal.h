#ifndef STREAMHIST_UTIL_WAL_H_
#define STREAMHIST_UTIL_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace streamhist {
namespace fs {
class File;
}  // namespace fs

namespace wal {

/// Segmented write-ahead log of CRC32C-framed records with monotone LSNs
/// and group commit. The WAL knows nothing about what a record means: the
/// payload is an opaque byte string supplied by the caller (the engine's
/// record codec lives in src/engine/wal_records.h), so the format can carry
/// future record kinds — RETRACT/delta updates per Ganguly's update-stream
/// summaries — without touching this layer.
///
/// On disk a log is a directory of segment files `wal-<first_lsn>.seg`
/// (20-digit zero-padded first LSN, so lexicographic order is LSN order).
/// A segment is a header frame followed by record frames, each a
/// src/util/framing frame:
///
///   header: magic "SHWL" v1, payload = first_lsn u64
///   record: magic "SHWR" v1, payload = lsn u64 | caller bytes
///
/// followed by zeros: the writer keeps the active segment zero-filled
/// 256 KiB ahead of its write offset (capped at segment_bytes) and writes
/// each record into that space with a positioned write, so a record's
/// fsync commits data, not a file-size change (DESIGN.md §12.2).
///
/// Open() scans every retained segment and derives the next LSN. Where a
/// frame should start, an all-zero remainder is the segment's clean end
/// (segments written before the fill simply end at their last record). A
/// torn tail in the newest segment — a short or magic-less frame, or a
/// CRC-bad one whose CRC trailer or one of whose sectors reads as zeros,
/// the footprint of a crash mid-write — is truncated at that frame's start
/// and the cut fsynced, dropping any later frames with it: they were
/// written after the one the crash lost. OpenReport::torn_bytes counts the
/// residue, not the fill. Recovery therefore never fails on a torn tail; it
/// repairs and reports. Any other CRC-bad record (media rot) is skipped by
/// frame resynchronization and counted, never fatal. A zero run followed
/// by more frames is a torn tail, never skipped.
///
/// Durability policies (ParsePolicySpec: "always" | "bytes:N" |
/// "interval:MS" | "none"):
///   always     Append returns only after the record is fsynced. A
///              background flusher coalesces concurrently waiting
///              appenders into one fsync (group commit).
///   bytes:N    Append returns once the record is buffered in the file;
///              the flusher fsyncs whenever >= N unsynced bytes accumulate.
///   interval:M the flusher fsyncs every M milliseconds.
///   none       no fsync except on Close/Flush.
/// Only "always" gives acked-implies-durable; the others bound the loss
/// window instead (documented trade, bench-measured in BENCH_PR7).
///
/// Every file operation goes through fs::Default() (util/file_system.h);
/// tests/crash_state_test.cc records them to check each crash state the
/// durability policy "always" can leave.
///
/// Thread-safe: any number of appenders; one internal flusher thread.
///
/// Memory accounting: Open charges the active-segment write-back footprint
/// (segment_bytes) plus scan buffers against the PR4 governor and refuses
/// to open when over budget; the charge is released on destruction.
///
/// Fault points (util/fault.h): wal.append.short, wal.fsync, wal.seal,
/// wal.replay.corrupt.

enum class SyncPolicy { kAlways, kBytes, kInterval, kNone };

/// The unit a crash can lose a write in: a disk lands a sector whole or not
/// at all, so a write cut by a crash misses whole sectors, which read as
/// the zero fill beneath them. Recovery reads a CRC-bad frame in the newest
/// segment that touches an all-zero sector as torn, not as rot.
inline constexpr int64_t kSectorBytes = 512;

struct Options {
  SyncPolicy policy = SyncPolicy::kAlways;
  /// kBytes: fsync once this many unsynced bytes accumulate.
  int64_t bytes_threshold = 1 << 20;
  /// kInterval: fsync cadence in milliseconds.
  int64_t interval_ms = 5;
  /// Rotate (seal) the active segment once it reaches this size.
  int64_t segment_bytes = 4 << 20;
};

/// Parses a durability-policy spec ("always", "bytes:65536", "interval:5",
/// "none") into Options (segment_bytes keeps its default). This is the
/// STREAMHIST_WAL / `serve --wal-policy` grammar.
Result<Options> ParsePolicySpec(std::string_view spec);

/// Inverse of ParsePolicySpec for the policy fields.
std::string PolicySpecString(const Options& options);

/// What Open (or a read-only Scan) found on disk.
struct OpenReport {
  int64_t segments = 0;         // segment files scanned
  int64_t records = 0;          // whole, CRC-valid records retained
  int64_t corrupt_records = 0;  // CRC-bad interior records (skipped)
  int64_t torn_bytes = 0;       // bytes cut (or cuttable) off the tail
  bool tail_truncated = false;  // a torn tail was found
  int64_t first_lsn = 0;        // lowest retained LSN (0 when empty)
  int64_t next_lsn = 1;         // first LSN Append will assign
  std::string ToString() const;
};

/// Process-lifetime counters (monotone except the LSN watermarks).
struct StatsSnapshot {
  int64_t records = 0;           // records appended this process
  int64_t bytes = 0;             // frame bytes written this process
  int64_t fsyncs = 0;            // fsync calls issued
  int64_t sync_waits = 0;        // appends that blocked on durability
  int64_t segments_created = 0;  // rotations (plus the initial segment)
  int64_t segments_deleted = 0;  // sealed segments removed by truncation
  int64_t durable_lsn = 0;       // highest LSN covered by an fsync
  int64_t next_lsn = 1;
};

/// One sealed (or scanned) segment file. Internal bookkeeping, exposed for
/// the scan routine that rebuilds it on Open.
struct SegmentInfo {
  std::string path;
  int64_t first_lsn = 0;  // from the segment header
  int64_t max_lsn = 0;    // highest valid record LSN; first_lsn - 1 if none
  int64_t bytes = 0;      // end of its last frame; the zero fill lies beyond
};

/// Position of a tailing reader (the replication feeder). Value-semantic:
/// next_lsn is authoritative; segment_path/offset are a seek hint that is
/// revalidated on every ReadTail, so a cursor gone stale across a rotation
/// or checkpoint truncation self-heals instead of misreading.
struct TailCursor {
  int64_t next_lsn = 1;      // lowest LSN the reader still wants
  std::string segment_path;  // file the cursor is parked in ("": unknown)
  int64_t offset = 0;        // byte offset of the next unread frame
};

/// One ReadTail result: records in LSN order, every LSN fsync-covered at
/// call time.
struct TailBatch {
  std::vector<std::pair<int64_t, std::string>> records;  // (lsn, payload)
  /// The cursor predates retention (a checkpoint truncated those segments):
  /// the reader cannot resume from the log and must bootstrap from a
  /// checkpoint image instead.
  bool truncated_below = false;
};

class Wal {
 public:
  /// Called once per retained record, in LSN order. A non-OK return aborts
  /// the scan and is propagated.
  using RecordFn =
      std::function<Status(int64_t lsn, std::string_view payload)>;

  /// Opens (creating the directory if needed) and repairs the log, then
  /// starts the flusher. `report`, when non-null, receives the scan
  /// outcome. Fails only on real I/O errors or governor refusal — never on
  /// torn or corrupt content.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           const Options& options,
                                           OpenReport* report);

  /// Read-only scan of a log directory: validates every frame and reports
  /// what Open would find, optionally handing each record to `fn` (null is
  /// fine — verify mode). Never modifies the files.
  static Status Scan(const std::string& dir, const RecordFn& fn,
                     OpenReport* report);

  ~Wal();  // Flush(), stop the flusher, release the governor charge.

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Streams every retained record with LSN >= from_lsn to `fn`. Call
  /// before the first Append (recovery replay); the scan reads the repaired
  /// files back from disk.
  Status Replay(int64_t from_lsn, const RecordFn& fn,
                OpenReport* report) const;

  /// Appends one record, assigns its LSN, and blocks per the durability
  /// policy. Under "always" a flush failure (fault point wal.fsync) is
  /// returned here and the record must not be acked — the caller's
  /// log-before-apply ordering makes the value invisible.
  Result<int64_t> Append(std::string_view payload);

  /// Fsyncs everything appended so far (shutdown, pre-checkpoint barrier).
  Status Flush();

  /// Reads records with LSN >= cursor->next_lsn in LSN order, stopping
  /// after roughly max_bytes of frame data or at the durability horizon —
  /// a tailing reader never sees a record the primary has not fsynced, so
  /// a replica can never end up more durable than its primary. Advances
  /// the cursor and follows the active segment across rotations; an empty
  /// batch with truncated_below unset means caught up. Reads from the
  /// cursor's offset, at most max_bytes plus the one frame that budget
  /// ends inside, and never past a segment's last frame: a caught-up poll
  /// reads nothing, and the zero fill is never read.
  Status ReadTail(TailCursor* cursor, int64_t max_bytes, TailBatch* out);

  /// Appends one record at an explicit LSN (replica side: records arrive
  /// already numbered by the primary; gaps from skipped corrupt records
  /// are legal). Requires lsn >= next_lsn(). Never waits for durability,
  /// whatever the policy — batch appliers call Flush() once per batch.
  Status AppendAt(int64_t lsn, std::string_view payload);

  /// Fast-forwards the log so the next record lands at exactly `lsn`
  /// (>= next_lsn()), sealing the active segment and opening a fresh one
  /// whose header carries `lsn`. This is the checkpoint-bootstrap handoff's
  /// "resume after the floor" step: LSNs <= lsn - 1 are treated as durable
  /// (they live in the bootstrap image, not this log).
  Status AlignNextLsn(int64_t lsn);

  /// Seals the active segment and opens the next one, unless the active
  /// segment holds no record yet. Every record logged before the call then
  /// lies in a sealed segment that TruncateBefore can delete.
  Status Rotate();

  /// Blocks until durable_lsn() >= lsn (nudging the flusher if needed), the
  /// timeout elapses, or the log closes. Returns whether lsn is durable.
  bool WaitDurable(int64_t lsn, int64_t timeout_ms);

  /// Lowest LSN a tailing reader could still read from retained segments.
  int64_t first_retained_lsn() const;

  /// Deletes sealed segments every record of which has LSN < lsn — called
  /// after a checkpoint covering LSNs < lsn is durably on disk. The active
  /// segment is never deleted.
  Status TruncateBefore(int64_t lsn);

  int64_t durable_lsn() const;
  /// The LSN the next Append will assign; next_lsn() - 1 is the high-water
  /// mark of assigned LSNs.
  int64_t next_lsn() const;
  StatsSnapshot stats() const;
  const std::string& dir() const { return dir_; }
  const Options& options() const { return options_; }

 private:
  Wal(std::string dir, const Options& options);

  Status OpenActiveSegment(int64_t first_lsn);
  Status SealAndRotateLocked();
  /// The one frame writer behind Append and AppendAt: rotates when the
  /// active segment is full, zero-fills ahead of the frame, writes it at
  /// active_bytes_ (rolling a failure back to the last record boundary),
  /// and advances the LSN bookkeeping.
  Status AppendRecordLocked(int64_t lsn, std::string_view payload);
  /// Makes the active segment hold zeros through `frame_end`: when the
  /// frame reaches past the fill, writes zeros up to kZeroFillBytes past
  /// the write offset, capped at segment_bytes, or through `frame_end`
  /// when the frame alone reaches further.
  Status ZeroFillLocked(int64_t frame_end);
  /// Cuts the active segment back to active_bytes_ after a failed write,
  /// resets the zero fill to it, and returns `cause`.
  Status RollBackLocked(Status cause);
  /// Blocks until `lsn` is durable, a flush fails, or the log closes.
  Status AwaitDurableLocked(std::unique_lock<std::mutex>& lock, int64_t lsn);
  /// Policy bytes:N: N bytes beyond any fsync in flight await one.
  bool BytesDueLocked() const;
  void FlusherMain();
  Status FsyncLocked(std::unique_lock<std::mutex>& lock);

  const std::string dir_;
  const Options options_;
  int64_t governor_charge_ = 0;

  mutable std::mutex mu_;
  std::condition_variable flush_cv_;    // appenders -> flusher
  std::condition_variable durable_cv_;  // flusher -> waiting appenders
  // The segment appends go to; shared so the unlocked group-commit fsync
  // keeps its file open across a concurrent rotation. Null once closed.
  std::shared_ptr<fs::File> active_;
  std::vector<SegmentInfo> sealed_;  // immutable predecessors of the active
  int64_t active_first_lsn_ = 0;   // header LSN of the active segment
  int64_t active_bytes_ = 0;       // frame bytes in the active segment
  int64_t filled_bytes_ = 0;       // its length: frames plus zero fill
  int64_t next_lsn_ = 1;           // next LSN to assign
  int64_t written_lsn_ = 0;        // highest LSN fully in the file
  int64_t durable_lsn_ = 0;        // highest LSN covered by fsync
  int64_t requested_lsn_ = 0;      // highest LSN an appender wants durable
  int64_t unsynced_bytes_ = 0;     // bytes written since the last fsync
  int64_t syncing_bytes_ = 0;      // of those, covered by an fsync in flight
  int64_t rotation_epoch_ = 0;     // bumped whenever a rotation resets it
  bool stop_ = false;
  Status flush_error_ = Status::OK();  // last flush failure
  int64_t flush_error_seq_ = 0;        // bumped on every flush failure
  StatsSnapshot stats_;
  std::thread flusher_;
};

}  // namespace wal
}  // namespace streamhist

#endif  // STREAMHIST_UTIL_WAL_H_
