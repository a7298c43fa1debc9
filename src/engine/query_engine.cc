#include "src/engine/query_engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/error_bounds.h"
#include "src/engine/wal_records.h"
#include "src/util/backoff.h"
#include "src/util/deadline.h"
#include "src/util/file_system.h"
#include "src/util/fileio.h"
#include "src/util/framing.h"
#include "src/util/governor.h"
#include "src/util/thread_pool.h"

namespace streamhist {

namespace {

// The whitespace set of std::isspace in the C locale.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// Error-path only: the upper-cased verb some messages quote.
std::string UpperCopy(std::string_view token) {
  std::string out(token);
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

Result<int64_t> ParseInt(std::string_view token) {
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    return Status::InvalidArgument("expected an integer, got '" +
                                   std::string(token) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view token) {
  // strtod's grammar is the language's ("+1", "0x1p3", "inf", "nan"; APPEND
  // quarantines the non-finite ones), so from_chars is no substitute. It
  // needs a NUL-terminated copy: on the stack unless the token is long.
  char stack[64];
  std::string heap;
  const char* text = stack;
  if (token.size() < sizeof(stack)) {
    std::memcpy(stack, token.data(), token.size());
    stack[token.size()] = '\0';
  } else {
    heap.assign(token);
    text = heap.c_str();
  }
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end != text + token.size() || token.empty()) {
    return Status::InvalidArgument("expected a number, got '" +
                                   std::string(token) + "'");
  }
  return value;
}

// The ack of every ingest surface, text APPEND and batch frame alike.
std::string AppendAck(size_t values, int64_t quarantined) {
  std::string out = "appended " +
                    std::to_string(static_cast<int64_t>(values) - quarantined) +
                    " point(s)";
  if (quarantined > 0) {
    out += ", quarantined " + std::to_string(quarantined) + " non-finite";
  }
  return out;
}

}  // namespace

std::string FormatAnswer(double v) {
  char buf[32];  // "%.12g" needs at most 19: -1.23456789012e-308
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12);
  return std::string(buf, r.ptr);
}

/// A statement's whitespace-separated tokens, as views into the statement.
/// The first kInline live in place; a statement with more (a long text
/// APPEND) moves them all to the heap.
class StatementTokens {
 public:
  explicit StatementTokens(std::string_view statement) {
    const size_t n = statement.size();
    size_t i = 0;
    while (i < n) {
      while (i < n && IsSpace(statement[i])) ++i;
      const size_t start = i;
      while (i < n && !IsSpace(statement[i])) ++i;
      if (i > start) Push(statement.substr(start, i - start));
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::string_view operator[](size_t i) const {
    return spill_.empty() ? inline_[i] : spill_[i];
  }

 private:
  static constexpr size_t kInline = 8;

  void Push(std::string_view token) {
    if (size_ < kInline) {
      inline_[size_++] = token;
      return;
    }
    if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(token);
    ++size_;
  }

  std::array<std::string_view, kInline> inline_;
  std::vector<std::string_view> spill_;
  size_t size_ = 0;
};

namespace {

/// Resolves a [lo, hi) window range from "lo hi" or "LAST k" argument forms.
Result<std::pair<int64_t, int64_t>> ParseRange(const StatementTokens& tokens,
                                               size_t first_arg,
                                               int64_t window_size) {
  if (tokens.size() == first_arg + 2 &&
      KeywordEquals(tokens[first_arg], "LAST")) {
    STREAMHIST_ASSIGN_OR_RETURN(int64_t k, ParseInt(tokens[first_arg + 1]));
    if (k < 1) return Status::InvalidArgument("LAST k requires k >= 1");
    k = std::min(k, window_size);
    return std::make_pair(window_size - k, window_size);
  }
  if (tokens.size() == first_arg + 2) {
    STREAMHIST_ASSIGN_OR_RETURN(int64_t lo, ParseInt(tokens[first_arg]));
    STREAMHIST_ASSIGN_OR_RETURN(int64_t hi, ParseInt(tokens[first_arg + 1]));
    if (!(0 <= lo && lo <= hi && hi <= window_size)) {
      return Status::OutOfRange("range [" + std::to_string(lo) + "," +
                                std::to_string(hi) +
                                ") outside window of size " +
                                std::to_string(window_size));
    }
    return std::make_pair(lo, hi);
  }
  return Status::InvalidArgument("expected '<lo> <hi>' or 'LAST <k>'");
}

// Checkpoint container: one SHCP header frame carrying the stream count,
// then one SHST frame per stream (length-prefixed name + snapshot blob).
// Each frame carries its own CRC32C, so corruption is localized to one
// section and the remaining streams still load.
//
// The header payload is the stream count and the engine's global WAL LSN
// floor — the highest log position the image is guaranteed to reflect, and
// therefore the safe truncation horizon. Only the current version loads.
constexpr uint32_t kCheckpointMagic = 0x53484350;  // "SHCP"
constexpr uint32_t kCheckpointVersion = 2;
constexpr uint32_t kSectionMagic = 0x53485354;  // "SHST"
constexpr uint32_t kSectionVersion = 1;

// The smallest possible whole frame (16-byte header + CRC trailer). ReadFrame
// advances at least this far only when it consumed a complete frame — the
// signal that resynchronizing on the next section is possible.
constexpr size_t kMinFrameSize = 20;

}  // namespace

// Everything the durable-ingest mode owns: the log itself, the recovery
// report, and the background checkpointer.
struct QueryEngine::WalState {
  std::unique_ptr<wal::Wal> log;
  std::string dir;
  int64_t checkpoint_interval_ms = 0;
  WalRecoveryReport recovery;

  // CREATE/DROP hold this shared around [append the log record, mutate the
  // registry]; a checkpoint holds it exclusive around [read the LSN floor,
  // enumerate handles]. That makes "every create/drop logged at or below
  // the floor is reflected in the enumerated handle set" an invariant — the
  // half of the truncation-safety proof the per-stream writer locks cannot
  // give. Appends don't take it: their log write and apply are already
  // atomic with respect to that stream's serialization via LockWriter().
  std::shared_mutex registry_mu;

  // Serializes WalCheckpointNow against itself (verb vs background thread),
  // so two checkpoints never interleave their write + truncate pairs.
  std::mutex checkpoint_mu;

  std::mutex mu;  // guards stop
  std::condition_variable cv;
  bool stop = false;
  std::thread checkpointer;
  std::atomic<int64_t> checkpoints{0};

  static constexpr char kCheckpointName[] = "checkpoint.shcp";
  std::string CheckpointPath() const { return dir + "/" + kCheckpointName; }

  ~WalState() {
    // CloseWal joins on the normal path; this is the backstop so the thread
    // never outlives the state it reads.
    if (checkpointer.joinable()) {
      {
        const std::lock_guard<std::mutex> lk(mu);
        stop = true;
      }
      cv.notify_all();
      checkpointer.join();
    }
  }
};

// The background publisher behind positive staleness bounds (DESIGN.md §13):
// wakes at half the tightest bound any stream was created with and publishes
// every stream with committed-but-unpublished appends. That caps reader
// staleness at the tick (≤ bound/2) even when the writer goes quiet — the
// writer-side policy alone only publishes on the *next* commit.
//
// The thread captures the registry pointer, not the engine: the registry's
// heap address is stable across engine moves. Declared last among the
// engine's members so its joining destructor runs before the registry dies.
struct QueryEngine::FlusherState {
  StreamRegistry* registry = nullptr;
  std::atomic<int64_t> tick_ms{1};

  std::mutex mu;  // guards stop
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;

  ~FlusherState() {
    if (thread.joinable()) {
      {
        const std::lock_guard<std::mutex> lk(mu);
        stop = true;
      }
      cv.notify_all();
      thread.join();
    }
  }
};

// Replication flags and replica-side status (DESIGN.md §14). Allocated
// unconditionally so the hot-path gates (read_only, has_barrier) are plain
// relaxed atomic loads with no null check; the mutex guards the cold fields.
struct QueryEngine::ReplState {
  std::atomic<bool> read_only{false};
  std::atomic<bool> has_barrier{false};
  std::atomic<int64_t> max_lag_ms{0};
  mutable std::mutex mu;  // guards everything below
  ReplicaStatus status;
  ReplicationBarrier barrier;
  std::function<Result<std::string>()> promote;
};

namespace {
int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status BudgetRefused(const std::string& name, const std::string& what) {
  return Status::ResourceExhausted(
      "memory budget refused stream '" + name + "': " + what + ", used " +
      std::to_string(governor::Used()) + ", budget " +
      governor::FormatBytes(governor::Budget()));
}

// Probes whether one window rebuild's scratch fits on top of what is charged
// now. That scratch is charged to no one while a rebuild runs, so this probe,
// released straight away, is what keeps out a stream whose first read would
// allocate past the budget.
Status ProbeRebuildScratch(const std::string& name,
                           const StreamConfig& config) {
  const int64_t scratch = ManagedStream::EstimateRebuildScratchBytes(config);
  if (!governor::TryCharge(scratch)) {
    return BudgetRefused(name, "a window rebuild needs up to " +
                                   std::to_string(scratch) +
                                   " bytes of scratch");
  }
  governor::Release(scratch);
  return Status::OK();
}

// Admission control for a new stream, before anything is allocated: its
// steady-state footprint must fit, and so must one rebuild's scratch on top
// of it. The probe charges are released; the stream itself keeps its
// *actual* footprint charged as it grows (ManagedStream's reconcile).
Status AdmitStream(const std::string& name, const StreamConfig& config) {
  const int64_t estimate = ManagedStream::EstimateFootprintBytes(config);
  if (!governor::TryCharge(estimate)) {
    return BudgetRefused(name,
                         "estimated " + std::to_string(estimate) + " bytes");
  }
  const Status scratch = ProbeRebuildScratch(name, config);
  governor::Release(estimate);
  return scratch;
}
}  // namespace

void QueryEngine::EnsureFlusher(int64_t bound_ms) {
  if (bound_ms <= 0) return;
  const int64_t tick = std::max<int64_t>(1, bound_ms / 2);
  const std::lock_guard<std::mutex> lock(flusher_mu_);
  if (flusher_ != nullptr) {
    // A stream with a tighter bound appeared: shrink the cadence. (Relaxed
    // is fine — the thread re-reads the tick every wakeup.)
    int64_t cur = flusher_->tick_ms.load(std::memory_order_relaxed);
    while (tick < cur && !flusher_->tick_ms.compare_exchange_weak(
                             cur, tick, std::memory_order_relaxed)) {
    }
    return;
  }
  flusher_ = std::make_unique<FlusherState>();
  flusher_->registry = &registry_;
  flusher_->tick_ms.store(tick, std::memory_order_relaxed);
  FlusherState* st = flusher_.get();
  st->thread = std::thread([st] {
    std::unique_lock<std::mutex> lk(st->mu);
    while (!st->stop) {
      st->cv.wait_for(
          lk,
          std::chrono::milliseconds(
              st->tick_ms.load(std::memory_order_relaxed)),
          [&] { return st->stop; });
      if (st->stop) break;
      lk.unlock();
      // The dirty flag lives under the writer mutex, so the check and the
      // publish ride one short critical section per stream. Uncontended
      // locks at millisecond cadence cost the writers nothing measurable.
      for (const StreamHandle& handle : st->registry->Handles()) {
        const auto wlock = handle.LockWriter();
        (void)handle.stream().FlushIfDirty();
      }
      lk.lock();
    }
  });
}

QueryEngine::QueryEngine() : repl_(std::make_unique<ReplState>()) {}
QueryEngine::~QueryEngine() { (void)CloseWal(); }

Status QueryEngine::CreateStream(const std::string& name,
                                 const StreamConfig& config) {
  if (repl_->read_only.load(std::memory_order_relaxed)) {
    return Status::ReadOnly(
        "this node is a read replica; CREATE must go to the primary");
  }
  if (name.empty()) return Status::InvalidArgument("stream name is empty");
  if (registry_.Get(name).ok()) {
    return Status::InvalidArgument("stream '" + name + "' already exists");
  }
  STREAMHIST_RETURN_NOT_OK(AdmitStream(name, config));
  STREAMHIST_ASSIGN_OR_RETURN(ManagedStream stream,
                              ManagedStream::Create(config));
  // Create() resolved the < 0 sentinel against the process default; arm the
  // background flusher when the stream runs with a coalescing bound.
  const int64_t staleness_ms = stream.publish_staleness_ms();
  if (wal_ == nullptr) {
    // Two racing CREATEs of one name both pass the pre-check above; Insert's
    // internal check-and-emplace decides the winner, and the loser's stream
    // destructs (releasing its governor charge) without ever being visible.
    const Status inserted = registry_.Insert(name, std::move(stream));
    if (inserted.ok()) EnsureFlusher(staleness_ms);
    return inserted;
  }
  // Log before insert, both under the checkpoint barrier. A racing dup
  // CREATE may log a second record; replay skips a CREATE whose stream
  // already exists, so the loser's record is inert.
  const std::shared_lock<std::shared_mutex> barrier(wal_->registry_mu);
  STREAMHIST_ASSIGN_OR_RETURN(
      const int64_t lsn,
      wal_->log->Append(walrec::EncodeCreate(name, config)));
  stream.set_wal_lsn(lsn);
  const Status inserted = registry_.Insert(name, std::move(stream));
  if (inserted.ok()) {
    EnsureFlusher(staleness_ms);
    STREAMHIST_RETURN_NOT_OK(RunReplicationBarrier(lsn));
  }
  return inserted;
}

Status QueryEngine::CreateStreamUnlogged(const std::string& name,
                                         const StreamConfig& config,
                                         int64_t wal_lsn) {
  if (name.empty()) return Status::InvalidArgument("stream name is empty");
  if (registry_.Get(name).ok()) {
    return Status::InvalidArgument("stream '" + name + "' already exists");
  }
  // Same admission probe as the logged path: a budget shrunk since the
  // record was written refuses the stream here (dropped by the caller).
  STREAMHIST_RETURN_NOT_OK(AdmitStream(name, config));
  STREAMHIST_ASSIGN_OR_RETURN(ManagedStream stream,
                              ManagedStream::Create(config));
  const int64_t staleness_ms = stream.publish_staleness_ms();
  stream.set_wal_lsn(wal_lsn);
  const Status inserted = registry_.Insert(name, std::move(stream));
  if (inserted.ok()) EnsureFlusher(staleness_ms);
  return inserted;
}

Status QueryEngine::DropStream(const std::string& name) {
  if (repl_->read_only.load(std::memory_order_relaxed)) {
    return Status::ReadOnly(
        "this node is a read replica; DROP must go to the primary");
  }
  if (wal_ == nullptr) return registry_.Erase(name);
  const std::shared_lock<std::shared_mutex> barrier(wal_->registry_mu);
  // Pre-check so dropping a missing stream is not logged. A drop that races
  // in between merely leaves a redundant DROP record (replay no-ops on an
  // absent stream); the reverse — erasing without having logged — is what
  // the order here rules out.
  const Result<StreamHandle> existing = registry_.Get(name);
  if (!existing.ok()) return existing.status();
  STREAMHIST_ASSIGN_OR_RETURN(const int64_t lsn,
                              wal_->log->Append(walrec::EncodeDrop(name)));
  const Status erased = registry_.Erase(name);
  if (erased.ok()) STREAMHIST_RETURN_NOT_OK(RunReplicationBarrier(lsn));
  return erased;
}

Status QueryEngine::LogAppend(const StreamHandle& handle,
                              std::span<const double> values) {
  if (wal_ == nullptr) return Status::OK();
  STREAMHIST_ASSIGN_OR_RETURN(
      const int64_t lsn,
      wal_->log->Append(walrec::EncodeAppend(handle.name(), values)));
  handle.stream().set_wal_lsn(lsn);
  return RunReplicationBarrier(lsn);
}

Result<int64_t> QueryEngine::AppendLocked(const StreamHandle& handle,
                                          std::span<const double> values) {
  if (repl_->read_only.load(std::memory_order_relaxed)) {
    return Status::ReadOnly(
        "this node is a read replica; APPEND must go to the primary");
  }
  const auto lock = handle.LockWriter();
  // Log before apply: an unloggable append is a typed error and the values
  // never enter the stream — the ack implies durability.
  STREAMHIST_RETURN_NOT_OK(LogAppend(handle, values));
  return handle.stream().CommitAppendBatch(values);
}

Status QueryEngine::Append(const std::string& name, double value) {
  const double values[] = {value};
  return AppendBatch(name, values);
}

Status QueryEngine::AppendBatch(const std::string& name,
                                std::span<const double> values) {
  STREAMHIST_ASSIGN_OR_RETURN(StreamHandle handle, Stream(name));
  return AppendLocked(handle, values).status();
}

Status QueryEngine::AppendBatches(std::span<const StreamBatch> batches) {
  // Resolve and validate everything up front so the parallel phase cannot
  // fail and no points are appended on error.
  std::vector<StreamHandle> targets;
  targets.reserve(batches.size());
  std::set<std::string> seen;
  for (const StreamBatch& batch : batches) {
    if (!seen.insert(batch.name).second) {
      return Status::InvalidArgument("duplicate batch for stream '" +
                                     batch.name + "'");
    }
    STREAMHIST_ASSIGN_OR_RETURN(StreamHandle handle, Stream(batch.name));
    targets.push_back(std::move(handle));
  }
  // With a WAL, a batch whose log write fails is not applied — the others
  // stand on their own (each stream's log+apply is atomic under its writer
  // lock), and the first failure is reported.
  std::vector<Status> results(batches.size(), Status::OK());
  ParallelFor(0, static_cast<int64_t>(batches.size()), /*grain=*/1,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const size_t idx = static_cast<size_t>(i);
                  const Result<int64_t> appended =
                      AppendLocked(targets[idx], batches[idx].values);
                  if (!appended.ok()) results[idx] = appended.status();
                }
              });
  for (const Status& status : results) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

void QueryEngine::RefreshAll() {
  const std::vector<StreamHandle> targets = registry_.Handles();
  ParallelFor(0, static_cast<int64_t>(targets.size()), /*grain=*/1,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) {
                  const StreamHandle& handle = targets[static_cast<size_t>(i)];
                  const auto lock = handle.LockWriter();
                  handle.stream().Refresh();
                  handle.stream().PublishSnapshot();
                }
              });
}

Result<StreamHandle> QueryEngine::Stream(const std::string& name) const {
  return registry_.Get(name);
}

std::vector<std::string> QueryEngine::ListStreams() const {
  return registry_.List();
}

std::string QueryEngine::CheckpointReport::ToString() const {
  std::ostringstream os;
  os << "loaded " << loaded.size() << " stream(s)";
  for (size_t i = 0; i < loaded.size(); ++i) {
    os << (i == 0 ? ": " : " ") << loaded[i];
  }
  if (!dropped.empty()) {
    os << "; dropped " << dropped.size() << ":";
    for (const DroppedStream& d : dropped) {
      os << " " << d.name << " [" << d.reason.ToString() << "]";
    }
  }
  return os.str();
}

namespace {
// Test seam for the save-retry backoff; null means real sleep.
void (*g_backoff_sleeper)(int64_t) = nullptr;
}  // namespace

void QueryEngine::SetBackoffSleeperForTest(void (*sleeper)(int64_t millis)) {
  g_backoff_sleeper = sleeper;
}

Status QueryEngine::SaveCheckpoint(const std::string& path,
                                   SaveReport* report) const {
  return SaveCheckpointInternal(path, report, nullptr);
}

Status QueryEngine::BuildCheckpointImage(std::string* image,
                                         int64_t* wal_floor) const {
  // With a WAL, the LSN floor and the handle enumeration must be one atomic
  // observation: holding registry_mu exclusive means every CREATE/DROP
  // whose record sits at or below the floor has finished its registry
  // mutation and is reflected below. Records above the floor survive
  // truncation and replay instead. Appends need no barrier — an append at
  // LSN <= floor either applied before this stream's serialization (its
  // writer lock orders them) or the stream's own LSN tail exceeds the
  // floor, and Snapshot()'s max(own, floor) covers both.
  int64_t floor = 0;
  std::vector<StreamHandle> handles;
  if (wal_ != nullptr) {
    const std::unique_lock<std::shared_mutex> barrier(wal_->registry_mu);
    floor = wal_->log->next_lsn() - 1;
    handles = registry_.Handles();
  } else {
    handles = registry_.Handles();
  }
  if (wal_floor != nullptr) *wal_floor = floor;
  ByteWriter header;
  header.PutU64(handles.size());
  header.PutU64(static_cast<uint64_t>(floor));
  std::string file = WrapFrame(kCheckpointMagic, kCheckpointVersion,
                               header.bytes());
  for (const StreamHandle& handle : handles) {
    // The writer mutex keeps a concurrent APPEND/BUILD from mutating the
    // synopses mid-serialization; each stream is frozen one at a time.
    const auto lock = handle.LockWriter();
    // A checkpoint is also a publication deadline: coalesced appends become
    // reader-visible no later than the state that is about to be durable.
    (void)handle.stream().FlushIfDirty();
    ByteWriter section;
    section.PutLengthPrefixed(handle.name());
    section.PutLengthPrefixed(handle.stream().Snapshot(floor));
    file += WrapFrame(kSectionMagic, kSectionVersion, section.bytes());
  }
  *image = std::move(file);
  return Status::OK();
}

Status QueryEngine::SaveCheckpointInternal(const std::string& path,
                                           SaveReport* report,
                                           int64_t* wal_floor_out) const {
  std::string file;
  STREAMHIST_RETURN_NOT_OK(BuildCheckpointImage(&file, wal_floor_out));
  // The image is immutable from here, so a retry rewrites identical bytes —
  // safe against transient I/O failures (AtomicWriteFile's temp-file
  // discipline means a failed attempt leaves no partial state behind).
  // Default BackoffOptions reproduce the historical 1ms, 2ms schedule.
  Backoff backoff{BackoffOptions{}};
  if (g_backoff_sleeper != nullptr) backoff.set_sleeper(g_backoff_sleeper);
  Status last = Status::OK();
  for (int attempt = 1; attempt <= kSaveAttempts; ++attempt) {
    if (report != nullptr) report->attempts = attempt;
    last = AtomicWriteFile(path, file);
    if (last.ok()) return last;
    if (last.code() != StatusCode::kIOError) return last;  // not transient
    if (attempt < kSaveAttempts) backoff.SleepNext();
  }
  return last;
}

Result<QueryEngine::CheckpointReport> QueryEngine::LoadCheckpoint(
    const std::string& path) {
  if (wal_ == nullptr) return LoadCheckpointFrom(path, nullptr);
  CheckpointReport report;
  {
    // Keep CREATE/DROP out while the registry holds streams whose LSN tails
    // came from a foreign checkpoint and mean nothing against this log.
    const std::unique_lock<std::shared_mutex> barrier(wal_->registry_mu);
    Result<CheckpointReport> loaded = LoadCheckpointFrom(path, nullptr);
    if (!loaded.ok()) return loaded.status();
    report = std::move(*loaded);
    for (const StreamHandle& handle : registry_.Handles()) {
      const auto lock = handle.LockWriter();
      handle.stream().set_wal_lsn(0);
    }
  }
  // Re-anchor durability on the loaded state: seal the active segment, then
  // checkpoint into the WAL directory and truncate, so no record of the
  // replaced registry survives — a crash right after LOAD must not replay a
  // stale log over what was just loaded, nor a later recovery that drops a
  // rotted section replay it from the oldest retained record.
  Status durable = wal_->log->Rotate();
  if (durable.ok()) durable = WalCheckpointNow(nullptr);
  if (!durable.ok()) {
    return Status::IOError(
        "checkpoint loaded, but re-anchoring the wal failed: " +
        durable.ToString());
  }
  return report;
}

Result<QueryEngine::CheckpointReport> QueryEngine::LoadCheckpointFrom(
    const std::string& path, int64_t* header_lsn) {
  STREAMHIST_ASSIGN_OR_RETURN(std::string file, ReadFileToString(path));
  return LoadCheckpointFromBytes(file, header_lsn);
}

Result<QueryEngine::CheckpointReport> QueryEngine::LoadCheckpointFromBytes(
    std::string_view file, int64_t* header_lsn) {
  ByteReader reader(file);
  STREAMHIST_ASSIGN_OR_RETURN(
      FrameView header, ReadFrame(reader, kCheckpointMagic, "checkpoint"));
  if (header.version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported checkpoint version");
  }
  ByteReader header_reader(header.payload);
  uint64_t declared = 0;
  uint64_t global_lsn = 0;
  if (!header_reader.ReadU64(&declared) ||
      !header_reader.ReadU64(&global_lsn) || !header_reader.AtEnd()) {
    return Status::InvalidArgument("malformed checkpoint header payload");
  }
  if (header_lsn != nullptr) *header_lsn = static_cast<int64_t>(global_lsn);

  // Everything below is partial recovery: the engine is only touched once
  // parsing is complete, and a bad section costs that one stream.
  CheckpointReport report;
  std::map<std::string, ManagedStream> restored;
  auto drop = [&report](std::string name, Status reason) {
    report.dropped.push_back({std::move(name), std::move(reason)});
  };
  bool structural_loss = false;
  for (uint64_t i = 0; i < declared; ++i) {
    std::string label = "section " + std::to_string(i);
    if (reader.AtEnd()) {
      drop(std::move(label),
           Status::InvalidArgument("checkpoint truncated before this section"));
      continue;
    }
    const size_t before = reader.position();
    Result<FrameView> section = ReadFrame(reader, kSectionMagic, "section");
    if (!section.ok()) {
      drop(std::move(label), section.status());
      // A whole frame was consumed (CRC mismatch): the next section starts
      // right here, so keep going. Anything shorter is structural damage —
      // the next frame boundary is unknowable, so the tail is lost.
      if (reader.position() - before >= kMinFrameSize) continue;
      structural_loss = true;
      for (uint64_t j = i + 1; j < declared; ++j) {
        drop("section " + std::to_string(j),
             Status::InvalidArgument("unreachable after structural damage"));
      }
      break;
    }
    if (section->version != kSectionVersion) {
      drop(std::move(label),
           Status::InvalidArgument("unsupported section version"));
      continue;
    }
    ByteReader section_reader(section->payload);
    std::string_view name_bytes, snapshot_bytes;
    if (!section_reader.ReadLengthPrefixed(&name_bytes) ||
        !section_reader.ReadLengthPrefixed(&snapshot_bytes) ||
        !section_reader.AtEnd()) {
      drop(std::move(label),
           Status::InvalidArgument("malformed stream section payload"));
      continue;
    }
    std::string name(name_bytes);
    if (name.empty()) {
      drop(std::move(label), Status::InvalidArgument("empty stream name"));
      continue;
    }
    Result<ManagedStream> stream = ManagedStream::Restore(snapshot_bytes);
    if (!stream.ok()) {
      drop(std::move(name), stream.status());
      continue;
    }
    // The restored stream charged its footprint; its rebuild must fit too.
    Status admitted = ProbeRebuildScratch(name, stream->config());
    if (!admitted.ok()) {
      drop(std::move(name), std::move(admitted));
      continue;
    }
    if (!restored.emplace(name, std::move(*stream)).second) {
      drop(std::move(name),
           Status::InvalidArgument("duplicate stream name in checkpoint"));
      continue;
    }
    report.loaded.push_back(std::move(name));
  }
  if (!structural_loss && !reader.AtEnd()) {
    drop("(container)",
         Status::InvalidArgument("trailing bytes after final section"));
  }
  registry_.ReplaceAll(std::move(restored));
  // Restored streams re-resolved their staleness bounds through Create();
  // re-arm the flusher for any that came back with a coalescing bound.
  for (const StreamHandle& handle : registry_.Handles()) {
    EnsureFlusher(handle.stream().publish_staleness_ms());
  }
  return report;
}

std::string QueryEngine::WalRecoveryReport::ToString() const {
  std::ostringstream os;
  os << open.ToString() << "; checkpoint: " << checkpoint_summary
     << "; replayed " << records_applied << " record(s), skipped "
     << records_skipped << ", dropped " << records_dropped;
  if (!recovered_from_log.empty()) {
    os << "; recovered from the log:";
    for (const std::string& name : recovered_from_log) os << " " << name;
  }
  if (sections_lost > 0) {
    os << "; lost " << sections_lost
       << " dropped section(s) whose CREATE the log no longer holds";
  }
  return os.str();
}

Status QueryEngine::ApplyWalRecord(
    int64_t lsn, std::string_view payload, WalApplyCounters* counters,
    std::map<std::string, StreamHandle>* appended) {
  Result<walrec::Record> record = walrec::Decode(payload);
  if (!record.ok()) {
    ++counters->dropped;
    return Status::OK();
  }
  switch (record->type) {
    case walrec::RecordType::kCreate: {
      // A stream that already exists — from the checkpoint or an earlier
      // replayed CREATE — means this record is a dup-create loser or
      // already reflected; either way it is settled.
      if (registry_.Get(record->name).ok()) {
        ++counters->skipped;
        break;
      }
      // The unlogged form: this record IS the log entry — going through
      // CreateStream would append a second one at a fresh LSN on a replica.
      // It also re-runs governor admission, so a budget shrunk since the
      // record was written refuses the stream here, reported as dropped.
      const Status created =
          CreateStreamUnlogged(record->name, record->config, lsn);
      if (!created.ok()) {
        ++counters->dropped;
        break;
      }
      ++counters->applied;
      break;
    }
    case walrec::RecordType::kAppend: {
      Result<StreamHandle> handle = registry_.Get(record->name);
      if (!handle.ok()) {
        // The stream is dropped later in the log (or its CREATE was
        // itself dropped); this append has no surviving target.
        ++counters->skipped;
        break;
      }
      const auto lock = handle->LockWriter();
      if (handle->stream().wal_lsn() >= lsn) {
        ++counters->skipped;
        break;
      }
      handle->stream().AppendBatch(record->values);
      handle->stream().set_wal_lsn(lsn);
      appended->insert_or_assign(record->name, *handle);
      ++counters->applied;
      break;
    }
    case walrec::RecordType::kDrop: {
      Result<StreamHandle> handle = registry_.Get(record->name);
      if (!handle.ok()) {
        ++counters->skipped;
        break;
      }
      bool superseded = false;
      {
        const auto lock = handle->LockWriter();
        // A tail at or above this LSN means the checkpoint reflects a
        // later re-create of the same name; the drop already happened.
        superseded = handle->stream().wal_lsn() >= lsn;
      }
      if (superseded) {
        ++counters->skipped;
        break;
      }
      (void)registry_.Erase(record->name);
      ++counters->applied;
      break;
    }
  }
  return Status::OK();
}

Result<QueryEngine::WalRecoveryReport> QueryEngine::OpenWal(
    const std::string& dir, const WalConfig& config) {
  if (wal_ != nullptr) {
    return Status::FailedPrecondition("a write-ahead log is already open");
  }
  auto state = std::make_unique<WalState>();
  state->dir = dir;
  state->checkpoint_interval_ms = config.checkpoint_interval_ms;
  WalRecoveryReport recovery;
  STREAMHIST_ASSIGN_OR_RETURN(
      state->log, wal::Wal::Open(dir, config.options, &recovery.open));

  // Seed the registry from the newest checkpoint, when one exists. An
  // unusable checkpoint is NOT fatal — recovery degrades to a cold replay
  // of whatever the log retains. AtomicWriteFile keeps half-written images
  // off disk, so "unusable" means post-write rot. A stream whose records
  // the log still holds from its CREATE on survives that rot; one whose
  // CREATE a checkpoint truncation already deleted does not.
  const std::string checkpoint_path = state->CheckpointPath();
  int64_t checkpoint_floor = 0;
  std::set<std::string> restored;  // streams the checkpoint loaded
  int64_t dropped_sections = 0;
  STREAMHIST_ASSIGN_OR_RETURN(const std::vector<std::string> names,
                              fs::Default().List(dir));
  if (std::find(names.begin(), names.end(), WalState::kCheckpointName) !=
      names.end()) {
    int64_t header_lsn = 0;
    Result<CheckpointReport> loaded =
        LoadCheckpointFrom(checkpoint_path, &header_lsn);
    if (loaded.ok()) {
      recovery.checkpoint_loaded = true;
      recovery.checkpoint_summary = loaded->ToString();
      checkpoint_floor = header_lsn;
      restored.insert(loaded->loaded.begin(), loaded->loaded.end());
      for (const CheckpointReport::DroppedStream& dropped : loaded->dropped) {
        if (dropped.name != "(container)") ++dropped_sections;
      }
    } else {
      recovery.checkpoint_summary =
          "unusable (" + loaded.status().ToString() + ")";
    }
  } else {
    recovery.checkpoint_summary = "none";
  }

  // Replay the retained records above the checkpoint's LSN floor. The floor
  // is load-bearing for creates and drops: a CREATE at or below it may name
  // a stream the checkpoint legitimately does not contain (dropped, or
  // superseded by LOAD's re-anchor), and the per-stream tails cannot veto a
  // record for a stream that does not exist. Segment granularity means
  // truncation alone never guarantees the active segment is floor-free.
  // Above the floor, per-stream LSN tails (in each SHMS snapshot) filter
  // out what the checkpoint already reflects — idempotence via the filter,
  // not via the records themselves. Failures count as dropped, never abort
  // recovery: a half-usable log still beats an empty engine.
  //
  // A dropped section's stream is not in the registry, so it has no LSN
  // tail: replay starts at the oldest retained record instead, and that
  // stream is rebuilt from its CREATE on. Below the floor a restored stream
  // takes no record: its section's tail is at least the floor (Snapshot
  // writes the floor when the stream's own tail is lower, as after LOAD).
  // A stream the checkpoint legitimately lacks has its DROP retained after
  // its CREATE (truncation deletes whole segments, oldest first); LOAD and
  // bootstrap seal the active segment before they truncate, so once that
  // truncation is durable no record of the registry they replaced is left
  // behind (DESIGN.md §8.3 names the window before it). The streams
  // registered when replay crosses the floor that the checkpoint did not
  // restore are the dropped sections the log held; the rest are lost. The
  // next WAL CHECKPOINT writes them into a fresh image before it truncates
  // anything.
  std::map<std::string, StreamHandle> appended;
  WalApplyCounters counters;
  bool past_floor = dropped_sections == 0;
  const auto cross_floor = [&] {
    past_floor = true;
    for (const std::string& name : registry_.List()) {
      if (restored.count(name) == 0) {
        recovery.recovered_from_log.push_back(name);
      }
    }
  };
  const wal::Wal::RecordFn apply = [&](int64_t lsn,
                                       std::string_view payload) -> Status {
    if (!past_floor && lsn > checkpoint_floor) cross_floor();
    return ApplyWalRecord(lsn, payload, &counters, &appended);
  };
  STREAMHIST_RETURN_NOT_OK(state->log->Replay(
      dropped_sections > 0 ? 0 : checkpoint_floor + 1, apply, nullptr));
  if (!past_floor) cross_floor();
  recovery.sections_lost = std::max<int64_t>(
      0, dropped_sections -
             static_cast<int64_t>(recovery.recovered_from_log.size()));
  // A log retaining nothing at or above the checkpoint floor (segments
  // wiped while the checkpoint survived — disk swap, operator cleanup)
  // must not hand out LSNs the checkpoint already covers: the per-stream
  // tails would veto those records on the NEXT recovery and acked writes
  // would silently vanish. Re-anchor the log just past the floor.
  if (state->log->next_lsn() <= checkpoint_floor) {
    STREAMHIST_RETURN_NOT_OK(state->log->AlignNextLsn(checkpoint_floor + 1));
  }
  recovery.records_applied = counters.applied;
  recovery.records_skipped = counters.skipped;
  recovery.records_dropped = counters.dropped;
  for (auto& [name, handle] : appended) {
    const auto lock = handle.LockWriter();
    handle.stream().PublishSnapshot();
  }

  state->recovery = recovery;
  wal_ = std::move(state);
  if (wal_->checkpoint_interval_ms > 0) {
    // The thread captures the WalState pointer directly (the engine is not
    // movable) so shutdown via ~WalState is safe.
    wal_->checkpointer = std::thread([this, st = wal_.get()] {
      std::unique_lock<std::mutex> lk(st->mu);
      while (!st->stop) {
        st->cv.wait_for(lk,
                        std::chrono::milliseconds(st->checkpoint_interval_ms),
                        [&] { return st->stop; });
        if (st->stop) break;
        lk.unlock();
        // A failed checkpoint (e.g. disk full) is retried on the next tick;
        // the log keeps growing but loses nothing.
        (void)WalCheckpointNow(nullptr);
        lk.lock();
      }
    });
  }
  return recovery;
}

Status QueryEngine::CloseWal(wal::StatsSnapshot* final_stats) {
  if (wal_ == nullptr) return Status::OK();
  if (wal_->checkpointer.joinable()) {
    {
      const std::lock_guard<std::mutex> lk(wal_->mu);
      wal_->stop = true;
    }
    wal_->cv.notify_all();
    wal_->checkpointer.join();
  }
  const Status flushed = wal_->log->Flush();
  if (final_stats != nullptr) *final_stats = wal_->log->stats();
  wal_.reset();
  return flushed;
}

int64_t QueryEngine::WalDurableLsn() const {
  return wal_ == nullptr ? 0 : wal_->log->durable_lsn();
}

wal::StatsSnapshot QueryEngine::WalStats() const {
  return wal_ == nullptr ? wal::StatsSnapshot{} : wal_->log->stats();
}

QueryEngine::WalRecoveryReport QueryEngine::LastWalRecovery() const {
  return wal_ == nullptr ? WalRecoveryReport{} : wal_->recovery;
}

Status QueryEngine::WalCheckpointNow(std::string* summary) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no write-ahead log is open");
  }
  const std::lock_guard<std::mutex> serialize(wal_->checkpoint_mu);
  SaveReport save_report;
  int64_t floor = 0;
  STREAMHIST_RETURN_NOT_OK(
      SaveCheckpointInternal(wal_->CheckpointPath(), &save_report, &floor));
  STREAMHIST_RETURN_NOT_OK(wal_->log->TruncateBefore(floor + 1));
  wal_->checkpoints.fetch_add(1, std::memory_order_relaxed);
  if (summary != nullptr) {
    std::ostringstream os;
    os << "checkpointed " << registry_.size() << " stream(s) to "
       << wal_->CheckpointPath() << "; wal truncated below lsn "
       << (floor + 1);
    *summary = os.str();
  }
  return Status::OK();
}

Status QueryEngine::WalReadTail(wal::TailCursor* cursor, int64_t max_bytes,
                                wal::TailBatch* out) const {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("no write-ahead log is open");
  }
  return wal_->log->ReadTail(cursor, max_bytes, out);
}

bool QueryEngine::WalWaitDurable(int64_t lsn, int64_t timeout_ms) const {
  if (wal_ == nullptr) return false;
  return wal_->log->WaitDurable(lsn, timeout_ms);
}

void QueryEngine::SetReadOnly(bool read_only) {
  repl_->read_only.store(read_only, std::memory_order_relaxed);
}

bool QueryEngine::read_only() const {
  return repl_->read_only.load(std::memory_order_relaxed);
}

void QueryEngine::SetReplicationBarrier(ReplicationBarrier barrier) {
  const std::lock_guard<std::mutex> lock(repl_->mu);
  repl_->barrier = std::move(barrier);
  repl_->has_barrier.store(static_cast<bool>(repl_->barrier),
                           std::memory_order_relaxed);
}

Status QueryEngine::RunReplicationBarrier(int64_t lsn) {
  if (!repl_->has_barrier.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  ReplicationBarrier barrier;
  {
    const std::lock_guard<std::mutex> lock(repl_->mu);
    barrier = repl_->barrier;
  }
  if (!barrier) return Status::OK();
  // Called with no engine locks that the shipping side needs: CREATE/DROP
  // hold registry_mu shared (the feeder never takes it) and APPEND holds one
  // stream's writer lock, so a semi-sync wait here cannot deadlock shipping.
  return barrier(lsn);
}

void QueryEngine::SetReplicaMaxLagMs(int64_t ms) {
  repl_->max_lag_ms.store(ms, std::memory_order_relaxed);
}

void QueryEngine::SetPromoteHandler(
    std::function<Result<std::string>()> handler) {
  const std::lock_guard<std::mutex> lock(repl_->mu);
  repl_->promote = std::move(handler);
}

void QueryEngine::UpdateReplicaStatus(const ReplicaStatus& status) {
  const std::lock_guard<std::mutex> lock(repl_->mu);
  repl_->status = status;
}

QueryEngine::ReplicaStatus QueryEngine::replica_status() const {
  const std::lock_guard<std::mutex> lock(repl_->mu);
  return repl_->status;
}

Status QueryEngine::CheckReplicaLag() const {
  if (!repl_->read_only.load(std::memory_order_relaxed)) return Status::OK();
  const int64_t bound = repl_->max_lag_ms.load(std::memory_order_relaxed);
  if (bound <= 0) return Status::OK();
  int64_t last_contact_ms = 0;
  {
    const std::lock_guard<std::mutex> lock(repl_->mu);
    last_contact_ms = repl_->status.last_contact_ms;
  }
  // Before the first primary frame there is no lag measurement; recovered
  // local state is served as-is rather than shedding on an unknown.
  if (last_contact_ms == 0) return Status::OK();
  const int64_t lag_ms = SteadyNowMs() - last_contact_ms;
  if (lag_ms <= bound) return Status::OK();
  return Status::Overloaded(
      "replica lag " + std::to_string(lag_ms) + "ms exceeds the " +
      std::to_string(bound) + "ms bound; query the primary or retry later");
}

Status QueryEngine::ApplyReplicatedBatch(
    std::span<const std::pair<int64_t, std::string>> records,
    ReplicatedBatchReport* report) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "replica apply requires an open write-ahead log (--wal-dir)");
  }
  // Durability first: land every record in the local log at its primary LSN
  // and fsync once, THEN apply. A crash after the fsync replays this batch
  // from the local log on restart; a crash before it resumes shipping from
  // the durable LSN. Records below next_lsn are re-deliveries from a
  // reconnect overlap — already in the local log, so only re-applied (the
  // per-stream LSN veto settles those).
  for (const auto& [lsn, payload] : records) {
    if (lsn >= wal_->log->next_lsn()) {
      STREAMHIST_RETURN_NOT_OK(wal_->log->AppendAt(lsn, payload));
    }
  }
  STREAMHIST_RETURN_NOT_OK(wal_->log->Flush());
  WalApplyCounters counters;
  std::map<std::string, StreamHandle> appended;
  for (const auto& [lsn, payload] : records) {
    STREAMHIST_RETURN_NOT_OK(
        ApplyWalRecord(lsn, payload, &counters, &appended));
  }
  for (auto& [name, handle] : appended) {
    const auto lock = handle.LockWriter();
    handle.stream().PublishSnapshot();
  }
  if (report != nullptr) {
    report->applied = counters.applied;
    report->skipped = counters.skipped;
    report->dropped = counters.dropped;
  }
  return Status::OK();
}

Status QueryEngine::BootstrapFromImage(std::string_view image,
                                       int64_t wal_floor) {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "bootstrap requires an open write-ahead log (--wal-dir)");
  }
  // Persist the image as our own checkpoint BEFORE touching the registry: a
  // crash anywhere past this write recovers from the image (whose header
  // floor keeps stale retained records vetoed), so a half-applied bootstrap
  // is unreachable.
  STREAMHIST_RETURN_NOT_OK(AtomicWriteFile(wal_->CheckpointPath(), image));
  int64_t header_lsn = 0;
  {
    // Unlike LOAD, the per-stream LSN tails are KEPT: primary and replica
    // share one LSN space, and the tails are exactly what vetoes records
    // the image already reflects when shipping resumes.
    const std::unique_lock<std::shared_mutex> barrier(wal_->registry_mu);
    Result<CheckpointReport> loaded =
        LoadCheckpointFromBytes(image, &header_lsn);
    if (!loaded.ok()) return loaded.status();
  }
  const int64_t floor = std::max(wal_floor, header_lsn);
  // Local segments predate the image; fast-forward the log to floor + 1 and
  // drop them so replication resumes contiguously at primary LSNs.
  STREAMHIST_RETURN_NOT_OK(wal_->log->AlignNextLsn(floor + 1));
  return wal_->log->TruncateBefore(floor + 1);
}

Result<std::string> QueryEngine::ExecuteStatement(std::string_view statement,
                                                  ExecContext* ctx) {
  // Session cancellation / deadline is a statement-boundary check: a verb
  // that already started runs to completion (BUILD aside, which inherits
  // the session deadline into its degradation ladder).
  if (ctx != nullptr && ctx->ShouldStop()) {
    return Status::Cancelled("session cancelled");
  }
  const StatementTokens tokens(statement);
  if (tokens.empty()) return Status::InvalidArgument("empty statement");
  QueryVerb verb = QueryVerb::kNumVerbs;
  const bool known = ParseQueryVerb(tokens[0], &verb);
  const auto start = std::chrono::steady_clock::now();
  StreamHandle touched;
  Result<std::string> result = ExecuteParsed(tokens, verb, ctx, &touched);
  if (known) {
    const int64_t nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    (touched ? touched.stats() : engine_stats_)
        .Record(verb, result.ok(), nanos);
  }
  return result;
}

Result<std::string> QueryEngine::ExecuteBatchAppend(
    const std::string& name, std::span<const double> values,
    ExecContext* ctx) {
  if (ctx != nullptr && ctx->ShouldStop()) {
    return Status::Cancelled("session cancelled");
  }
  const auto start = std::chrono::steady_clock::now();
  Result<StreamHandle> handle = Stream(name);
  auto record = [&](bool ok) {
    const int64_t nanos =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    (handle.ok() ? handle->stats() : engine_stats_)
        .Record(QueryVerb::kAppend, ok, nanos);
  };
  if (!handle.ok()) {
    record(false);
    return handle.status();
  }
  // Durable ingest: AppendLocked logs the record (and, under policy
  // "always", fsyncs) before anything is applied or acked. On failure the
  // batch is NOT applied — the typed error becomes the wire ERR, and the
  // client must not treat the values as accepted.
  const Result<int64_t> quarantined = AppendLocked(*handle, values);
  if (!quarantined.ok()) {
    record(false);
    return quarantined.status();
  }
  record(true);
  return AppendAck(values.size(), *quarantined);
}

Result<std::string> QueryEngine::ExecuteParsed(const StatementTokens& tokens,
                                               QueryVerb verb,
                                               ExecContext* ctx,
                                               StreamHandle* touched) {
  // Engine-scoped verbs that take no stream.
  switch (verb) {
    case QueryVerb::kList: {
      const std::vector<std::string> names = ListStreams();
      std::string out;
      for (size_t i = 0; i < names.size(); ++i) {
        if (i > 0) out += ' ';
        out += names[i];
      }
      return out;
    }
    case QueryVerb::kMemory: {
      if (tokens.size() != 1) {
        return Status::InvalidArgument("MEMORY takes no arguments");
      }
      std::ostringstream os;
      os << "budget=" << governor::FormatBytes(governor::Budget())
         << "; used=" << governor::Used() << "; peak=" << governor::Peak();
      for (const StreamHandle& handle : registry_.Handles()) {
        const auto lock = handle.LockWriter();
        os << "; " << handle.name() << "=" << handle.stream().MemoryBytes();
      }
      return os.str();
    }
    case QueryVerb::kStats: {
      if (tokens.size() != 1) break;
      std::ostringstream os;
      os << "engine:";
      const std::string engine_lines = engine_stats_.Render();
      if (!engine_lines.empty()) os << '\n' << engine_lines;
      if (wal_ != nullptr) {
        os << "\nwal: durable lsn=" << wal_->log->durable_lsn()
           << "; last recovery: " << wal_->recovery.ToString();
      }
      const ReplicaStatus rs = replica_status();
      if (rs.is_replica) {
        const bool ro = repl_->read_only.load(std::memory_order_relaxed);
        os << "\nreplication: role=" << (ro ? "replica" : "promoted")
           << "; connected=" << (rs.connected ? "yes" : "no")
           << "; primary durable lsn=" << rs.primary_durable_lsn
           << "; applied lsn=" << rs.applied_lsn << "; lag records="
           << std::max<int64_t>(0, rs.primary_durable_lsn - rs.applied_lsn)
           << "; lag ms="
           << (rs.last_contact_ms == 0 ? 0 : SteadyNowMs() - rs.last_contact_ms)
           << "; reconnects=" << rs.reconnects << "; batches=" << rs.batches
           << "; records=" << rs.records << "; bootstraps=" << rs.bootstraps;
      }
      for (const StreamHandle& handle : registry_.Handles()) {
        os << "\nstream " << handle.name() << ':';
        const std::string lines = handle.stats().Render();
        if (!lines.empty()) os << '\n' << lines;
        const std::string publish = handle.stream().publish_stats().Render();
        if (!publish.empty()) os << '\n' << publish;
      }
      return os.str();
    }
    case QueryVerb::kWal: {
      if (wal_ == nullptr) {
        return Status::FailedPrecondition(
            "no write-ahead log is open (start with --wal-dir)");
      }
      if (tokens.size() == 2 && KeywordEquals(tokens[1], "CHECKPOINT")) {
        std::string summary;
        STREAMHIST_RETURN_NOT_OK(WalCheckpointNow(&summary));
        return summary;
      }
      if (tokens.size() != 1) {
        return Status::InvalidArgument("WAL [CHECKPOINT]");
      }
      const wal::StatsSnapshot s = wal_->log->stats();
      std::ostringstream os;
      os << "policy=" << wal::PolicySpecString(wal_->log->options())
         << "; durable lsn=" << s.durable_lsn << "; next lsn=" << s.next_lsn
         << "; records=" << s.records << "; bytes=" << s.bytes
         << "; fsyncs=" << s.fsyncs << "; sync waits=" << s.sync_waits
         << "; segments created=" << s.segments_created << " deleted="
         << s.segments_deleted << "; checkpoints="
         << wal_->checkpoints.load(std::memory_order_relaxed)
         << "\nlast recovery: " << wal_->recovery.ToString();
      return os.str();
    }
    case QueryVerb::kFlush: {
      // Publish any coalesced appends now (DESIGN.md §13).
      if (tokens.size() > 2) {
        return Status::InvalidArgument("FLUSH [<stream>]");
      }
      int64_t flushed = 0;
      if (tokens.size() == 2) {
        STREAMHIST_ASSIGN_OR_RETURN(StreamHandle handle,
                                    Stream(std::string(tokens[1])));
        const auto lock = handle.LockWriter();
        if (handle.stream().FlushIfDirty()) ++flushed;
      } else {
        for (const StreamHandle& handle : registry_.Handles()) {
          const auto lock = handle.LockWriter();
          if (handle.stream().FlushIfDirty()) ++flushed;
        }
      }
      return "flushed " + std::to_string(flushed) + " stream(s)";
    }
    case QueryVerb::kPromote: {
      // Failover: flip this replica into a writable primary at a clean
      // batch boundary (DESIGN.md §14).
      if (tokens.size() != 1) {
        return Status::InvalidArgument("PROMOTE takes no arguments");
      }
      std::function<Result<std::string>()> promote;
      {
        const std::lock_guard<std::mutex> lock(repl_->mu);
        promote = repl_->promote;
      }
      if (!promote) {
        return Status::FailedPrecondition(
            "PROMOTE requires a replica (start with --replica-of)");
      }
      return promote();
    }
    default:
      break;
  }

  if (tokens.size() < 2) {
    return Status::InvalidArgument(UpperCopy(tokens[0]) +
                                   " requires an argument");
  }

  // Engine-scoped verbs that take an argument.
  switch (verb) {
    case QueryVerb::kCreate: {
      if (tokens.size() > 4) {
        return Status::InvalidArgument(
            "CREATE <stream> [<window> [<buckets>]]");
      }
      StreamConfig config;
      if (tokens.size() >= 3) {
        STREAMHIST_ASSIGN_OR_RETURN(config.window_size, ParseInt(tokens[2]));
      }
      if (tokens.size() == 4) {
        STREAMHIST_ASSIGN_OR_RETURN(config.num_buckets, ParseInt(tokens[3]));
      }
      const std::string name(tokens[1]);
      const Status status = CreateStream(name, config);
      if (!status.ok()) return status;
      return "created stream '" + name + "'";
    }
    case QueryVerb::kDrop: {
      if (tokens.size() != 2) return Status::InvalidArgument("DROP <stream>");
      const std::string name(tokens[1]);
      const Status status = DropStream(name);
      if (!status.ok()) return status;
      return "dropped stream '" + name + "'";
    }
    case QueryVerb::kSave: {
      if (tokens.size() != 2) return Status::InvalidArgument("SAVE <path>");
      const std::string path(tokens[1]);
      SaveReport save_report;
      const Status status = SaveCheckpoint(path, &save_report);
      if (!status.ok()) return status;
      std::ostringstream os;
      os << "checkpointed " << registry_.size() << " stream(s) to " << path;
      if (save_report.attempts > 1) {
        os << " (after " << save_report.attempts << " attempts)";
      }
      if (wal_ != nullptr) {
        os << "; wal durable lsn=" << wal_->log->durable_lsn();
      }
      return os.str();
    }
    case QueryVerb::kLoad: {
      if (tokens.size() != 2) return Status::InvalidArgument("LOAD <path>");
      if (repl_->read_only.load(std::memory_order_relaxed)) {
        // LOAD rewrites the registry and re-anchors the log — on a replica
        // that would fork its LSN space away from the primary's.
        return Status::ReadOnly(
            "this node is a read replica; LOAD must go to the primary");
      }
      STREAMHIST_ASSIGN_OR_RETURN(CheckpointReport report,
                                  LoadCheckpoint(std::string(tokens[1])));
      return report.ToString();
    }
    default:
      break;
  }

  STREAMHIST_ASSIGN_OR_RETURN(StreamHandle handle,
                              Stream(std::string(tokens[1])));
  *touched = handle;

  // Mutating verbs: the per-stream writer mutex serializes them against
  // each other and against SAVE; the republish at the end is what makes the
  // mutation visible to (lock-free) readers.
  switch (verb) {
    case QueryVerb::kAppend: {
      if (tokens.size() < 3) {
        return Status::InvalidArgument("APPEND <stream> <v1> [v2 ...]");
      }
      std::vector<double> values;
      values.reserve(tokens.size() - 2);
      for (size_t i = 2; i < tokens.size(); ++i) {
        STREAMHIST_ASSIGN_OR_RETURN(double v, ParseDouble(tokens[i]));
        values.push_back(v);
      }
      // One engine-side append path for every ingest surface: the text verb
      // lands on the same log-then-commit core as the binary batch frame.
      STREAMHIST_ASSIGN_OR_RETURN(const int64_t quarantined,
                                  AppendLocked(handle, values));
      return AppendAck(values.size(), quarantined);
    }
    case QueryVerb::kBuild: {
      // Offline V-optimal construction over the current window contents.
      // An optional mode argument is sticky: it updates the stream's
      // configured build mode (DESCRIBE shows it; checkpoints carry it). An
      // optional trailing WITHIN <ms> clause (not sticky) sets the wall-clock
      // budget for this one build; with none, the session deadline (when the
      // caller passed an ExecContext with one) or STREAMHIST_BUILD_DEADLINE_MS
      // supplies the default.
      size_t end = tokens.size();
      bool explicit_within = false;
      int64_t within_ms = DefaultBuildDeadlineMillis();
      if (end >= 4 && KeywordEquals(tokens[end - 2], "WITHIN")) {
        STREAMHIST_ASSIGN_OR_RETURN(within_ms, ParseInt(tokens[end - 1]));
        if (within_ms <= 0) {
          return Status::InvalidArgument(
              "WITHIN requires a positive millisecond budget");
        }
        explicit_within = true;
        end -= 2;
      }
      Deadline deadline = within_ms > 0 ? Deadline::AfterMillis(within_ms)
                                        : Deadline::Infinite();
      if (!explicit_within && ctx != nullptr && !ctx->deadline().infinite()) {
        deadline = ctx->deadline();
      }
      const auto lock = handle.LockWriter();
      ManagedStream& stream = handle.stream();
      if (end == 3 && KeywordEquals(tokens[2], "EXACT")) {
        const Status status = stream.SetBuildMode(WindowBuildMode::kExact, 0.0);
        if (!status.ok()) return status;
      } else if (end == 4 && KeywordEquals(tokens[2], "ERROR")) {
        STREAMHIST_ASSIGN_OR_RETURN(double delta, ParseDouble(tokens[3]));
        const Status status =
            stream.SetBuildMode(WindowBuildMode::kApprox, delta);
        if (!status.ok()) return status;
      } else if (end != 2) {
        return Status::InvalidArgument(
            "BUILD <stream> [EXACT | ERROR <delta>] [WITHIN <ms>]");
      }
      const WindowBuildReport report = stream.BuildWindowHistogram(deadline);
      stream.PublishSnapshot();
      std::ostringstream os;
      if (report.rung == BuildRung::kApprox) {
        os << "built approx(delta=" << FormatAnswer(report.delta) << ")";
      } else if (report.rung == BuildRung::kSnapshot) {
        os << "built snapshot(eps=" << FormatAnswer(report.delta) << ")";
      } else {
        os << "built exact";
      }
      os << ": n=" << report.points
         << ", buckets=" << report.histogram.num_buckets()
         << ", sse=" << FormatAnswer(report.sse);
      if (report.rung != BuildRung::kExact) {
        os << ", certified sse <= " << FormatAnswer(report.bound_factor)
           << " * OPT";
      }
      if (report.degradation.degraded) {
        os << "; degraded: " << report.degradation.ToString();
      }
      return os.str();
    }
    case QueryVerb::kStats: {
      // STATS <stream> [<verb>] — counters, or one verb's latency histogram.
      if (tokens.size() == 2) {
        std::string lines = handle.stats().Render();
        const std::string publish = handle.stream().publish_stats().Render();
        if (!publish.empty()) {
          if (!lines.empty()) lines += '\n';
          lines += publish;
        }
        if (lines.empty()) {
          return "no statistics recorded for '" + std::string(tokens[1]) + "'";
        }
        return lines;
      }
      if (tokens.size() == 3) {
        QueryVerb which = QueryVerb::kNumVerbs;
        if (!ParseQueryVerb(tokens[2], &which)) {
          return Status::InvalidArgument("unknown verb '" +
                                         std::string(tokens[2]) + "'");
        }
        const Histogram latency = handle.stats().LatencyHistogram(which);
        if (latency.num_buckets() == 0) {
          return "no statistics recorded for '" + std::string(tokens[1]) +
                 "' " + QueryVerbName(which);
        }
        // Rendered through core/histogram: domain index i is log2 latency
        // bucket i (bucket i >= 1 spans [256 << i, 256 << (i+1)) ns).
        return latency.ToString();
      }
      return Status::InvalidArgument("STATS [<stream> [<verb>]]");
    }
    default:
      break;
  }

  // Replica rung of the degradation ladder: when this node is a badly
  // lagged replica, a typed shed the client can retry elsewhere beats an
  // arbitrarily stale answer.
  STREAMHIST_RETURN_NOT_OK(CheckReplicaLag());

  // Estimation verbs: answer from the latest published snapshot, lock-free.
  // A concurrent APPEND/BUILD/DROP cannot tear or invalidate `snap`.
  const std::shared_ptr<const QuerySnapshot> snap = handle.snapshot();
  const int64_t window_size = snap->window_size;

  switch (verb) {
    case QueryVerb::kSum:
    case QueryVerb::kAvg: {
      STREAMHIST_ASSIGN_OR_RETURN(auto range,
                                  ParseRange(tokens, 2, window_size));
      const auto [lo, hi] = range;
      if (verb == QueryVerb::kAvg && lo == hi) {
        return Status::InvalidArgument("AVG over an empty range");
      }
      const double sum = snap->histogram().RangeSum(lo, hi);
      return FormatAnswer(verb == QueryVerb::kSum
                              ? sum
                              : sum / static_cast<double>(hi - lo));
    }
    case QueryVerb::kSumBound:
    case QueryVerb::kAvgBound: {
      STREAMHIST_ASSIGN_OR_RETURN(auto range,
                                  ParseRange(tokens, 2, window_size));
      const auto [lo, hi] = range;
      if (lo == hi) {
        return Status::InvalidArgument(std::string(QueryVerbName(verb)) +
                                       " over an empty range");
      }
      const BoundedValue r =
          verb == QueryVerb::kSumBound
              ? RangeSumWithBound(snap->histogram(), snap->bucket_errors(), lo,
                                  hi)
              : RangeAverageWithBound(snap->histogram(),
                                      snap->bucket_errors(), lo, hi);
      return FormatAnswer(r.estimate) + " +- " + FormatAnswer(r.error_bound);
    }
    case QueryVerb::kPoint: {
      if (tokens.size() != 3) {
        return Status::InvalidArgument("POINT <stream> <i>");
      }
      STREAMHIST_ASSIGN_OR_RETURN(int64_t i, ParseInt(tokens[2]));
      if (i < 0 || i >= window_size) {
        return Status::OutOfRange("point index outside the window");
      }
      return FormatAnswer(snap->histogram().Estimate(i));
    }
    case QueryVerb::kQuantile: {
      if (tokens.size() != 3) {
        return Status::InvalidArgument("QUANTILE <stream> <phi>");
      }
      if (snap->quantiles == nullptr) {
        return Status::FailedPrecondition(
            "quantiles disabled for this stream");
      }
      if (snap->quantiles->size() == 0) {
        return Status::FailedPrecondition("stream is empty");
      }
      STREAMHIST_ASSIGN_OR_RETURN(double phi, ParseDouble(tokens[2]));
      if (phi < 0.0 || phi > 1.0) {
        return Status::OutOfRange("phi must be in [0, 1]");
      }
      return FormatAnswer(snap->quantiles->Quantile(phi));
    }
    case QueryVerb::kDistinct:
      if (!snap->has_distinct) {
        return Status::FailedPrecondition(
            "distinct counting disabled for this stream");
      }
      return FormatAnswer(snap->distinct_estimate);
    case QueryVerb::kCount:
      return FormatAnswer(static_cast<double>(snap->total_points));
    case QueryVerb::kError:
      return FormatAnswer(snap->approx_error());
    case QueryVerb::kDescribe:
      return snap->describe();
    case QueryVerb::kShow:
      return snap->histogram().ToString();
    default:
      return Status::InvalidArgument("unknown verb '" + UpperCopy(tokens[0]) +
                                     "'");
  }
}

}  // namespace streamhist
