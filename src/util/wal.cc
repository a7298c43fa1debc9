#include "src/util/wal.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <utility>

#include "src/util/fault.h"
#include "src/util/file_system.h"
#include "src/util/fileio.h"
#include "src/util/framing.h"
#include "src/util/governor.h"

namespace streamhist {
namespace wal {
namespace {

// Segment header frame: payload is the first LSN this segment can hold.
constexpr uint32_t kSegmentMagic = 0x5348574C;  // "SHWL"
constexpr uint32_t kSegmentVersion = 1;
// Record frame: payload is `lsn u64 | caller bytes`.
constexpr uint32_t kRecordMagic = 0x53485752;  // "SHWR"
constexpr uint32_t kRecordVersion = 1;
// framing.h layout: magic u32 | version u32 | payload_len u64 | payload |
// crc32c u32 — a 16-byte head and a 4-byte trailer around the payload.
constexpr size_t kFrameHeadBytes = 16;
constexpr size_t kFrameOverhead = kFrameHeadBytes + 4;
// Fixed governor charge on top of the active segment: scan buffer slack
// and bookkeeping.
constexpr int64_t kGovernorSlackBytes = 64 * 1024;
// Records are written into space already zero-filled this far ahead of the
// write offset, so a record's fsync commits data only; the file-size change
// of each fill is committed once, by the next record's fsync (DESIGN.md
// §12.2). A constant, not an option.
constexpr int64_t kZeroFillBytes = 256 * 1024;

// The zero bytes every fill writes from.
std::string_view Zeros() {
  static const std::string zeros(static_cast<size_t>(kZeroFillBytes), '\0');
  return zeros;
}

// One past the last non-zero byte of `data` (0 when it is all zeros): what
// lies beyond is the zero fill, a segment's clean end.
size_t WrittenEnd(std::string_view data) {
  const size_t last = data.find_last_not_of('\0');
  return last == std::string_view::npos ? 0 : last + 1;
}

bool AllZero(std::string_view bytes) {
  return bytes.find_first_not_of('\0') == std::string_view::npos;
}

// Whether the CRC-bad frame at data[pos, pos + bytes) shows bytes a crash
// never landed, which read as the zero fill beneath them: its CRC trailer
// is zeros (the write was cut inside a sector), or a whole sector it
// touches is (the sector never reached the disk). Rot that flipped bits in
// a landed frame shows neither.
bool MissesLandedBytes(std::string_view data, size_t pos, size_t bytes) {
  const size_t end = pos + bytes;
  if (AllZero(data.substr(end - 4, 4))) return true;
  const size_t sector = static_cast<size_t>(kSectorBytes);
  for (size_t s = pos - pos % sector; s < end; s += sector) {
    if (AllZero(data.substr(s, sector))) return true;
  }
  return false;
}

std::string SegmentPath(const std::string& dir, int64_t first_lsn) {
  char name[40];
  std::snprintf(name, sizeof(name), "wal-%020" PRId64 ".seg", first_lsn);
  return dir + "/" + name;
}

// Lists wal-*.seg files in `dir`, sorted by name (zero-padded first LSN, so
// name order is LSN order).
Result<std::vector<std::string>> ListSegments(const std::string& dir) {
  STREAMHIST_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              fs::Default().List(dir));
  std::erase_if(names, [](std::string_view name) {
    return name.size() <= 8 || name.substr(0, 4) != "wal-" ||
           name.substr(name.size() - 4) != ".seg";
  });
  std::sort(names.begin(), names.end());
  return names;
}

// What DecodeFrame found at the start of its input.
enum class FrameCheck {
  kWhole,   // a complete frame whose CRC matches
  kCrcBad,  // head and declared length intact, CRC mismatch
  kShort,   // too few bytes, an unknown magic, or a length past the end
};

struct DecodedFrame {
  FrameCheck check = FrameCheck::kShort;
  uint32_t magic = 0;
  uint32_t version = 0;
  std::string_view payload;
  // The frame length its head declares: past the end of the input when
  // kShort for want of bytes, 0 when the head is incomplete or unknown.
  size_t bytes = 0;
};

// The one frame decoder behind the recovery scan and ReadTail. It is
// hand-rolled rather than framing.h's ReadFrame, whose resync advances even
// on short frames and would blur the torn-tail / interior-rot distinction
// both callers classify on.
DecodedFrame DecodeFrame(std::string_view data) {
  DecodedFrame frame;
  ByteReader reader(data);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t len = 0;
  uint32_t stored_crc = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&version) ||
      !reader.ReadU64(&len) ||
      (magic != kSegmentMagic && magic != kRecordMagic)) {
    return frame;
  }
  frame.bytes = len > SIZE_MAX - kFrameOverhead ? SIZE_MAX
                                                : len + kFrameOverhead;
  if (!reader.Skip(len) || !reader.ReadU32(&stored_crc)) return frame;
  frame.magic = magic;
  frame.version = version;
  frame.payload = data.substr(kFrameHeadBytes, len);
  frame.check = Crc32c(data.substr(0, kFrameHeadBytes + len)) == stored_crc
                    ? FrameCheck::kWhole
                    : FrameCheck::kCrcBad;
  return frame;
}

// The LSN and caller bytes of a whole record frame; false when its version
// or payload is malformed.
bool ParseRecord(const DecodedFrame& frame, int64_t* lsn,
                 std::string_view* body) {
  ByteReader reader(frame.payload);
  uint64_t raw = 0;
  if (frame.version != kRecordVersion || !reader.ReadU64(&raw)) return false;
  *lsn = static_cast<int64_t>(raw);
  *body = reader.Rest();
  return true;
}

// Cuts a torn tail off `path` at `size` bytes and makes the cut durable.
// Open creates a fresh active segment right after, which seals this one: a
// cut that could still come undone in a crash would bring the torn bytes
// back as interior rot in a sealed segment.
Status CutTornTail(const std::string& path, size_t size) {
  STREAMHIST_ASSIGN_OR_RETURN(std::unique_ptr<fs::File> file,
                              fs::Default().Open(path, fs::OpenMode::kWrite));
  STREAMHIST_RETURN_NOT_OK(file->Truncate(static_cast<int64_t>(size)));
  return file->Sync();
}

// Shared scan core behind Open (repair=true), Scan, and Replay. Walks every
// segment in LSN order through DecodeFrame. Where a frame should start:
//
//   * an all-zero remainder is the segment's clean end — the zero fill the
//     writer lays ahead of its records (none in a segment written before
//     the fill existed). It is neither torn bytes nor rot;
//   * a structurally short or magic-less frame in the NEWEST segment, or a
//     CRC-bad one there that misses landed bytes (MissesLandedBytes: a
//     write the crash cut, or a sector of it that never reached the disk),
//     is the torn footprint of a crashed write — truncated (when `repair`)
//     at the frame's start and reported, never fatal, even when later
//     frames landed: they were written after the one the crash lost.
//     torn_bytes counts the residue through its last non-zero byte, not
//     the zero fill after it;
//   * any other CRC-bad frame whose head and declared length are intact is
//     rot — skipped whole, counted, scan continues (resynchronization);
//   * a short or magic-less frame in a sealed segment abandons the rest of
//     that segment only (there is no trustworthy delimiter to resync on).
//
// A zero run where a frame should start, with written bytes after it, is
// therefore never skipped: records past it were written after the ones the
// crash lost, and replaying them would put a gap in the history.
//
// A scan therefore never fails on damaged content, only on real I/O errors.
Status ScanImpl(const std::string& dir, bool repair, int64_t from_lsn,
                const Wal::RecordFn* fn, std::vector<SegmentInfo>* segments,
                OpenReport* report) {
  OpenReport out;
  STREAMHIST_ASSIGN_OR_RETURN(std::vector<std::string> names,
                              ListSegments(dir));
  std::vector<SegmentInfo> infos;
  int64_t max_lsn = 0;  // across valid records and segment headers
  for (size_t i = 0; i < names.size(); ++i) {
    const bool last_segment = i + 1 == names.size();
    const std::string path = dir + "/" + names[i];
    STREAMHIST_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
    const size_t written = WrittenEnd(bytes);
    if (fault::Triggered("wal.replay.corrupt") && written > kFrameOverhead) {
      bytes[written / 2] ^= 0x10;  // mid-way through the written frames
    }
    SegmentInfo info;
    info.path = path;
    ++out.segments;
    // A segment is named for the next LSN when it was created, so every
    // LSN below that was handed out, even when a crash took its header:
    // the next segment must not be named (and sort) below it.
    const std::string digits = names[i].substr(4, names[i].size() - 8);
    max_lsn = std::max<int64_t>(
        max_lsn, std::strtoll(digits.c_str(), nullptr, 10) - 1);
    const std::string_view data(bytes);
    size_t pos = 0;
    bool at_header = true;
    while (pos < written) {
      const DecodedFrame frame = DecodeFrame(data.substr(pos));
      const bool torn = frame.check == FrameCheck::kCrcBad &&
                        MissesLandedBytes(data, pos, frame.bytes);
      if (frame.check == FrameCheck::kShort ||
          frame.magic != (at_header ? kSegmentMagic : kRecordMagic) ||
          (last_segment && torn)) {
        if (last_segment) {
          out.torn_bytes += static_cast<int64_t>(written - pos);
          out.tail_truncated = true;
          if (repair) STREAMHIST_RETURN_NOT_OK(CutTornTail(path, pos));
        } else {
          ++out.corrupt_records;
        }
        break;
      }
      const bool header = at_header;
      at_header = false;
      pos += frame.bytes;
      if (frame.check == FrameCheck::kCrcBad) {
        ++out.corrupt_records;
        continue;
      }
      if (header) {
        ByteReader hp(frame.payload);
        uint64_t first = 0;
        if (frame.version == kSegmentVersion && hp.ReadU64(&first)) {
          info.first_lsn = static_cast<int64_t>(first);
          info.max_lsn = info.first_lsn - 1;
          max_lsn = std::max(max_lsn, info.first_lsn - 1);
        } else {
          ++out.corrupt_records;
        }
        continue;
      }
      int64_t lsn = 0;
      std::string_view body;
      if (!ParseRecord(frame, &lsn, &body)) {
        ++out.corrupt_records;
        continue;
      }
      ++out.records;
      info.max_lsn = std::max(info.max_lsn, lsn);
      max_lsn = std::max(max_lsn, lsn);
      if (out.first_lsn == 0 || lsn < out.first_lsn) out.first_lsn = lsn;
      if (fn != nullptr && *fn && lsn >= from_lsn) {
        STREAMHIST_RETURN_NOT_OK((*fn)(lsn, body));
      }
    }
    info.bytes = static_cast<int64_t>(pos);
    infos.push_back(std::move(info));
  }
  out.next_lsn = max_lsn + 1;
  if (segments != nullptr) *segments = std::move(infos);
  if (report != nullptr) *report = out;
  return Status::OK();
}

}  // namespace

Result<Options> ParsePolicySpec(std::string_view spec) {
  Options options;
  if (spec == "always") {
    options.policy = SyncPolicy::kAlways;
    return options;
  }
  if (spec == "none") {
    options.policy = SyncPolicy::kNone;
    return options;
  }
  const size_t colon = spec.find(':');
  const std::string_view head = spec.substr(0, colon);
  const std::string_view arg = colon == std::string_view::npos
                                   ? std::string_view()
                                   : spec.substr(colon + 1);
  if (head == "bytes") {
    const int64_t n = governor::ParseByteSize(std::string(arg));
    if (n <= 0) {
      return Status::InvalidArgument(
          "wal policy 'bytes:N' needs a positive byte count, got '" +
          std::string(spec) + "'");
    }
    options.policy = SyncPolicy::kBytes;
    options.bytes_threshold = n;
    return options;
  }
  if (head == "interval") {
    int64_t ms = -1;
    std::istringstream in{std::string(arg)};
    if (!(in >> ms) || !in.eof() || ms <= 0) {
      return Status::InvalidArgument(
          "wal policy 'interval:MS' needs a positive millisecond count, "
          "got '" +
          std::string(spec) + "'");
    }
    options.policy = SyncPolicy::kInterval;
    options.interval_ms = ms;
    return options;
  }
  return Status::InvalidArgument(
      "unknown wal policy '" + std::string(spec) +
      "' (want always | bytes:N | interval:MS | none)");
}

std::string PolicySpecString(const Options& options) {
  switch (options.policy) {
    case SyncPolicy::kAlways:
      return "always";
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kBytes:
      return "bytes:" + std::to_string(options.bytes_threshold);
    case SyncPolicy::kInterval:
      return "interval:" + std::to_string(options.interval_ms);
  }
  return "always";
}

std::string OpenReport::ToString() const {
  std::ostringstream os;
  os << "wal: " << records << " record(s) across " << segments
     << " segment(s), next lsn " << next_lsn;
  if (tail_truncated) {
    os << "; torn tail truncated (" << torn_bytes << " bytes)";
  }
  if (corrupt_records > 0) {
    os << "; " << corrupt_records << " corrupt record(s) skipped";
  }
  return os.str();
}

Wal::Wal(std::string dir, const Options& options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const Options& options,
                                       OpenReport* report) {
  STREAMHIST_ASSIGN_OR_RETURN(const bool created, fs::Default().MakeDir(dir));
  if (created) {
    // A new log directory is an entry in its parent; until the parent is
    // synced, a crash may take the directory and every acked record in it.
    STREAMHIST_RETURN_NOT_OK(fs::Default().SyncDir(fs::DirName(dir)));
  }
  const int64_t charge = options.segment_bytes + kGovernorSlackBytes;
  if (!governor::TryCharge(charge)) {
    return Status::ResourceExhausted(
        "wal: governor refused " + governor::FormatBytes(charge) +
        " for segment buffers (budget " +
        governor::FormatBytes(governor::Budget()) + ")");
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options));
  wal->governor_charge_ = charge;
  OpenReport scan;
  STREAMHIST_RETURN_NOT_OK(
      ScanImpl(dir, /*repair=*/true, 0, nullptr, &wal->sealed_, &scan));
  wal->next_lsn_ = scan.next_lsn;
  wal->written_lsn_ = scan.next_lsn - 1;
  wal->durable_lsn_ = scan.next_lsn - 1;
  // Always start a fresh active segment: every pre-existing file is sealed,
  // which keeps the append path free of reopen-and-continue edge cases.
  STREAMHIST_RETURN_NOT_OK(wal->OpenActiveSegment(wal->next_lsn_));
  wal->stats_.segments_created = 1;
  wal->flusher_ = std::thread([w = wal.get()] { w->FlusherMain(); });
  if (report != nullptr) *report = scan;
  return wal;
}

Status Wal::Scan(const std::string& dir, const RecordFn& fn,
                 OpenReport* report) {
  return ScanImpl(dir, /*repair=*/false, 0, fn ? &fn : nullptr, nullptr,
                  report);
}

Status Wal::Replay(int64_t from_lsn, const RecordFn& fn,
                   OpenReport* report) const {
  return ScanImpl(dir_, /*repair=*/false, from_lsn, fn ? &fn : nullptr,
                  nullptr, report);
}

Wal::~Wal() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
    flush_cv_.notify_all();
    durable_cv_.notify_all();
  }
  if (flusher_.joinable()) flusher_.join();
  // Best-effort final durability; a failure here has no one to report to
  // (shutdown paths that care call Flush() first for error visibility).
  if (active_ != nullptr && unsynced_bytes_ > 0) (void)active_->Sync();
  if (governor_charge_ > 0) governor::Release(governor_charge_);
}

Status Wal::OpenActiveSegment(int64_t first_lsn) {
  fs::FileSystem& disk = fs::Default();
  const std::string path = SegmentPath(dir_, first_lsn);
  // A segment already named for this first LSN holds no live records (a
  // record would have advanced next_lsn past it), so emptying and reusing
  // it is always safe. Typical cause: crash right after a rotation wrote
  // only the header. Drop its sealed entry too, or TruncateBefore (its
  // max_lsn is first_lsn - 1, below any floor) would unlink the file we are
  // about to append through — acked records silently diverted into an
  // orphaned inode.
  std::erase_if(sealed_,
                [&](const SegmentInfo& seg) { return seg.path == path; });
  STREAMHIST_ASSIGN_OR_RETURN(std::unique_ptr<fs::File> file,
                              disk.Open(path, fs::OpenMode::kCreateTruncate));
  ByteWriter header;
  header.PutU64(static_cast<uint64_t>(first_lsn));
  const std::string frame =
      WrapFrame(kSegmentMagic, kSegmentVersion, header.bytes());
  Status status = file->WriteAt(0, frame);
  if (status.ok()) status = disk.SyncDir(dir_);
  if (!status.ok()) {
    file.reset();
    (void)disk.Unlink(path);
    return status;
  }
  // The outgoing handle closes once a concurrent unlocked fsync (FsyncLocked)
  // is done with it.
  active_ = std::move(file);
  active_first_lsn_ = first_lsn;
  active_bytes_ = static_cast<int64_t>(frame.size());
  filled_bytes_ = active_bytes_;
  unsynced_bytes_ += static_cast<int64_t>(frame.size());
  return Status::OK();
}

Status Wal::SealAndRotateLocked() {
  if (fault::Triggered("wal.seal")) {
    return Status::IOError("injected fault: wal.seal (segment rotation)");
  }
  // Seal = make the outgoing segment fully durable, so TruncateBefore can
  // reason about sealed segments without consulting fsync state.
  STREAMHIST_RETURN_NOT_OK(active_->Sync());
  ++stats_.fsyncs;
  durable_lsn_ = std::max(durable_lsn_, written_lsn_);
  unsynced_bytes_ = 0;
  syncing_bytes_ = 0;
  // Invalidate any covered_bytes a concurrently unlocked FsyncLocked
  // captured: from here on unsynced_bytes_ counts the NEW segment only.
  ++rotation_epoch_;
  durable_cv_.notify_all();
  const SegmentInfo outgoing{active_->path(), active_first_lsn_,
                             written_lsn_, active_bytes_};
  // OpenActiveSegment replaces the old handle only after the new segment is
  // up, so a failure leaves the current segment writable (retried next
  // append).
  STREAMHIST_RETURN_NOT_OK(OpenActiveSegment(next_lsn_));
  // A segment rotated before its first record is the file just reused.
  if (outgoing.path != active_->path()) sealed_.push_back(outgoing);
  ++stats_.segments_created;
  return Status::OK();
}

Status Wal::ZeroFillLocked(int64_t frame_end) {
  if (frame_end <= filled_bytes_) return Status::OK();
  const int64_t fill_end =
      std::max(frame_end, std::min(active_bytes_ + kZeroFillBytes,
                                   options_.segment_bytes));
  while (filled_bytes_ < fill_end) {
    const int64_t n = std::min(kZeroFillBytes, fill_end - filled_bytes_);
    STREAMHIST_RETURN_NOT_OK(active_->WriteAt(
        filled_bytes_, Zeros().substr(0, static_cast<size_t>(n))));
    filled_bytes_ += n;
  }
  return Status::OK();
}

Status Wal::RollBackLocked(Status cause) {
  // Partial progress is possible; cut back to the last record boundary and
  // refill from there next time. Should the cut itself fail, the next
  // positioned write still lands at the boundary, over the residue.
  (void)active_->Truncate(active_bytes_);
  filled_bytes_ = active_bytes_;
  return cause;
}

Status Wal::AppendRecordLocked(int64_t lsn, std::string_view payload) {
  if (active_bytes_ >= options_.segment_bytes) {
    STREAMHIST_RETURN_NOT_OK(SealAndRotateLocked());
  }
  ByteWriter body;
  body.PutU64(static_cast<uint64_t>(lsn));
  body.Append(payload);
  const std::string frame =
      WrapFrame(kRecordMagic, kRecordVersion, body.bytes());
  const int64_t frame_end = active_bytes_ + static_cast<int64_t>(frame.size());
  if (Status s = ZeroFillLocked(frame_end); !s.ok()) {
    return RollBackLocked(std::move(s));
  }
  if (fault::Triggered("wal.append.short")) {
    // Persist half the frame, then fail — the torn-write shape a crash or
    // ENOSPC leaves.
    (void)active_->WriteAt(active_bytes_,
                           std::string_view(frame).substr(0, frame.size() / 2));
    return RollBackLocked(
        Status::IOError("injected fault: wal.append.short (torn write)"));
  }
  if (Status s = active_->WriteAt(active_bytes_, frame); !s.ok()) {
    return RollBackLocked(std::move(s));
  }
  active_bytes_ = frame_end;
  unsynced_bytes_ += static_cast<int64_t>(frame.size());
  next_lsn_ = lsn + 1;
  written_lsn_ = lsn;
  ++stats_.records;
  stats_.bytes += static_cast<int64_t>(frame.size());
  return Status::OK();
}

Result<int64_t> Wal::Append(std::string_view payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || !active_) return Status::FailedPrecondition("wal is closed");
  const int64_t lsn = next_lsn_;
  STREAMHIST_RETURN_NOT_OK(AppendRecordLocked(lsn, payload));
  switch (options_.policy) {
    case SyncPolicy::kAlways:
      ++stats_.sync_waits;
      STREAMHIST_RETURN_NOT_OK(AwaitDurableLocked(lock, lsn));
      return lsn;
    case SyncPolicy::kBytes:
      if (BytesDueLocked()) {
        requested_lsn_ = std::max(requested_lsn_, written_lsn_);
        flush_cv_.notify_one();
      }
      return lsn;
    case SyncPolicy::kInterval:
    case SyncPolicy::kNone:
      return lsn;
  }
  return lsn;
}

Status Wal::ReadTail(TailCursor* cursor, int64_t max_bytes, TailBatch* out) {
  out->records.clear();
  out->truncated_below = false;
  max_bytes = std::max<int64_t>(max_bytes, 1);
  // Frame bytes passed over, emitted or skipped. A call returns once it has
  // spent its budget and holds a record: a batch that only skipped frames
  // (a header, or records below a cursor that lost its offset) would read
  // as "caught up".
  int64_t spent = 0;
  // Bounded segment hops per call; a reader that cannot make progress
  // returns an empty batch and retries rather than spinning here.
  for (int hop = 0; hop < 64; ++hop) {
    int64_t cap = 0;          // durability horizon: never emit beyond it
    int64_t chosen_max = 0;   // the chosen segment's claimed max LSN
    int64_t end = 0;          // the chosen segment's last frame end
    std::string path;
    bool is_active = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (stop_ || !active_) return Status::FailedPrecondition("wal is closed");
      cap = durable_lsn_;
      if (cursor->next_lsn > cap) return Status::OK();  // caught up
      const int64_t retained_floor =
          sealed_.empty() ? active_first_lsn_ : sealed_.front().first_lsn;
      if (cursor->next_lsn < retained_floor) {
        out->truncated_below = true;
        return Status::OK();
      }
      for (const SegmentInfo& seg : sealed_) {
        if (seg.max_lsn >= cursor->next_lsn) {
          path = seg.path;
          chosen_max = seg.max_lsn;
          end = seg.bytes;
          break;
        }
      }
      if (path.empty()) {
        path = active_->path();
        chosen_max = written_lsn_;
        end = active_bytes_;
        is_active = true;
      }
    }
    if (path != cursor->segment_path) {
      cursor->segment_path = path;
      cursor->offset = 0;
    }
    // Read only what lies past the cursor: the rest of the byte budget, or
    // the one frame that budget ends inside, and never past the segment's
    // last frame. A caught-up reader polls once per durable wake-up and
    // reads nothing, and the zero fill is never read.
    Result<std::unique_ptr<fs::File>> file =
        fs::Default().Open(path, fs::OpenMode::kRead);
    if (!file.ok()) {
      // The segment raced a checkpoint truncation out from under us; the
      // records it held are below the new retention floor.
      out->truncated_below = true;
      return Status::OK();
    }
    while (cursor->offset < end) {
      const int64_t base = cursor->offset;
      const int64_t budget =
          std::max<int64_t>(max_bytes - spent, kFrameHeadBytes);
      std::string bytes;
      Status read = (*file)->ReadAt(base, std::min(end - base, budget), &bytes);
      // The budget ends inside the first frame: read through its end.
      const int64_t through = static_cast<int64_t>(std::min<uint64_t>(
          DecodeFrame(bytes).bytes, static_cast<uint64_t>(end - base)));
      if (read.ok() && through > static_cast<int64_t>(bytes.size())) {
        std::string rest;
        read = (*file)->ReadAt(base + static_cast<int64_t>(bytes.size()),
                               through - static_cast<int64_t>(bytes.size()),
                               &rest);
        bytes += rest;
      }
      if (!read.ok()) {
        out->truncated_below = true;  // as above: the segment is gone
        return Status::OK();
      }
      size_t pos = 0;
      while (pos < bytes.size()) {
        const DecodedFrame frame =
            DecodeFrame(std::string_view(bytes).substr(pos));
        if (frame.check == FrameCheck::kShort) break;  // the next read's
        int64_t lsn = 0;
        std::string_view body;
        const bool record = frame.check == FrameCheck::kWhole &&
                            frame.magic == kRecordMagic &&
                            ParseRecord(frame, &lsn, &body);
        if (record && lsn > cap) return Status::OK();  // not durable yet
        pos += frame.bytes;
        cursor->offset = base + static_cast<int64_t>(pos);
        spent += static_cast<int64_t>(frame.bytes);
        // Headers carry no records; CRC-bad interiors are skipped exactly
        // like Replay's resynchronization skips them.
        if (record && lsn >= cursor->next_lsn) {
          out->records.emplace_back(lsn, std::string(body));
          cursor->next_lsn = lsn + 1;
        }
        if (spent >= max_bytes && !out->records.empty()) return Status::OK();
      }
      if (cursor->offset == base) break;  // no whole frame: abandoned rot
    }
    if (is_active) return Status::OK();  // read everything on disk so far
    // A finished sealed segment may claim LSNs it cannot produce (rot that
    // abandoned its tail, or an AlignNextLsn gap); advance past its claim
    // so the hop cannot re-pick the same file forever.
    cursor->next_lsn = std::max(cursor->next_lsn, chosen_max + 1);
  }
  return Status::OK();
}

Status Wal::AppendAt(int64_t lsn, std::string_view payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || !active_) return Status::FailedPrecondition("wal is closed");
  if (lsn < next_lsn_) {
    return Status::InvalidArgument(
        "AppendAt lsn " + std::to_string(lsn) + " is below next lsn " +
        std::to_string(next_lsn_));
  }
  return AppendRecordLocked(lsn, payload);
}

Status Wal::AlignNextLsn(int64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || !active_) return Status::FailedPrecondition("wal is closed");
  if (lsn < next_lsn_) {
    return Status::InvalidArgument(
        "AlignNextLsn cannot move backwards: lsn " + std::to_string(lsn) +
        " < next lsn " + std::to_string(next_lsn_));
  }
  if (lsn == active_first_lsn_ && written_lsn_ < active_first_lsn_) {
    return Status::OK();  // already an empty segment headed exactly there
  }
  next_lsn_ = lsn;
  // LSNs below the floor live in the bootstrap image, not this log; treat
  // them as written-and-durable so resume points (durable + 1) are honest.
  written_lsn_ = std::max(written_lsn_, lsn - 1);
  durable_lsn_ = std::max(durable_lsn_, lsn - 1);
  durable_cv_.notify_all();
  return SealAndRotateLocked();
}

Status Wal::Rotate() {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || !active_) return Status::FailedPrecondition("wal is closed");
  if (written_lsn_ < active_first_lsn_) return Status::OK();
  return SealAndRotateLocked();
}

bool Wal::WaitDurable(int64_t lsn, int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (durable_lsn_ >= lsn) return true;
  if (stop_) return false;
  const int64_t target = std::min(lsn, written_lsn_);
  if (target > requested_lsn_) {
    requested_lsn_ = target;
    flush_cv_.notify_one();
  }
  if (timeout_ms <= 0) return false;
  durable_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return durable_lsn_ >= lsn || stop_; });
  return durable_lsn_ >= lsn;
}

int64_t Wal::first_retained_lsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  return sealed_.empty() ? active_first_lsn_ : sealed_.front().first_lsn;
}

Status Wal::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  const int64_t target = written_lsn_;
  if (durable_lsn_ >= target) return Status::OK();
  if (stop_) return Status::FailedPrecondition("wal is closed");
  return AwaitDurableLocked(lock, target);
}

Status Wal::AwaitDurableLocked(std::unique_lock<std::mutex>& lock,
                               int64_t lsn) {
  requested_lsn_ = std::max(requested_lsn_, lsn);
  const int64_t my_error_seq = flush_error_seq_;
  flush_cv_.notify_one();
  durable_cv_.wait(lock, [&] {
    return durable_lsn_ >= lsn || flush_error_seq_ != my_error_seq || stop_;
  });
  if (durable_lsn_ >= lsn) return Status::OK();
  if (flush_error_seq_ != my_error_seq) return flush_error_;
  return Status::FailedPrecondition("wal closed while awaiting fsync");
}

bool Wal::BytesDueLocked() const {
  // Bytes an fsync in flight already covers do not count toward the next.
  return options_.policy == SyncPolicy::kBytes &&
         unsynced_bytes_ - syncing_bytes_ >= options_.bytes_threshold;
}

void Wal::FlusherMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    auto wakeup = [&] {
      return stop_ || requested_lsn_ > durable_lsn_ || BytesDueLocked();
    };
    if (options_.policy == SyncPolicy::kInterval) {
      flush_cv_.wait_for(lock,
                         std::chrono::milliseconds(options_.interval_ms),
                         wakeup);
    } else {
      flush_cv_.wait(lock, wakeup);
    }
    if (stop_) break;
    const bool want =
        requested_lsn_ > durable_lsn_ || BytesDueLocked() ||
        (options_.policy == SyncPolicy::kInterval && unsynced_bytes_ > 0);
    if (!want) continue;
    if (const Status s = FsyncLocked(lock); !s.ok() && !stop_) {
      // Back off so a persistently failing fsync can't spin the flusher;
      // waiters were already released with the error.
      flush_cv_.wait_for(lock, std::chrono::milliseconds(10));
    }
  }
}

Status Wal::FsyncLocked(std::unique_lock<std::mutex>& lock) {
  const int64_t target = written_lsn_;
  if (target <= durable_lsn_) return Status::OK();
  // fsync outside the lock so concurrent appenders keep filling the next
  // group — this is what makes the commit a *group* commit. The shared
  // handle keeps the file open across a concurrent rotation (which replaces
  // active_), and every record <= target is in the file behind it (rotation
  // itself fsyncs).
  const std::shared_ptr<fs::File> file = active_;
  const int64_t covered_bytes = unsynced_bytes_;
  const int64_t epoch = rotation_epoch_;
  syncing_bytes_ = covered_bytes;
  lock.unlock();
  const Status result =
      fault::Triggered("wal.fsync")
          ? Status::IOError("injected fault: wal.fsync (fsync failed)")
          : file->Sync();
  lock.lock();
  syncing_bytes_ = 0;
  if (result.ok()) {
    ++stats_.fsyncs;
    durable_lsn_ = std::max(durable_lsn_, target);
    if (rotation_epoch_ == epoch) {
      // No rotation raced the unlocked fsync, so covered_bytes still
      // describes bytes of the same segment; subtract what we synced.
      // After a rotation the counter was reset and now tracks the new
      // segment's un-fsynced bytes — subtracting stale covered_bytes
      // would mark those as synced and starve the bytes:N policy.
      unsynced_bytes_ = std::max<int64_t>(0, unsynced_bytes_ - covered_bytes);
    }
    durable_cv_.notify_all();
  } else {
    flush_error_ = result;
    ++flush_error_seq_;
    durable_cv_.notify_all();
  }
  return result;
}

Status Wal::TruncateBefore(int64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  bool any = false;
  std::vector<SegmentInfo> keep;
  Status first_error = Status::OK();
  for (SegmentInfo& seg : sealed_) {
    if (seg.max_lsn < lsn) {
      Status unlinked = fs::Default().Unlink(seg.path);
      if (!unlinked.ok() && unlinked.code() != StatusCode::kNotFound) {
        if (first_error.ok()) first_error = std::move(unlinked);
        keep.push_back(std::move(seg));
        continue;
      }
      ++stats_.segments_deleted;
      any = true;
    } else {
      keep.push_back(std::move(seg));
    }
  }
  sealed_ = std::move(keep);
  if (any) {
    if (Status s = fs::Default().SyncDir(dir_);
        !s.ok() && first_error.ok()) {
      first_error = s;
    }
  }
  return first_error;
}

int64_t Wal::durable_lsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  return durable_lsn_;
}

int64_t Wal::next_lsn() const {
  std::unique_lock<std::mutex> lock(mu_);
  return next_lsn_;
}

StatsSnapshot Wal::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  StatsSnapshot out = stats_;
  out.durable_lsn = durable_lsn_;
  out.next_lsn = next_lsn_;
  return out;
}

}  // namespace wal
}  // namespace streamhist
