// Crash-state checker for the durability contract: an APPEND acked under
// wal policy "always" survives a crash. SIGKILL keeps the page cache, so a
// process-kill test cannot tell a missing fsync from a present one; this
// test models the disk instead.
//
// A workload runs once against the real file system through
// RecordingFileSystem (tests/recording_file_system.h), which logs every
// operation that changes the disk. The model: a file's bytes are durable
// after an fsync of that file; a directory entry (create, mkdir, rename,
// unlink) is durable after an fsync of its directory. For every crash point
// (each prefix of the log) the checker builds the disk images a crash there
// may leave: the durable state plus, of the operations not yet durable,
// none, each in-order prefix, each such prefix with its last write torn in
// half, each such prefix whose last write landed while the earlier pending
// writes to the same file did not — page writeback follows page order, not
// write order, once records overwrite a file's zero fill — and each such
// prefix that landed but for one sector (wal::kSectorBytes) of an earlier
// pending write, outside the sector that holds all of the last write. Each
// image is recovered with a fresh QueryEngine::OpenWal through the POSIX
// file system, one engine at a time, and checked:
//
//   * recovery succeeds;
//   * each stream whose CREATE was acked exists, and every stream's raw
//     window is the acked values in order followed only by the next
//     unacked values in order;
//   * the SaveCheckpoint path holds, while a save runs, the old image or
//     the new one, never a torn mix — and once a save returned OK, exactly
//     its image, which loads back whole.
//
// A second pass crashes the recovery itself: every image whose recovery cut
// a torn tail is recovered under the recorder, crashed at each point after
// the cut, and recovered again, which must find no corrupt record.
//
// A third pass rots the checkpoint: in every image that holds the WAL's
// checkpoint, each section in turn gets a flipped byte. Every acked value
// of a stream the log still holds from its CREATE on must survive; a
// stream the log no longer holds may be lost, and the report must say so.
//
// The teeth: the checker must report a violation when the model ignores any
// one of the sync sites the contract rests on, and when recovery reads the
// log the way a scan that skipped a zero run and kept decoding would.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "recording_file_system.h"
#include "src/engine/query_engine.h"
#include "src/engine/wal_records.h"
#include "src/util/file_system.h"
#include "src/util/fileio.h"
#include "src/util/framing.h"
#include "src/util/wal.h"
#include "test_dir.h"

namespace streamhist {
namespace {

using Op = RecordingFileSystem::Op;
using OpKind = RecordingFileSystem::OpKind;

constexpr int64_t kSegmentBytes = 256;  // a rotation every few records
constexpr int kValuesPerBatch = 3;
const std::vector<std::string> kStreams = {"a", "b"};

bool IsDirEntryOp(OpKind kind) {
  return kind == OpKind::kCreate || kind == OpKind::kMkdir ||
         kind == OpKind::kRename || kind == OpKind::kUnlink;
}

bool IsDataOp(OpKind kind) {
  return kind == OpKind::kWrite || kind == OpKind::kTruncate;
}

bool IsSegment(const std::string& path) {
  const std::string name = path.substr(path.find_last_of('/') + 1);
  return name.rfind("wal-", 0) == 0 && name.size() > 4 &&
         name.substr(name.size() - 4) == ".seg";
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The directory whose fsync makes a directory-entry op durable.
std::string EntryDir(const Op& op) {
  return fs::DirName(op.kind == OpKind::kRename ? op.to : op.path);
}

// The nearest op of the same thread before (step -1) or after (step +1)
// op i, skipping marks; null when there is none.
const Op* SameThreadNeighbor(const std::vector<Op>& ops, size_t i, int step) {
  for (int64_t j = static_cast<int64_t>(i) + step;
       j >= 0 && j < static_cast<int64_t>(ops.size()); j += step) {
    const Op& op = ops[static_cast<size_t>(j)];
    if (op.thread == ops[i].thread && op.kind != OpKind::kMark) return &op;
  }
  return nullptr;
}

// Names the code site behind sync op i of a log recorded with the log
// directory at `root`/wal. The sites are told apart by what the same thread
// did just before or after; group commit is the one sync made off the
// thread that drives the engine (the first op's thread).
std::string SyncSite(const std::vector<Op>& ops, size_t i,
                     const std::string& root) {
  const Op& op = ops[i];
  const std::string wal_dir = root + "/wal";
  const Op* prev = SameThreadNeighbor(ops, i, -1);
  const OpKind prev_kind = prev == nullptr ? OpKind::kMark : prev->kind;
  if (op.kind == OpKind::kSync) {
    if (EndsWith(op.path, ".tmp")) {
      return fs::DirName(op.path) == wal_dir ? "checkpoint.shcp temp fsync"
                                             : "SaveCheckpoint temp fsync";
    }
    if (!IsSegment(op.path)) return "fsync of " + op.path;
    if (prev_kind == OpKind::kTruncate && prev->inode == op.inode) {
      return "torn-tail cut fsync";
    }
    if (op.thread != ops.front().thread) return "group-commit fsync";
    const Op* next = SameThreadNeighbor(ops, i, +1);
    if (next != nullptr && IsSegment(next->path) &&
        (next->kind == OpKind::kCreate || next->kind == OpKind::kTruncate)) {
      return "segment seal fsync";
    }
    return "close fsync";
  }
  if (op.path == wal_dir) {
    if (prev_kind == OpKind::kWrite) return "segment-create dir fsync";
    if (prev_kind == OpKind::kRename) return "checkpoint.shcp rename dir fsync";
    if (prev_kind == OpKind::kUnlink) return "post-truncation dir fsync";
  } else if (op.path == root) {
    if (prev_kind == OpKind::kRename) return "SaveCheckpoint rename dir fsync";
    if (prev_kind == OpKind::kMkdir) return "log-dir create parent fsync";
  }
  return "dir fsync of " + op.path;
}

// A disk: which directories exist and what each reachable file holds.
struct Image {
  std::set<std::string> dirs;
  std::map<std::string, std::string> files;

  std::string Key() const {
    std::string key;
    for (const std::string& dir : dirs) key += "D" + dir + '\n';
    for (const auto& [path, bytes] : files) {
      key += "F" + path + '\n' + std::to_string(bytes.size()) + '\n' + bytes;
    }
    return key;
  }
};

// Replays logged operations over names, directories and inode contents.
struct DiskModel {
  std::set<std::string> dirs;
  std::map<std::string, int64_t> names;  // file path -> inode
  std::map<int64_t, std::string> data;   // inode -> bytes

  explicit DiskModel(const Image& initial) : dirs(initial.dirs) {
    int64_t inode = 0;  // RecordingFileSystem's numbering of existing files
    for (const auto& [path, bytes] : initial.files) {
      names[path] = inode;
      data[inode++] = bytes;
    }
  }

  void Apply(const Op& op, bool torn = false) {
    switch (op.kind) {
      case OpKind::kCreate:
        names[op.path] = op.inode;
        data.try_emplace(op.inode);
        break;
      case OpKind::kMkdir:
        dirs.insert(op.path);
        break;
      case OpKind::kRename:
        if (const auto it = names.find(op.path); it != names.end()) {
          const int64_t inode = it->second;
          names.erase(it);
          names[op.to] = inode;
        }
        break;
      case OpKind::kUnlink:
        names.erase(op.path);
        break;
      case OpKind::kWrite: {
        // Lands at its offset; a gap before it reads as zeros.
        const std::string_view bytes =
            torn ? std::string_view(op.data).substr(0, op.data.size() / 2)
                 : std::string_view(op.data);
        std::string& file = data[op.inode];
        const size_t end = static_cast<size_t>(op.offset) + bytes.size();
        if (file.size() < end) file.resize(end);
        file.replace(static_cast<size_t>(op.offset), bytes.size(), bytes);
        break;
      }
      case OpKind::kTruncate:
        data[op.inode].resize(static_cast<size_t>(op.size));
        break;
      case OpKind::kSync:
      case OpKind::kSyncDir:
      case OpKind::kMark:
        break;
    }
  }

  // Files whose directory entry lies in an existing directory.
  Image ToImage() const {
    Image image;
    image.dirs = dirs;
    for (const auto& [path, inode] : names) {
      if (dirs.count(fs::DirName(path)) > 0) {
        image.files[path] = data.at(inode);
      }
    }
    return image;
  }
};

// For each op, the index of the first sync that makes it durable (the op
// count when no sync does). A sync covers only ops logged before the sync
// started (Op::size holds that log length). Syncs of site `ignored_site`
// are treated as no-ops — how the teeth test removes one class of sync.
std::vector<size_t> DurableAt(const std::vector<Op>& ops,
                              const std::string& root,
                              const std::string& ignored_site) {
  std::vector<size_t> at(ops.size(), ops.size());
  for (size_t j = 0; j < ops.size(); ++j) {
    const Op& sync = ops[j];
    if (sync.kind != OpKind::kSync && sync.kind != OpKind::kSyncDir) continue;
    if (!ignored_site.empty() && SyncSite(ops, j, root) == ignored_site) {
      continue;
    }
    const size_t covered = std::min(static_cast<size_t>(sync.size), j);
    for (size_t i = 0; i < covered; ++i) {
      if (at[i] != ops.size()) continue;
      const Op& op = ops[i];
      const bool covers =
          sync.kind == OpKind::kSync
              ? IsDataOp(op.kind) && op.inode == sync.inode
              : IsDirEntryOp(op.kind) && EntryDir(op) == sync.path;
      if (covers) at[i] = j;
    }
  }
  return at;
}

// Calls visit(k, subset, image) for every image a crash after ops[0..k)
// may leave, for k in [first_point, ops.size()], on a disk that held
// `initial` (durably) when the log `ops`, recorded under `root`, began.
// Stops when visit returns false.
void ForEachCrashImage(
    const Image& initial, const std::vector<Op>& ops, const std::string& root,
    size_t first_point, const std::string& ignored_site,
    const std::function<bool(size_t, const std::string&, const Image&)>&
        visit) {
  const std::vector<size_t> durable_at = DurableAt(ops, root, ignored_site);
  for (size_t k = first_point; k <= ops.size(); ++k) {
    DiskModel durable(initial);
    std::vector<size_t> pending;
    for (size_t i = 0; i < k; ++i) {
      if (!IsDataOp(ops[i].kind) && !IsDirEntryOp(ops[i].kind)) continue;
      if (durable_at[i] < k) {
        durable.Apply(ops[i]);
      } else {
        pending.push_back(i);
      }
    }
    // Pending ops apply in log order on top of the durable state; ops on
    // one file or one directory are durable in log order, so the durable
    // set never follows a pending op on the same object.
    DiskModel state = durable;
    if (!visit(k, "none", state.ToImage())) return;
    for (size_t n = 1; n <= pending.size(); ++n) {
      const Op& last = ops[pending[n - 1]];
      if (last.kind == OpKind::kWrite && last.data.size() >= 2) {
        DiskModel torn = state;
        torn.Apply(last, /*torn=*/true);
        if (!visit(k, "prefix " + std::to_string(n) + " torn",
                   torn.ToImage())) {
          return;
        }
      }
      const auto same_file_write = [&](size_t i) {
        return last.kind == OpKind::kWrite && ops[i].kind == OpKind::kWrite &&
               ops[i].inode == last.inode;
      };
      const auto earlier = pending.begin() + static_cast<ptrdiff_t>(n - 1);
      if (std::any_of(pending.begin(), earlier, same_file_write)) {
        DiskModel alone = durable;
        for (auto it = pending.begin(); it != earlier; ++it) {
          if (!same_file_write(*it)) alone.Apply(ops[*it]);
        }
        alone.Apply(last);
        if (!visit(k, "prefix " + std::to_string(n) + " without earlier writes",
                   alone.ToImage())) {
          return;
        }
      }
      state.Apply(last);
      if (!visit(k, "prefix " + std::to_string(n), state.ToImage())) return;
      // The prefix landed but for one sector that an earlier pending write
      // to the same file touched: the disk kept that sector's durable bytes
      // (zeros past them), whatever any pending write put there. Only
      // sectors that do not hold all of `last`, so a later write landed.
      constexpr int64_t kSector = wal::kSectorBytes;
      std::set<int64_t> sectors;  // start offsets
      for (auto it = pending.begin(); it != earlier; ++it) {
        if (!same_file_write(*it)) continue;
        const Op& write = ops[*it];
        const int64_t write_end =
            write.offset + static_cast<int64_t>(write.data.size());
        for (int64_t s = write.offset - write.offset % kSector; s < write_end;
             s += kSector) {
          sectors.insert(s);
        }
      }
      const int64_t last_end =
          last.offset + static_cast<int64_t>(last.data.size());
      const auto kept = durable.data.find(last.inode);
      for (const int64_t begin : sectors) {
        if (last.offset >= begin && last_end <= begin + kSector) continue;
        DiskModel lost = state;
        std::string& file = lost.data[last.inode];
        for (size_t i = static_cast<size_t>(begin);
             i < static_cast<size_t>(begin + kSector) && i < file.size(); ++i) {
          const bool held =
              kept != durable.data.end() && i < kept->second.size();
          file[i] = held ? kept->second[i] : '\0';
        }
        if (!visit(k,
                   "prefix " + std::to_string(n) + " without sector at " +
                       std::to_string(begin),
                   lost.ToImage())) {
          return;
        }
      }
    }
  }
}

// Writes `image` (recorded under `from_root`) into `to_root`.
void Materialize(const Image& image, const std::string& from_root,
                 const std::string& to_root) {
  std::filesystem::remove_all(to_root);
  const auto moved = [&](const std::string& path) {
    return to_root + path.substr(from_root.size());
  };
  for (const std::string& dir : image.dirs) {
    std::filesystem::create_directories(moved(dir));
  }
  for (const auto& [path, bytes] : image.files) {
    std::ofstream out(moved(path), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

// The length of the frame at the start of `bytes` (src/util/framing.h), or
// nullopt when its head is incomplete or its declared length runs past the
// end.
std::optional<size_t> FrameBytes(std::string_view bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t length = 0;
  if (!reader.ReadU32(&magic) || !reader.ReadU32(&version) ||
      !reader.ReadU64(&length) || !reader.Skip(length) ||
      !reader.Skip(sizeof(uint32_t))) {
    return std::nullopt;
  }
  return reader.position();
}

// What a log scan that skipped each zero run where a frame should start,
// and kept decoding after it, would read: every segment with those runs
// cut out. The teeth of the zero-fill rule.
Image SkipZeroRuns(const Image& image) {
  Image out = image;
  for (auto& [path, bytes] : out.files) {
    if (!IsSegment(path)) continue;
    std::string kept;
    size_t pos = 0;
    while (pos < bytes.size()) {
      if (bytes[pos] == '\0') {
        ++pos;  // no frame starts with a zero byte
        continue;
      }
      // A short tail is kept whole.
      const size_t frame = FrameBytes(std::string_view(bytes).substr(pos))
                               .value_or(bytes.size() - pos);
      kept += bytes.substr(pos, frame);
      pos += frame;
    }
    bytes = std::move(kept);
  }
  return out;
}

// The checkpoint image `bytes` with one byte flipped in the middle of its
// `section`-th section (inside its payload), or nullopt when it has no such
// section.
std::optional<std::string> RotSection(std::string bytes, size_t section) {
  size_t pos = 0;
  for (size_t frame = 0;; ++frame) {
    const std::optional<size_t> length =
        FrameBytes(std::string_view(bytes).substr(pos));
    if (!length) return std::nullopt;
    if (frame == section + 1) {  // frame 0 is the header
      bytes[pos + *length / 2] ^= 0x20;
      return bytes;
    }
    pos += *length;
  }
}

QueryEngine::WalConfig Config() {
  QueryEngine::WalConfig config;
  config.options.policy = wal::SyncPolicy::kAlways;
  config.options.segment_bytes = kSegmentBytes;
  return config;
}

// What a fresh engine recovers from one image.
struct Observation {
  Status recovered;
  int64_t corrupt_records = 0;
  bool tail_truncated = false;
  int64_t sections_lost = 0;
  std::set<std::string> logged_creates;  // CREATE records the log holds
  int64_t recovered_from_log = 0;
  std::map<std::string, std::vector<double>> windows;  // present streams
  bool saved_loads_whole = false;  // saved.shcp fully loads (when present)
};

Observation Recover(const std::string& root) {
  Observation obs;
  (void)wal::Wal::Scan(
      root + "/wal",
      [&](int64_t, std::string_view payload) {
        Result<walrec::Record> record = walrec::Decode(payload);
        if (record.ok() && record->type == walrec::RecordType::kCreate) {
          obs.logged_creates.insert(record->name);
        }
        return Status::OK();
      },
      nullptr);
  {
    QueryEngine engine;
    Result<QueryEngine::WalRecoveryReport> report =
        engine.OpenWal(root + "/wal", Config());
    obs.recovered = report.status();
    if (report.ok()) {
      obs.corrupt_records = report->open.corrupt_records;
      obs.tail_truncated = report->open.tail_truncated;
      obs.sections_lost = report->sections_lost;
      obs.recovered_from_log =
          static_cast<int64_t>(report->recovered_from_log.size());
      for (const std::string& name : kStreams) {
        Result<StreamHandle> handle = engine.Stream(name);
        if (!handle.ok()) continue;
        const auto lock = handle->LockWriter();
        obs.windows[name] =
            handle->stream().window_histogram().window().ToVector();
      }
      obs.recovered = engine.CloseWal();
    }
  }
  if (std::filesystem::exists(root + "/saved.shcp")) {
    QueryEngine fresh;
    Result<QueryEngine::CheckpointReport> loaded =
        fresh.LoadCheckpoint(root + "/saved.shcp");
    obs.saved_loads_whole = loaded.ok() && loaded->fully_loaded();
  }
  return obs;
}

// Recovers the log that `image` (recorded under `from_root`) holds in
// `to_root`/wal with Wal::Open and reads it back. Returns what is wrong
// (empty when nothing): the log must retain a prefix of `payloads` (LSN
// i + 1 carries payloads[i]) with no record counted as rot, and verify
// clean once repaired. `*retained` gets the prefix length.
std::string RecoverPrefix(const Image& image, const std::string& from_root,
                          const std::string& to_root,
                          const wal::Options& options,
                          const std::vector<std::string>& payloads,
                          size_t* retained) {
  Materialize(image, from_root, to_root);
  const std::string dir = to_root + "/wal";
  wal::OpenReport report;
  std::vector<std::pair<int64_t, std::string>> records;
  {
    Result<std::unique_ptr<wal::Wal>> log =
        wal::Wal::Open(dir, options, &report);
    if (!log.ok()) return "recovery failed: " + log.status().ToString();
    const Status replayed = (*log)->Replay(
        0,
        [&](int64_t lsn, std::string_view payload) {
          records.emplace_back(lsn, std::string(payload));
          return Status::OK();
        },
        nullptr);
    if (!replayed.ok()) return "replay failed: " + replayed.ToString();
  }
  if (report.corrupt_records != 0) {
    return std::to_string(report.corrupt_records) + " record(s) read as rot";
  }
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].first != static_cast<int64_t>(i) + 1 ||
        i >= payloads.size() || records[i].second != payloads[i]) {
      return "record " + std::to_string(i) + " recovered as LSN " +
             std::to_string(records[i].first) +
             ", not the next of the records written";
    }
  }
  wal::OpenReport verified;
  if (!wal::Wal::Scan(dir, nullptr, &verified).ok() ||
      verified.corrupt_records != 0 || verified.tail_truncated) {
    return "the repaired log does not verify clean: " + verified.ToString();
  }
  *retained = records.size();
  return "";
}

// What the workload had been promised by crash point k.
struct Promise {
  std::map<std::string, size_t> acked;  // stream -> acked values (CREATE'd)
  int saves_done = 0;                   // SaveCheckpoint calls returned OK
  bool save_running = false;
};

// The max of two promises' acked counts, per stream.
void Widen(Promise* into, const Promise& other) {
  for (const auto& [name, count] : other.acked) {
    into->acked[name] = std::max(into->acked[name], count);
  }
}

// A recorded workload run: the op log, the planned values per stream, the
// bytes each SaveCheckpoint left at its path, and each promise made. A mark
// in the log holds the index of the promise in force from there on.
struct Workload {
  std::string root;
  std::vector<Op> ops;
  std::map<std::string, std::vector<double>> planned;
  std::vector<std::string> saves;
  std::vector<Promise> promises;

  // What had been promised by crash point k.
  Promise PromiseAt(size_t k) const {
    for (size_t i = k; i-- > 0;) {
      if (ops[i].kind == OpKind::kMark) return promises[std::stoul(ops[i].data)];
    }
    return Promise{};
  }
};

class CrashStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_.root = scratch_.File("run");
    std::filesystem::create_directories(workload_.root);
  }

  // CREATE two streams, then acked APPEND batches with a replicated batch
  // apply and a SaveCheckpoint, a WalCheckpointNow (checkpoint plus
  // truncation), more appends, a second batch apply, a second
  // SaveCheckpoint over the first and a LOAD of it — all recorded.
  void RunWorkload() {
    const std::string saved = workload_.root + "/saved.shcp";
    RecordingFileSystem recorder;
    Promise promise;
    const auto promised = [&] {
      recorder.Mark(std::to_string(workload_.promises.size()));
      workload_.promises.push_back(promise);
    };
    {
      const ScopedFileSystem recording(&recorder);
      QueryEngine engine;
      ASSERT_TRUE(engine.OpenWal(workload_.root + "/wal", Config()).ok());
      for (const std::string& name : kStreams) {
        ASSERT_TRUE(engine.Execute("CREATE " + name + " 64 4").ok());
        promise.acked[name] = 0;
        promised();
      }
      double next = 1;
      const auto round = [&] {
        for (const std::string& name : kStreams) {
          std::string statement = "APPEND " + name;
          std::vector<double>& planned = workload_.planned[name];
          for (int v = 0; v < kValuesPerBatch; ++v) {
            planned.push_back(next);
            statement += " " + std::to_string(static_cast<int>(next++));
          }
          ASSERT_TRUE(engine.Execute(statement).ok()) << statement;
          promise.acked[name] = planned.size();
          promised();
        }
      };
      // A replica's batch apply: three records of one stream written back
      // to back and made durable by one fsync — the workload's window with
      // several unsynced records in one segment.
      const auto batch = [&] {
        std::vector<std::pair<int64_t, std::string>> records;
        std::vector<double>& planned = workload_.planned["a"];
        int64_t lsn = engine.WalStats().next_lsn;
        for (int r = 0; r < 3; ++r) {
          std::vector<double> values;
          for (int v = 0; v < kValuesPerBatch; ++v) {
            values.push_back(next);
            planned.push_back(next++);
          }
          records.emplace_back(lsn++, walrec::EncodeAppend("a", values));
        }
        ASSERT_TRUE(engine.ApplyReplicatedBatch(records).ok());
        promise.acked["a"] = planned.size();
        promised();
      };
      const auto save = [&] {
        promise.save_running = true;
        promised();
        ASSERT_TRUE(engine.SaveCheckpoint(saved).ok());
        Result<std::string> bytes = ReadFileToString(saved);
        ASSERT_TRUE(bytes.ok());
        workload_.saves.push_back(*bytes);
        promise.save_running = false;
        ++promise.saves_done;
        promised();
      };
      for (int i = 0; i < 4; ++i) round();
      batch();
      save();
      for (int i = 0; i < 3; ++i) round();
      ASSERT_TRUE(engine.WalCheckpointNow().ok());
      for (int i = 0; i < 3; ++i) round();
      batch();
      save();
      // LOAD of the image just saved: equal streams replace the registry,
      // their LSN tails at 0, and the log is re-anchored on them.
      ASSERT_TRUE(engine.LoadCheckpoint(saved).ok());
      round();
    }
    workload_.ops = recorder.ops();
  }

  // What is wrong (empty when nothing) with the streams a crash state
  // recovered to, against what was promised at its crash point. With
  // `rotted_checkpoint`, an acked stream may be missing when the log no
  // longer holds its CREATE, and the report must count it lost.
  std::string CheckStreams(const Promise& promise, const Observation& obs,
                           bool rotted_checkpoint = false) const {
    if (!obs.recovered.ok()) {
      return "recovery failed: " + obs.recovered.ToString();
    }
    int64_t lost = 0;
    for (const std::string& name : kStreams) {
      const auto window = obs.windows.find(name);
      const auto acked = promise.acked.find(name);
      if (window == obs.windows.end()) {
        if (acked == promise.acked.end()) continue;
        if (rotted_checkpoint && obs.logged_creates.count(name) == 0) {
          ++lost;
          continue;
        }
        return "acked stream " + name + " lost";
      }
      const std::vector<double>& planned = workload_.planned.at(name);
      const std::vector<double>& got = window->second;
      const size_t need = acked == promise.acked.end() ? 0 : acked->second;
      if (got.size() < need || got.size() > planned.size() ||
          !std::equal(got.begin(), got.end(), planned.begin())) {
        return "stream " + name + " holds " + std::to_string(got.size()) +
               " value(s), not the " + std::to_string(need) +
               " acked ones in order plus unacked successors";
      }
    }
    if (lost > obs.sections_lost) {
      return std::to_string(lost) + " stream(s) lost, " +
             std::to_string(obs.sections_lost) + " reported lost";
    }
    return "";
  }

  // What is wrong (empty when nothing) with the SaveCheckpoint path.
  std::string CheckSaved(const Image& image, const Promise& promise,
                         const Observation& obs) const {
    const auto done = [&](int n) -> std::optional<std::string> {
      if (n == 0) return std::nullopt;
      return workload_.saves[static_cast<size_t>(n - 1)];
    };
    std::set<std::optional<std::string>> allowed = {done(promise.saves_done)};
    if (promise.save_running) allowed.insert(done(promise.saves_done + 1));
    const auto saved = image.files.find(workload_.root + "/saved.shcp");
    const std::optional<std::string> found =
        saved == image.files.end() ? std::nullopt
                                   : std::optional<std::string>(saved->second);
    if (allowed.count(found) == 0) {
      return found ? "saved.shcp holds a torn or stale image"
                   : "saved.shcp missing after SaveCheckpoint returned";
    }
    if (found && !obs.saved_loads_whole) {
      return "saved.shcp does not load back whole";
    }
    return "";
  }

  // The recovery of `image` (recorded under `from_root`), memoized: many
  // crash states leave the same disk.
  const Observation& Observe(const Image& image,
                             const std::string& from_root) {
    std::string key = image.Key();
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      const std::string dir = scratch_.File("image");
      Materialize(image, from_root, dir);
      it = cache_.emplace(std::move(key), Recover(dir)).first;
    }
    return it->second;
  }

  struct Outcome {
    int64_t crash_points = 0;
    int64_t states = 0;
    std::vector<std::string> violations;
    int64_t recovered_from_log = 0;  // rot pass: sections the log rebuilt
    int64_t lost = 0;                // rot pass: sections reported lost
  };

  // Explores every crash state of the recorded workload, stopping at the
  // first violation when `stop_at_first`. With `skip_zero_runs`, each image
  // is recovered as a scan that skips zero runs would read it.
  Outcome Explore(const std::string& ignored_site, bool stop_at_first,
                  bool skip_zero_runs = false) {
    Outcome out;
    Image initial;
    initial.dirs.insert(workload_.root);
    ForEachCrashImage(
        initial, workload_.ops, workload_.root, 0, ignored_site,
        [&](size_t k, const std::string& subset, const Image& image) {
          if (subset == "none") ++out.crash_points;
          ++out.states;
          const Promise promise = workload_.PromiseAt(k);
          const Observation& obs = Observe(
              skip_zero_runs ? SkipZeroRuns(image) : image, workload_.root);
          std::string violation = CheckStreams(promise, obs);
          if (violation.empty()) violation = CheckSaved(image, promise, obs);
          if (violation.empty()) {
            if (obs.tail_truncated) {
              auto& [torn_image, torn_promise] = torn_[image.Key()];
              torn_image = image;
              Widen(&torn_promise, promise);
            }
            return true;
          }
          out.violations.push_back("crash after op " + std::to_string(k) +
                                   " (" + subset + "): " + violation);
          return !stop_at_first;
        });
    return out;
  }

  // In every crash image that holds the WAL's checkpoint, rots each of its
  // sections in turn and recovers.
  Outcome ExploreRottedCheckpoints() {
    Outcome out;
    const std::string checkpoint = workload_.root + "/wal/checkpoint.shcp";
    Image initial;
    initial.dirs.insert(workload_.root);
    std::set<std::string> rotted_keys;
    ForEachCrashImage(
        initial, workload_.ops, workload_.root, 0, "",
        [&](size_t k, const std::string& subset, const Image& image) {
          const auto held = image.files.find(checkpoint);
          if (held == image.files.end()) return true;
          if (subset == "none") ++out.crash_points;
          const Promise promise = workload_.PromiseAt(k);
          for (size_t section = 0;; ++section) {
            std::optional<std::string> rotted = RotSection(held->second, section);
            if (!rotted) break;
            Image bad = image;
            bad.files[checkpoint] = std::move(*rotted);
            ++out.states;
            const Observation& obs = Observe(bad, workload_.root);
            if (rotted_keys.insert(bad.Key()).second) {
              out.recovered_from_log += obs.recovered_from_log;
              out.lost += obs.sections_lost;
            }
            const std::string violation =
                CheckStreams(promise, obs, /*rotted_checkpoint=*/true);
            if (!violation.empty()) {
              out.violations.push_back(
                  "crash after op " + std::to_string(k) + " (" + subset +
                  "), section " + std::to_string(section) +
                  " rotted: " + violation);
            }
          }
          return true;
        });
    return out;
  }

  // Recovers each torn image found by Explore under the recorder, crashes
  // that recovery at every point after its torn-tail cut, and recovers
  // again: the second recovery must keep every acked value and find no
  // corrupt record.
  Outcome ExploreRecoveryCrashes(const std::string& ignored_site,
                                 bool stop_at_first) {
    Outcome out;
    const std::string first = scratch_.File("first");
    const auto moved = [&](const std::string& path) {
      return first + path.substr(workload_.root.size());
    };
    for (const auto& [key, torn] : torn_) {
      const auto& [image, promise] = torn;
      Materialize(image, workload_.root, first);
      Image initial;
      std::vector<std::string> existing;
      for (const std::string& dir : image.dirs) initial.dirs.insert(moved(dir));
      for (const auto& [path, bytes] : image.files) {
        initial.files[moved(path)] = bytes;
        existing.push_back(moved(path));
      }
      RecordingFileSystem recorder(existing);
      {
        const ScopedFileSystem recording(&recorder);
        (void)Recover(first);
      }
      const std::vector<Op> ops = recorder.ops();
      const auto cut = std::find_if(ops.begin(), ops.end(), [](const Op& op) {
        return op.kind == OpKind::kTruncate;
      });
      if (cut == ops.end()) {
        out.violations.push_back("a torn image recovered without a cut");
        return out;
      }
      bool stop = false;
      ForEachCrashImage(
          initial, ops, first, static_cast<size_t>(cut - ops.begin()) + 1,
          ignored_site,
          [&](size_t k, const std::string& subset, const Image& second) {
            if (subset == "none") ++out.crash_points;
            ++out.states;
            const Observation& obs = Observe(second, first);
            std::string violation = CheckStreams(promise, obs);
            if (violation.empty() && obs.corrupt_records != 0) {
              violation = std::to_string(obs.corrupt_records) +
                          " corrupt record(s) after a crash in recovery";
            }
            if (violation.empty()) return true;
            out.violations.push_back("recovery crash after op " +
                                     std::to_string(k) + " (" + subset +
                                     "): " + violation);
            stop = stop_at_first;
            return !stop;
          });
      if (stop) break;
    }
    return out;
  }

  TestDir scratch_;
  Workload workload_;
  std::map<std::string, Observation> cache_;
  std::map<std::string, std::pair<Image, Promise>> torn_;
};

// The sync sites of the WAL, the checkpoints and fileio, as SyncSite names
// them.
const std::vector<std::string> kSyncSites = {
    "group-commit fsync",
    "segment seal fsync",
    "close fsync",
    "torn-tail cut fsync",
    "segment-create dir fsync",
    "post-truncation dir fsync",
    "log-dir create parent fsync",
    "checkpoint.shcp temp fsync",
    "checkpoint.shcp rename dir fsync",
    "SaveCheckpoint temp fsync",
    "SaveCheckpoint rename dir fsync",
};

std::string FirstFew(const std::vector<std::string>& violations) {
  std::string out;
  for (size_t i = 0; i < violations.size() && i < 5; ++i) {
    out += "\n  " + violations[i];
  }
  return out;
}

TEST_F(CrashStateTest, AckedAppendsSurviveEveryCrashState) {
  RunWorkload();
  if (HasFatalFailure()) return;
  const auto start = std::chrono::steady_clock::now();
  const Outcome outcome = Explore("", /*stop_at_first=*/false);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf(
      "crash states: %zu ops, %lld crash points, %lld states, %zu distinct "
      "images recovered in %.2f s\n",
      workload_.ops.size(), static_cast<long long>(outcome.crash_points),
      static_cast<long long>(outcome.states), cache_.size(), seconds);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.size() << " violation(s):"
      << FirstFew(outcome.violations);
  EXPECT_GE(outcome.crash_points, 100);
  // The workload rotated, truncated, and left torn tails to repair.
  EXPECT_FALSE(torn_.empty());
}

TEST_F(CrashStateTest, ACrashDuringRecoveryLeavesNoCorruptRecord) {
  RunWorkload();
  if (HasFatalFailure()) return;
  ASSERT_TRUE(Explore("", /*stop_at_first=*/true).violations.empty());
  ASSERT_FALSE(torn_.empty());
  const auto start = std::chrono::steady_clock::now();
  const Outcome outcome = ExploreRecoveryCrashes("", /*stop_at_first=*/false);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf(
      "recovery crash states: %zu torn images, %lld crash points, %lld "
      "states in %.2f s\n",
      torn_.size(), static_cast<long long>(outcome.crash_points),
      static_cast<long long>(outcome.states), seconds);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.size() << " violation(s):"
      << FirstFew(outcome.violations);
  EXPECT_GT(outcome.crash_points, 0);
}

// A checkpoint section that rotted costs only what the log no longer holds:
// the checker rots each section of every crash image's WAL checkpoint.
TEST_F(CrashStateTest, ARottedCheckpointSectionLosesOnlyWhatTheLogNoLongerHolds) {
  RunWorkload();
  if (HasFatalFailure()) return;
  const auto start = std::chrono::steady_clock::now();
  const Outcome outcome = ExploreRottedCheckpoints();
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::printf(
      "rotted checkpoints: %lld crash points, %lld states; %lld section(s) "
      "rebuilt from the log, %lld reported lost, in %.2f s\n",
      static_cast<long long>(outcome.crash_points),
      static_cast<long long>(outcome.states),
      static_cast<long long>(outcome.recovered_from_log),
      static_cast<long long>(outcome.lost), seconds);
  EXPECT_TRUE(outcome.violations.empty())
      << outcome.violations.size() << " violation(s):"
      << FirstFew(outcome.violations);
  // Both sides occur: rot before the truncation that takes the CREATEs
  // (the log rebuilds the stream), and after it (the stream is lost).
  EXPECT_GT(outcome.recovered_from_log, 0);
  EXPECT_GT(outcome.lost, 0);
}

// A scan that met a zero run where a frame should start, skipped it and
// kept decoding would replay a record written after one the crash lost.
// Recovering each image as such a scan reads it must surface a violation.
TEST_F(CrashStateTest, AScanThatSkipsAZeroRunIsCaught) {
  RunWorkload();
  if (HasFatalFailure()) return;
  const Outcome outcome =
      Explore("", /*stop_at_first=*/true, /*skip_zero_runs=*/true);
  ASSERT_FALSE(outcome.violations.empty());
  std::printf("skipping zero runs: %s\n", outcome.violations.front().c_str());
}

// Records long enough to span sectors, written back to back and made
// durable by one fsync, as a replica's batch apply writes them: a crash can
// keep a later record while a sector of an earlier one never reached the
// disk. Recovery must cut the log at the earlier record — never replay a
// later one past the hole, nor leave the damaged frame behind as rot in
// what becomes a sealed segment.
TEST_F(CrashStateTest, ASectorLostFromAnEarlierRecordCutsTheLogThere) {
  const std::string root = scratch_.File("sectors");
  std::filesystem::create_directories(root);
  wal::Options options;
  options.segment_bytes = 8 * wal::kSectorBytes;  // one fill, eight sectors
  // Non-zero payloads; LSN i + 1 carries payloads[i]. The second and the
  // fourth span sectors, and the third shares one with each of them.
  const std::vector<std::string> payloads = {
      std::string(100, 'a'), std::string(1200, 'b'), std::string(100, 'c'),
      std::string(900, 'd'), std::string(100, 'e')};
  RecordingFileSystem recorder;
  {
    const ScopedFileSystem recording(&recorder);
    Result<std::unique_ptr<wal::Wal>> log =
        wal::Wal::Open(root + "/wal", options, nullptr);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE((*log)->AppendAt(1, payloads[0]).ok());
    ASSERT_TRUE((*log)->Flush().ok());
    recorder.Mark("1");
    for (size_t i = 1; i < payloads.size(); ++i) {
      ASSERT_TRUE(
          (*log)->AppendAt(static_cast<int64_t>(i) + 1, payloads[i]).ok());
    }
    ASSERT_TRUE((*log)->Flush().ok());
    recorder.Mark(std::to_string(payloads.size()));
  }
  const std::vector<Op> ops = recorder.ops();
  const auto acked_at = [&](size_t k) -> size_t {
    for (size_t i = k; i-- > 0;) {
      if (ops[i].kind == OpKind::kMark) return std::stoul(ops[i].data);
    }
    return 0;
  };
  Image initial;
  initial.dirs.insert(root);
  int64_t states = 0;
  int64_t lost_sector_states = 0;
  std::vector<std::string> violations;
  std::map<std::string, std::pair<std::string, size_t>> recovered;
  ForEachCrashImage(
      initial, ops, root, 0, "",
      [&](size_t k, const std::string& subset, const Image& image) {
        ++states;
        if (subset.find("without sector") != std::string::npos) {
          ++lost_sector_states;
        }
        auto [it, fresh] = recovered.try_emplace(image.Key());
        auto& [violation, retained] = it->second;
        if (fresh) {
          violation = RecoverPrefix(image, root, scratch_.File("image"),
                                    options, payloads, &retained);
        }
        std::string found = violation;
        if (found.empty() && retained < acked_at(k)) {
          found = std::to_string(retained) + " record(s) retained, " +
                  std::to_string(acked_at(k)) + " acked";
        }
        if (!found.empty()) {
          violations.push_back("crash after op " + std::to_string(k) + " (" +
                               subset + "): " + found);
        }
        return true;
      });
  std::printf(
      "lost sectors: %zu ops, %lld states (%lld with a lost sector), %zu "
      "distinct images\n",
      ops.size(), static_cast<long long>(states),
      static_cast<long long>(lost_sector_states), recovered.size());
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violation(s):" << FirstFew(violations);
  EXPECT_GT(lost_sector_states, 0);
}

// Treating one class of sync as a no-op must surface as a violation, for
// every class the contract rests on. Every sync stays in the code; this
// only shows the checker would notice one going missing.
TEST_F(CrashStateTest, IgnoringAnyNeededSyncIsCaught) {
  RunWorkload();
  if (HasFatalFailure()) return;
  for (const std::string site :
       {"group-commit fsync", "segment seal fsync", "segment-create dir fsync",
        "log-dir create parent fsync", "checkpoint.shcp temp fsync",
        "SaveCheckpoint temp fsync", "SaveCheckpoint rename dir fsync"}) {
    const Outcome outcome = Explore(site, /*stop_at_first=*/true);
    EXPECT_FALSE(outcome.violations.empty()) << site;
    if (!outcome.violations.empty()) {
      std::printf("without %s: %s\n", site.c_str(),
                  outcome.violations.front().c_str());
    }
  }
  ASSERT_TRUE(Explore("", /*stop_at_first=*/true).violations.empty());
  const Outcome outcome =
      ExploreRecoveryCrashes("torn-tail cut fsync", /*stop_at_first=*/true);
  EXPECT_FALSE(outcome.violations.empty()) << "torn-tail cut fsync";
  if (!outcome.violations.empty()) {
    std::printf("without torn-tail cut fsync: %s\n",
                outcome.violations.front().c_str());
  }
}

// Every sync the storage code makes is one of the named sites (so the
// teeth above cover real code paths), and the workload reaches each WAL
// and checkpoint site. Prints, per site, whether this workload shows it
// needed.
TEST_F(CrashStateTest, EverySyncIsANamedSite) {
  RunWorkload();
  if (HasFatalFailure()) return;
  std::map<std::string, int> seen;
  for (size_t i = 0; i < workload_.ops.size(); ++i) {
    const OpKind kind = workload_.ops[i].kind;
    if (kind == OpKind::kSync || kind == OpKind::kSyncDir) {
      ++seen[SyncSite(workload_.ops, i, workload_.root)];
    }
  }
  for (const auto& [site, count] : seen) {
    EXPECT_NE(std::find(kSyncSites.begin(), kSyncSites.end(), site),
              kSyncSites.end())
        << "unnamed sync site: " << site;
  }
  for (const std::string& site : kSyncSites) {
    if (site == "torn-tail cut fsync" || site == "close fsync") continue;
    EXPECT_GT(seen[site], 0) << site << " never ran";
  }
  for (const auto& [site, count] : seen) {
    const bool needed =
        !Explore(site, /*stop_at_first=*/true).violations.empty();
    std::printf("%-34s x%-3d %s\n", site.c_str(), count,
                needed ? "needed" : "not shown needed by this workload");
  }
}

}  // namespace
}  // namespace streamhist
