#ifndef STREAMHIST_TESTS_RECORDING_FILE_SYSTEM_H_
#define STREAMHIST_TESTS_RECORDING_FILE_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/file_system.h"

namespace streamhist {

/// A fs::FileSystem for tests that passes every call through to fs::Posix()
/// and logs, in call order, each operation that changes what is on disk.
/// Install it with fs::SetFileSystemForTest. Thread-safe: the WAL's flusher
/// syncs from its own thread while the test thread appends.
///
/// Files are identified by an inode number the recorder assigns, so a write
/// through a handle still reaches "its" file after a rename or an unlink —
/// which is what a crash-state model needs to replay the log.
class RecordingFileSystem final : public fs::FileSystem {
 public:
  enum class OpKind {
    kCreate,    // a new name `path` -> `inode` (a directory entry)
    kMkdir,     // a new directory `path` (a directory entry)
    kRename,    // `path` renamed over `to` (a directory entry)
    kUnlink,    // `path` removed (a directory entry)
    kWrite,     // `data` written to `inode` at `offset`
    kTruncate,  // `inode` cut to `size` bytes
    kSync,      // `inode` fsynced (`path` is the name it was opened by)
    kSyncDir,   // directory `path` fsynced
    kMark,      // a label the test logged between operations (`data`)
  };

  struct Op {
    OpKind kind = OpKind::kMark;
    std::string path;
    std::string to;
    int64_t inode = -1;
    std::string data;
    int64_t offset = 0;  // kWrite: where `data` starts
    // kTruncate: the new length. kSync/kSyncDir: the log length when the
    // sync started — it covers only the operations logged before that.
    int64_t size = 0;
    std::thread::id thread;
  };

  /// `existing` names the files already on disk when recording starts;
  /// they get inodes 0, 1, ... in the order given.
  explicit RecordingFileSystem(const std::vector<std::string>& existing = {}) {
    for (const std::string& path : existing) names_[path] = next_inode_++;
  }

  /// Logs a label between operations (acks, checkpoint boundaries, ...).
  void Mark(std::string label) {
    Op op = MakeOp(OpKind::kMark, "", -1);
    op.data = std::move(label);
    Log(std::move(op));
  }

  std::vector<Op> ops() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }

  /// Bytes returned by File::ReadAt through this file system so far.
  int64_t bytes_read() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return bytes_read_;
  }

  Result<std::unique_ptr<fs::File>> Open(const std::string& path,
                                         fs::OpenMode mode) override {
    Result<std::unique_ptr<fs::File>> opened = fs::Posix().Open(path, mode);
    if (!opened.ok()) return opened.status();
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = names_.find(path);
    const bool exists = it != names_.end();
    int64_t inode = exists ? it->second : next_inode_++;
    if (mode == fs::OpenMode::kCreateTruncate && !exists) {
      names_[path] = inode;
      ops_.push_back(MakeOp(OpKind::kCreate, path, inode));
    } else if (mode == fs::OpenMode::kCreateTruncate) {
      ops_.push_back(MakeOp(OpKind::kTruncate, path, inode));
    } else if (!exists) {
      names_[path] = inode;  // opened by name, never seen created
    }
    return std::unique_ptr<fs::File>(
        new RecordingFile(this, std::move(opened).value(), inode));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    STREAMHIST_RETURN_NOT_OK(fs::Posix().Rename(from, to));
    const std::lock_guard<std::mutex> lock(mu_);
    Op op = MakeOp(OpKind::kRename, from, -1);
    op.to = to;
    const auto it = names_.find(from);
    if (it != names_.end()) {
      names_[to] = it->second;
      names_.erase(from);
    }
    ops_.push_back(std::move(op));
    return Status::OK();
  }

  Status Unlink(const std::string& path) override {
    STREAMHIST_RETURN_NOT_OK(fs::Posix().Unlink(path));
    const std::lock_guard<std::mutex> lock(mu_);
    names_.erase(path);
    ops_.push_back(MakeOp(OpKind::kUnlink, path, -1));
    return Status::OK();
  }

  Result<std::vector<std::string>> List(const std::string& dir) override {
    return fs::Posix().List(dir);
  }

  Result<bool> MakeDir(const std::string& dir) override {
    Result<bool> made = fs::Posix().MakeDir(dir);
    if (made.ok() && *made) Log(MakeOp(OpKind::kMkdir, dir, -1));
    return made;
  }

  Status SyncDir(const std::string& dir) override {
    Op op = MakeOp(OpKind::kSyncDir, dir, -1);
    op.size = LogSize();
    STREAMHIST_RETURN_NOT_OK(fs::Posix().SyncDir(dir));
    Log(std::move(op));
    return Status::OK();
  }

 private:
  class RecordingFile final : public fs::File {
   public:
    RecordingFile(RecordingFileSystem* owner, std::unique_ptr<fs::File> inner,
                  int64_t inode)
        : fs::File(inner->path()),
          owner_(owner),
          inner_(std::move(inner)),
          inode_(inode) {}

    Status WriteAt(int64_t offset, std::string_view bytes) override {
      STREAMHIST_RETURN_NOT_OK(inner_->WriteAt(offset, bytes));
      Op op = MakeOp(OpKind::kWrite, path(), inode_);
      op.data.assign(bytes);
      op.offset = offset;
      owner_->Log(std::move(op));
      return Status::OK();
    }

    Status ReadAt(int64_t offset, int64_t length, std::string* out) override {
      STREAMHIST_RETURN_NOT_OK(inner_->ReadAt(offset, length, out));
      const std::lock_guard<std::mutex> lock(owner_->mu_);
      owner_->bytes_read_ += static_cast<int64_t>(out->size());
      return Status::OK();
    }

    Status Sync() override {
      Op op = MakeOp(OpKind::kSync, path(), inode_);
      op.size = owner_->LogSize();
      STREAMHIST_RETURN_NOT_OK(inner_->Sync());
      owner_->Log(std::move(op));
      return Status::OK();
    }

    Status Truncate(int64_t size) override {
      STREAMHIST_RETURN_NOT_OK(inner_->Truncate(size));
      Op op = MakeOp(OpKind::kTruncate, path(), inode_);
      op.size = size;
      owner_->Log(std::move(op));
      return Status::OK();
    }

   private:
    RecordingFileSystem* const owner_;
    const std::unique_ptr<fs::File> inner_;
    const int64_t inode_;
  };

  static Op MakeOp(OpKind kind, const std::string& path, int64_t inode) {
    Op op;
    op.kind = kind;
    op.path = path;
    op.inode = inode;
    op.thread = std::this_thread::get_id();
    return op;
  }

  int64_t LogSize() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(ops_.size());
  }

  void Log(Op op) {
    const std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(std::move(op));
  }

  mutable std::mutex mu_;
  std::vector<Op> ops_;
  std::map<std::string, int64_t> names_;  // live name -> inode
  int64_t next_inode_ = 0;
  int64_t bytes_read_ = 0;
};

/// Routes fs::Default() to `fs` for the guard's lifetime.
class ScopedFileSystem {
 public:
  explicit ScopedFileSystem(fs::FileSystem* fs) {
    fs::SetFileSystemForTest(fs);
  }
  ~ScopedFileSystem() { fs::SetFileSystemForTest(nullptr); }
  ScopedFileSystem(const ScopedFileSystem&) = delete;
  ScopedFileSystem& operator=(const ScopedFileSystem&) = delete;
};

}  // namespace streamhist

#endif  // STREAMHIST_TESTS_RECORDING_FILE_SYSTEM_H_
