#ifndef STREAMHIST_UTIL_FILE_SYSTEM_H_
#define STREAMHIST_UTIL_FILE_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"
#include "src/util/status.h"

namespace streamhist {
namespace fs {

/// The one seam between the storage code and the operating system's files.
/// The write-ahead log (util/wal.h) and util/fileio.h — and through fileio
/// every checkpoint the engine writes or reads — make each file operation
/// through Default(); Posix() is the only code under src/util/ that issues
/// file syscalls. Tests substitute a recording pass-through
/// (tests/recording_file_system.h) to enumerate the disk states a crash
/// could leave (tests/crash_state_test.cc).
///
/// The durability model callers are written against: a file's bytes are
/// durable once File::Sync returns; a directory entry (create, rename,
/// unlink, MakeDir) is durable once SyncDir of its directory returns. Until
/// then, any subset of the file's unsynced writes may be on disk, in any
/// order: page writeback follows page order, not write order, so a write
/// can land while an earlier one to a lower offset of the same file does
/// not.
///
/// Every write is positioned: no file is opened O_APPEND, so no caller
/// depends on where the kernel thinks the end of a file is. The WAL writes
/// each record into space it zero-filled ahead of the record, which keeps
/// a record's fsync from also committing a file-size change.

/// An open file; destroying the handle closes it. WriteAt and Sync may run
/// concurrently from different threads (the WAL's flusher syncs while an
/// appender writes).
class File {
 public:
  explicit File(std::string path) : path_(std::move(path)) {}
  virtual ~File() = default;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Writes all of `bytes` at `offset`, growing the file when they reach
  /// past its end (a gap before `offset` reads as zeros).
  virtual Status WriteAt(int64_t offset, std::string_view bytes) = 0;
  /// Replaces `out` with up to `length` bytes from `offset`: fewer when the
  /// file ends first, none when `offset` is at or past the end.
  virtual Status ReadAt(int64_t offset, int64_t length, std::string* out) = 0;
  /// Makes every byte written so far durable (fsync).
  virtual Status Sync() = 0;
  /// Cuts (or zero-extends) the file to `size` bytes.
  virtual Status Truncate(int64_t size) = 0;

  const std::string& path() const { return path_; }

 private:
  const std::string path_;
};

enum class OpenMode {
  kRead,            // an existing file, read-only
  kWrite,           // an existing file, written in place
  kCreateTruncate,  // a new file, or an existing one emptied
};

class FileSystem {
 public:
  FileSystem() = default;
  virtual ~FileSystem() = default;
  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  virtual Result<std::unique_ptr<File>> Open(const std::string& path,
                                             OpenMode mode) = 0;
  /// Atomically replaces `to` with `from`.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  /// Removes a name; kNotFound when it does not exist.
  virtual Status Unlink(const std::string& path) = 0;
  /// The entry names in `dir`, without "." and "..", in no set order.
  virtual Result<std::vector<std::string>> List(const std::string& dir) = 0;
  /// Creates `dir`: true when this call made it, false when it existed.
  virtual Result<bool> MakeDir(const std::string& dir) = 0;
  /// Makes the entries of directory `dir` durable.
  virtual Status SyncDir(const std::string& dir) = 0;
};

/// The POSIX implementation.
FileSystem& Posix();

/// What every storage path uses: Posix() unless a test substituted another.
FileSystem& Default();

/// Test seam: routes later Default() calls to `fs` (null restores Posix()).
/// Files opened before keep the file system they were opened through.
void SetFileSystemForTest(FileSystem* fs);

/// The directory part of `path` ("." when it has none).
std::string DirName(const std::string& path);

}  // namespace fs
}  // namespace streamhist

#endif  // STREAMHIST_UTIL_FILE_SYSTEM_H_
