#include "src/util/fileio.h"

#include <limits>
#include <memory>

#include "src/util/fault.h"
#include "src/util/file_system.h"

namespace streamhist {

namespace {

Status InjectedFault(const char* point) {
  return Status::IOError(std::string("injected fault: ") + point);
}

// Writes `bytes` to the temp file `file`, makes them durable, and renames
// the temp file over `path`. The handle is closed before the rename.
Status WriteSyncRename(fs::FileSystem& disk, std::unique_ptr<fs::File> file,
                       std::string_view bytes, const std::string& path) {
  const std::string tmp = file->path();
  STREAMHIST_RETURN_NOT_OK(file->WriteAt(0, bytes));
  if (fault::Triggered("fileio.fsync")) {
    return InjectedFault("fileio.fsync");
  }
  // Same failure as fileio.fsync, separately named so a finite fire budget
  // ("fileio.fsync.transient:2") can model a fault that heals while a retry
  // loop (QueryEngine::SaveCheckpoint) is still willing to try again.
  if (fault::Triggered("fileio.fsync.transient")) {
    return InjectedFault("fileio.fsync.transient");
  }
  STREAMHIST_RETURN_NOT_OK(file->Sync());
  file.reset();
  if (fault::Triggered("fileio.rename")) {
    return InjectedFault("fileio.rename");
  }
  return disk.Rename(tmp, path);
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  fs::FileSystem& disk = fs::Default();
  const std::string tmp = path + ".tmp";
  STREAMHIST_ASSIGN_OR_RETURN(
      std::unique_ptr<fs::File> file,
      disk.Open(tmp, fs::OpenMode::kCreateTruncate));
  if (fault::Triggered("fileio.short_write")) {
    // Simulate a crash / ENOSPC mid-write: half the bytes land, the temp
    // file is abandoned, the destination is untouched.
    (void)file->WriteAt(0, bytes.substr(0, bytes.size() / 2));
    return InjectedFault("fileio.short_write");
  }
  if (Status s = WriteSyncRename(disk, std::move(file), bytes, path); !s.ok()) {
    (void)disk.Unlink(tmp);
    return s;
  }
  // The rename itself is durable only once the directory is.
  return disk.SyncDir(fs::DirName(path));
}

Result<std::string> ReadFileToString(const std::string& path) {
  Result<std::unique_ptr<fs::File>> file =
      fs::Default().Open(path, fs::OpenMode::kRead);
  if (!file.ok()) {
    return Status::IOError("cannot open for reading: " + path);
  }
  std::string bytes;
  if (!(*file)->ReadAt(0, std::numeric_limits<int64_t>::max(), &bytes).ok()) {
    return Status::IOError("read failed: " + path);
  }
  if (!bytes.empty() && fault::Triggered("fileio.read.bitflip")) {
    bytes[bytes.size() / 2] ^= 0x08;  // deterministic single-bit flip
  }
  if (fault::Triggered("fileio.read.truncate")) {
    bytes.resize(bytes.size() / 2);
  }
  return bytes;
}

}  // namespace streamhist
