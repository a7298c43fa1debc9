#include "src/util/file_system.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace streamhist {
namespace fs {
namespace {

std::string ErrnoMessage(const char* op, const std::string& path) {
  return std::string(op) + " failed for '" + path +
         "': " + std::strerror(errno);
}

Status Errno(const char* op, const std::string& path) {
  return Status::IOError(ErrnoMessage(op, path));
}

class PosixFile final : public File {
 public:
  PosixFile(std::string path, int fd) : File(std::move(path)), fd_(fd) {}
  ~PosixFile() override { ::close(fd_); }

  Status WriteAt(int64_t offset, std::string_view bytes) override {
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::pwrite(fd_, bytes.data() + done, bytes.size() - done,
                   static_cast<off_t>(offset + static_cast<int64_t>(done)));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path());
      }
      done += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status ReadAt(int64_t offset, int64_t length, std::string* out) override {
    out->clear();
    char buf[64 * 1024];
    while (static_cast<int64_t>(out->size()) < length) {
      const int64_t want = std::min<int64_t>(
          static_cast<int64_t>(sizeof(buf)),
          length - static_cast<int64_t>(out->size()));
      const ssize_t n = ::pread(
          fd_, buf, static_cast<size_t>(want),
          static_cast<off_t>(offset + static_cast<int64_t>(out->size())));
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("read", path());
      }
      if (n == 0) break;
      out->append(buf, static_cast<size_t>(n));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return Errno("fsync", path());
    return Status::OK();
  }

  Status Truncate(int64_t size) override {
    if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
      return Errno("ftruncate", path());
    }
    return Status::OK();
  }

 private:
  const int fd_;
};

class PosixFileSystem final : public FileSystem {
 public:
  Result<std::unique_ptr<File>> Open(const std::string& path,
                                     OpenMode mode) override {
    // No mode appends: every write names its offset (File::WriteAt).
    int flags = O_CLOEXEC;
    switch (mode) {
      case OpenMode::kRead:
        flags |= O_RDONLY;
        break;
      case OpenMode::kWrite:
        flags |= O_WRONLY;
        break;
      case OpenMode::kCreateTruncate:
        flags |= O_WRONLY | O_CREAT | O_TRUNC;
        break;
    }
    const int fd = ::open(path.c_str(), flags, 0666);
    if (fd < 0) return Errno("open", path);
    return std::unique_ptr<File>(new PosixFile(path, fd));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
    return Status::OK();
  }

  Status Unlink(const std::string& path) override {
    if (::unlink(path.c_str()) == 0) return Status::OK();
    if (errno != ENOENT) return Errno("unlink", path);
    return Status::NotFound(ErrnoMessage("unlink", path));
  }

  Result<std::vector<std::string>> List(const std::string& dir) override {
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return Errno("opendir", dir);
    std::vector<std::string> names;
    while (const struct dirent* ent = ::readdir(d)) {
      const std::string_view name(ent->d_name);
      if (name != "." && name != "..") names.emplace_back(name);
    }
    ::closedir(d);
    return names;
  }

  Result<bool> MakeDir(const std::string& dir) override {
    if (::mkdir(dir.c_str(), 0777) == 0) return true;
    if (errno == EEXIST) return false;
    return Errno("mkdir", dir);
  }

  Status SyncDir(const std::string& dir) override {
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return Errno("open directory", dir);
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Errno("fsync directory", dir);
    return Status::OK();
  }
};

std::atomic<FileSystem*> g_override{nullptr};

}  // namespace

FileSystem& Posix() {
  static PosixFileSystem posix;
  return posix;
}

FileSystem& Default() {
  FileSystem* fs = g_override.load(std::memory_order_acquire);
  return fs != nullptr ? *fs : Posix();
}

void SetFileSystemForTest(FileSystem* fs) {
  g_override.store(fs, std::memory_order_release);
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash == 0 ? 1 : slash);
}

}  // namespace fs
}  // namespace streamhist
