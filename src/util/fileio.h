#ifndef STREAMHIST_UTIL_FILEIO_H_
#define STREAMHIST_UTIL_FILEIO_H_

#include <string>
#include <string_view>

#include "src/util/result.h"
#include "src/util/status.h"

namespace streamhist {

/// Durably replaces the file at `path` with `bytes`: writes to a temp file
/// in the same directory, fsyncs it, renames it over `path`, and fsyncs the
/// directory. A crash at any step leaves either the old complete file or the
/// new complete file — never a torn mix — which is the invariant the
/// checkpoint subsystem's crash-safety guarantee rests on.
///
/// Both functions here go through fs::Default() (util/file_system.h).
///
/// Fault points (util/fault.h): fileio.short_write, fileio.fsync,
/// fileio.fsync.transient, fileio.rename.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);

/// Reads the whole file into a string. Fault points: fileio.read.bitflip,
/// fileio.read.truncate (corrupt the returned bytes to simulate media rot —
/// downstream parsers must cope).
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace streamhist

#endif  // STREAMHIST_UTIL_FILEIO_H_
