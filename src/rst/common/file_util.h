#ifndef RST_COMMON_FILE_UTIL_H_
#define RST_COMMON_FILE_UTIL_H_

#include <string>
#include <string_view>

#include "rst/common/status.h"

namespace rst {

/// Writes `content` to `path`, truncating. Errors (unwritable directory,
/// permission denied, disk full on flush) come back as a Status carrying the
/// path and the errno text — callers surface it instead of silently dropping
/// output.
Status WriteStringToFile(const std::string& path, std::string_view content);

/// Crash-atomic variant: writes to `<path>.tmp.<pid>` in the same directory,
/// then renames over `path`. An interrupted run leaves either the old file
/// or the new one — never a truncated hybrid — so downstream consumers of
/// metrics/trace artifacts (bench_diff, CI gates) can't read a
/// half-written document. The temp file is removed on any failure.
Status WriteStringToFileAtomic(const std::string& path,
                               std::string_view content);

/// Reads the whole file into a string; NotFound/InvalidArgument with the
/// path and errno text on failure.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace rst

#endif  // RST_COMMON_FILE_UTIL_H_
