// Whole-file text I/O: run reports and the JSON documents the tools write
// and read back.
#ifndef WRLTRACE_SUPPORT_FILE_H_
#define WRLTRACE_SUPPORT_FILE_H_

#include <string>

namespace wrl {

// The whole of the file at `path`.  Throws wrl::Error naming the path when
// it cannot be opened or read.
std::string ReadTextFile(const std::string& path);

// Replaces the file at `path` with `content`.  Throws wrl::Error naming the
// path unless every byte was written and the file closed cleanly, so a
// document whose buffered tail fails at close (a full disk) is never taken
// for written.
void WriteTextFile(const std::string& path, const std::string& content);

}  // namespace wrl

#endif  // WRLTRACE_SUPPORT_FILE_H_
