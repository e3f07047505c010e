#include "support/file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/error.h"

namespace wrl {
namespace {

[[noreturn]] void Fail(const char* action, const std::string& path) {
  throw Error(std::string("cannot ") + action + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

std::string ReadTextFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    Fail("read", path);
  }
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    content.append(buffer, n);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    Fail("read", path);
  }
  return content;
}

void WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    Fail("write", path);
  }
  const bool written = std::fwrite(content.data(), 1, content.size(), file) == content.size();
  if (std::fclose(file) != 0 || !written) {
    Fail("write", path);
  }
}

}  // namespace wrl
