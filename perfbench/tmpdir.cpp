// Keeps the benchmark's files inside its own directory.
//
// The page cache creates its anonymous backing files (and their CRC
// sidecars) with mkstemp("/tmp/..."). This definition takes precedence
// over the C library's for the statically linked library code, and
// creates those files under the directory set by set_temp_dir() instead.
// The file is unlinked at once, as the library does with its own path;
// the caller's template gets a suffix mkstemp never produces, so the
// library's own unlink of that name cannot remove an unrelated file.
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <string>

extern "C" int mkostemp(char* tmpl, int flags);

namespace perfbench {
namespace {
std::string& temp_dir() {
  static std::string dir;
  return dir;
}
}  // namespace

void set_temp_dir(const std::string& dir) { temp_dir() = dir; }

}  // namespace perfbench

extern "C" int mkstemp(char* tmpl) {
  static constexpr char kTmp[] = "/tmp/";
  const std::string& dir = perfbench::temp_dir();
  if (dir.empty() || std::strncmp(tmpl, kTmp, sizeof kTmp - 1) != 0) {
    return mkostemp(tmpl, 0);
  }
  std::string path = dir + "/" + (tmpl + sizeof kTmp - 1);
  const int fd = mkostemp(path.data(), 0);
  if (fd < 0) return fd;
  ::unlink(path.c_str());
  const std::size_t len = std::strlen(tmpl);
  for (std::size_t i = len >= 6 ? len - 6 : 0; i < len; ++i) tmpl[i] = '#';
  return fd;
}
