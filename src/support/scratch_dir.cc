#include "src/support/scratch_dir.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

namespace support {

ScratchDir::ScratchDir(std::string_view prefix) {
  const char* tmp = std::getenv("TMPDIR");
  std::string pattern = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  pattern += "/";
  pattern += prefix;
  pattern += ".XXXXXX";
  std::vector<char> buffer(pattern.begin(), pattern.end());
  buffer.push_back('\0');
  if (::mkdtemp(buffer.data()) == nullptr) {
    std::perror(pattern.c_str());
    std::abort();
  }
  path_ = buffer.data();
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

std::string ScratchDir::File(std::string_view name) const {
  std::string file = path_;
  file += "/";
  file += name;
  return file;
}

}  // namespace support
