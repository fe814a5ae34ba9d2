// A private scratch directory for one process: created with mkdtemp under
// $TMPDIR (else /tmp) and removed recursively on destruction. Processes that
// run side by side — `ctest -j`, a test binary and its CLAIR_THREADS twin, a
// bench next to an example — each get their own, so none can truncate or
// delete another's files.
#ifndef SRC_SUPPORT_SCRATCH_DIR_H_
#define SRC_SUPPORT_SCRATCH_DIR_H_

#include <string>
#include <string_view>

namespace support {

class ScratchDir {
 public:
  // Creates `<tmp>/<prefix>.XXXXXX`; aborts when the directory cannot be
  // created (nothing sensible can run without it).
  explicit ScratchDir(std::string_view prefix = "clair");
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  // `path()/name`.
  std::string File(std::string_view name) const;

 private:
  std::string path_;
};

}  // namespace support

#endif  // SRC_SUPPORT_SCRATCH_DIR_H_
