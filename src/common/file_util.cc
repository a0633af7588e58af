#include "common/file_util.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace hido {

namespace {

std::atomic<int> g_write_failpoint{
    static_cast<int>(internal::WriteFailStep::kNone)};

// Consumes the one-shot failpoint if it is armed for `step`.
bool FailpointFires(internal::WriteFailStep step) {
  int expected = static_cast<int>(step);
  return g_write_failpoint.compare_exchange_strong(
      expected, static_cast<int>(internal::WriteFailStep::kNone),
      std::memory_order_relaxed);
}

}  // namespace

namespace internal {

void ArmWriteFailpointForTest(WriteFailStep step) {
  g_write_failpoint.store(static_cast<int>(step),
                          std::memory_order_relaxed);
}

}  // namespace internal

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open for reading: " + path);
  }
  // Reads straight into one buffer sized up front; a pipe has no size and
  // simply grows it.
  std::string content;
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) content.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    content.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::IoError("read failure: " + path);
  }
  return content;
}

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  Status failure = Status::Ok();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      // Nothing was created, so there is no temporary to clean up.
      return Status::IoError("cannot open for writing: " + tmp);
    }
    if (FailpointFires(internal::WriteFailStep::kOpen)) {
      failure = Status::IoError("cannot open for writing: " + tmp +
                                " (failpoint)");
    } else {
      out << content;
      out.flush();
      if (!out || FailpointFires(internal::WriteFailStep::kWrite)) {
        failure = Status::IoError("write failure: " + tmp);
      }
    }
    // The stream closes here, before any remove: deleting a still-open
    // file is undefined on non-POSIX platforms and previously left the
    // stale `.tmp` behind exactly on the failure paths that needed the
    // cleanup most.
  }
  if (!failure.ok()) {
    std::remove(tmp.c_str());
    return failure;
  }
  if (FailpointFires(internal::WriteFailStep::kRename) ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failure: " + tmp + " -> " + path);
  }
  return Status::Ok();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

}  // namespace hido
