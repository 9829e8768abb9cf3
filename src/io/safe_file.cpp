#include "io/safe_file.h"

#include <fcntl.h>
#include <unistd.h>
#include <zlib.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>

#include "io/fault_injection.h"

namespace mpcf::io {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Directory component of `path` ("." when none), for the post-rename fsync.
std::string parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

SafeFile::SafeFile(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  // First SafeFile in the process picks up MPCF_IO_FAULT, so the knob works
  // for examples/benches without any code; tests re-arm programmatically.
  static const bool env_armed = []() {
    fault::arm_from_env();
    return true;
  }();
  (void)env_armed;
  fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw_errno("SafeFile: cannot open " + tmp_path_);
}

SafeFile::~SafeFile() {
  // Abandoned file: the temp is being thrown away, nothing to make durable,
  // and destructors cannot report anyway.
  if (fd_ >= 0) (void)::close(fd_);
  if (!committed_ && !crashed_) ::unlink(tmp_path_.c_str());
}

void SafeFile::write(const void* p, std::size_t n) {
  pwrite_at(written_, p, n);
  written_ += n;
}

void SafeFile::skip(std::uint64_t n) {
  require(fd_ >= 0 && !committed_, "SafeFile: skip after commit");
  written_ += n;
}

void SafeFile::write_at(std::uint64_t offset, const void* p, std::size_t n) {
  require(offset <= written_ && n <= written_ - offset,
          "SafeFile: write_at past the end of " + tmp_path_);
  pwrite_at(offset, p, n);
}

void SafeFile::pwrite_at(std::uint64_t offset, const void* p, std::size_t n) {
  require(fd_ >= 0 && !committed_, "SafeFile: write after commit");
  std::size_t torn = 0;
  const fault::WriteFault injected = fault::on_write(n, &torn);
  if (injected == fault::WriteFault::kEnospc)
    throw IoError("SafeFile: write failed on " + tmp_path_ +
                  ": No space left on device (injected)");
  if (injected == fault::WriteFault::kTorn) n = torn;

  const auto* bytes = static_cast<const std::uint8_t*>(p);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t got = ::pwrite(fd_, bytes + done, n - done, static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("SafeFile: write failed on " + tmp_path_);
    }
    done += static_cast<std::size_t>(got);
  }

  if (injected == fault::WriteFault::kTorn) {
    // Simulate the process dying mid-write: the half-written temp file
    // stays on disk exactly as a crash would leave it.
    crashed_ = true;
    // Simulated crash path: the file is deliberately left torn, a close
    // failure on top changes nothing.
    (void)::close(fd_);
    fd_ = -1;
    throw IoError("SafeFile: torn write on " + tmp_path_ + " (injected crash)");
  }
}

void SafeFile::commit() {
  require(fd_ >= 0 && !committed_, "SafeFile: commit without an open file");
  if (::fsync(fd_) != 0) throw_errno("SafeFile: fsync failed on " + tmp_path_);
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw_errno("SafeFile: close failed on " + tmp_path_);
  }
  fd_ = -1;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0)
    throw_errno("SafeFile: rename to " + path_ + " failed");
  committed_ = true;
  // Post-commit corruption (bit-rot, lost tail) lands on the final file.
  fault::on_commit(path_);
  // Persist the rename itself; best-effort (not all filesystems support
  // directory fsync) — the data blocks are already durable.
  const int dirfd = ::open(parent_dir(path_).c_str(), O_RDONLY | O_DIRECTORY);
  if (dirfd >= 0) {
    // Best-effort by design (comment above): a dirfd fsync/close failure
    // must not fail an already-durable commit.
    (void)::fsync(dirfd);
    (void)::close(dirfd);  // read-only directory fd, nothing to flush
  }
}

void Cursor::read(void* dst, std::size_t n) {
  require(n <= size_ - off_, "Cursor: truncated file (read past end of buffer)");
  if (n > 0) std::memcpy(dst, data_ + off_, n);  // dst may be null when n is 0
  off_ += n;
}

void Cursor::skip(std::size_t n) {
  require(n <= size_ - off_, "Cursor: truncated file (skip past end of buffer)");
  off_ += n;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  require(!ec, "read_file: cannot stat " + path);
  require(size <= std::numeric_limits<std::size_t>::max(),
          "read_file: file too large for address space: " + path);

  struct FileCloser {
    void operator()(std::FILE* f) const {
      if (f) std::fclose(f);
    }
  };
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  require(f != nullptr, "read_file: cannot open " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (!bytes.empty())
    require(std::fread(bytes.data(), 1, bytes.size(), f.get()) == bytes.size(),
            "read_file: short read on " + path);
  return bytes;
}

std::uint32_t crc32_bytes(const void* p, std::size_t n, std::uint32_t seed) {
  const auto* bytes = static_cast<const Bytef*>(p);
  uLong crc = seed;
  while (n > 0) {
    const uInt chunk =
        n > 0x40000000u ? 0x40000000u : static_cast<uInt>(n);  // 1 GiB chunks
    crc = ::crc32(crc, bytes, chunk);
    bytes += chunk;
    n -= chunk;
  }
  return static_cast<std::uint32_t>(crc);
}

}  // namespace mpcf::io
