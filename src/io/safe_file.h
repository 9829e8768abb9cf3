// Crash-safe, integrity-checked I/O primitives shared by every on-disk
// format in the repository (checkpoints, compressed quantity dumps).
//
// SafeFile makes file creation atomic: all bytes go to `<path>.tmp`, and
// only commit() — flush, fsync, rename(2), parent-directory fsync — makes
// the data visible at the final path. A crash (or an injected fault, see
// io/fault_injection.h) at any earlier point leaves the final path either
// absent or fully intact from the previous version; readers can never
// observe a half-written file under its real name. An uncommitted SafeFile
// unlinks its temp file on destruction.
//
// Cursor is the read-side counterpart: a bounds-checked view over an
// in-memory byte image. Every get<T>() validates against the remaining
// bytes, so truncated or corrupted fields fail with a clean
// PreconditionError instead of out-of-bounds reads.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace mpcf::io {

class SafeFile {
 public:
  /// Opens `<path>.tmp` for writing; throws IoError on failure.
  explicit SafeFile(std::string path);
  /// Uncommitted: closes and unlinks the temp file (unless an injected
  /// torn-write "crash" asked for it to be left behind, as a real crash
  /// would). Never throws.
  ~SafeFile();
  SafeFile(const SafeFile&) = delete;
  SafeFile& operator=(const SafeFile&) = delete;

  /// Appends n bytes; throws IoError on failure (incl. injected faults).
  void write(const void* p, std::size_t n);

  /// Moves the end of the file n bytes on without writing them; write_at
  /// fills the hole before the commit.
  void skip(std::uint64_t n);

  /// Writes n bytes at `offset`, below the end of the file, which stays
  /// where it is; the same fault hooks as write() apply.
  void write_at(std::uint64_t offset, const void* p, std::size_t n);

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&v, sizeof(T));
  }

  /// Flush + fsync + atomic rename to the final path + parent-dir fsync.
  /// Throws IoError on failure; the final path is untouched unless every
  /// step succeeded.
  void commit();

  /// The end of the file: every byte appended or skipped.
  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return written_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] const std::string& tmp_path() const noexcept { return tmp_path_; }

 private:
  /// pwrite(2) of n bytes at `offset` through the fault hooks.
  void pwrite_at(std::uint64_t offset, const void* p, std::size_t n);

  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  std::uint64_t written_ = 0;
  bool committed_ = false;
  bool crashed_ = false;  ///< injected torn write: leave the temp file behind
};

/// Bounds-checked reader over an in-memory byte buffer (does not own it).
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Cursor(const std::vector<std::uint8_t>& bytes)
      : Cursor(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - off_; }

  /// Copies n bytes from the current position; throws PreconditionError if
  /// fewer remain.
  void read(void* dst, std::size_t n);

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    read(&v, sizeof(T));
    return v;
  }

  void skip(std::size_t n);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
};

/// Reads a whole file with 64-bit-safe size handling (no long/ftell
/// truncation for >= 2 GiB files); throws PreconditionError on open/stat/
/// read failure.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// zlib CRC32 over a byte range, chunked so sizes beyond uInt are safe.
[[nodiscard]] std::uint32_t crc32_bytes(const void* p, std::size_t n,
                                        std::uint32_t seed = 0);

/// Appends the raw bytes of a trivially-copyable value to a byte buffer
/// (little-endian on-disk layout via host order, as all formats here).
template <typename T>
void put_bytes(std::vector<std::uint8_t>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

}  // namespace mpcf::io
