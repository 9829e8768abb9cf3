// Test-side codec of the container layout (io/container.h), independent of
// the library's reader and writer: parses a file image into editable
// fields, and builds an image back with its directory offsets, blob CRCs
// and header CRC recomputed. Tests use it to plant field-level corruption
// under intact checksums, so that the reader's own checks must reject it.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "io/container.h"
#include "io/safe_file.h"

namespace mpcf::test {

/// Magic, header CRC, kind, shape, blob count, pad, directory bytes, record.
inline constexpr std::size_t kImageHeader = 80;
/// A directory entry without its ids.
inline constexpr std::size_t kImageEntry = 32;

struct ImageEntry {
  std::uint64_t offset = 0, size = 0, raw = 0;
  std::uint32_t crc = 0;
  std::vector<std::uint32_t> ids;
};

struct ContainerImage {
  std::array<char, 8> magic{};
  std::uint32_t kind = 0;
  std::int32_t bx = 0, by = 0, bz = 0, bs = 0;
  std::array<std::uint8_t, 32> record{};
  std::vector<ImageEntry> entries;
  std::vector<std::vector<std::uint8_t>> blobs;  ///< stored bytes, directory order
};

template <typename T>
T load_field(const std::vector<std::uint8_t>& f, std::size_t at) {
  T v{};
  std::memcpy(&v, f.data() + at, sizeof(T));
  return v;
}

template <typename T>
void store_field(std::vector<std::uint8_t>& f, std::size_t at, T v) {
  std::memcpy(f.data() + at, &v, sizeof(T));
}

/// Start of the blob area of a well-formed image.
inline std::size_t blob_area(const std::vector<std::uint8_t>& f) {
  return kImageHeader + static_cast<std::size_t>(load_field<std::uint64_t>(f, 40));
}

/// Parses a well-formed image written by the library.
inline ContainerImage parse_image(const std::vector<std::uint8_t>& f) {
  ContainerImage img;
  std::memcpy(img.magic.data(), f.data(), 8);
  img.kind = load_field<std::uint32_t>(f, 12);
  img.bx = load_field<std::int32_t>(f, 16);
  img.by = load_field<std::int32_t>(f, 20);
  img.bz = load_field<std::int32_t>(f, 24);
  img.bs = load_field<std::int32_t>(f, 28);
  std::memcpy(img.record.data(), f.data() + 48, 32);
  const auto n = load_field<std::uint32_t>(f, 32);
  std::size_t at = kImageHeader;
  for (std::uint32_t k = 0; k < n; ++k) {
    ImageEntry e;
    e.offset = load_field<std::uint64_t>(f, at);
    e.size = load_field<std::uint64_t>(f, at + 8);
    e.raw = load_field<std::uint64_t>(f, at + 16);
    e.crc = load_field<std::uint32_t>(f, at + 24);
    e.ids.resize(load_field<std::uint32_t>(f, at + 28));
    std::memcpy(e.ids.data(), f.data() + at + kImageEntry, e.ids.size() * 4);
    at += kImageEntry + 4 * e.ids.size();
    img.blobs.emplace_back(f.begin() + static_cast<std::ptrdiff_t>(e.offset),
                           f.begin() + static_cast<std::ptrdiff_t>(e.offset + e.size));
    img.entries.push_back(std::move(e));
  }
  return img;
}

/// Recomputes the header CRC over [12, blob area) where the directory lies
/// inside the image; safe on any bytes.
inline void reseal_header(std::vector<std::uint8_t>& f) {
  if (f.size() < kImageHeader) return;
  const auto dir_bytes = load_field<std::uint64_t>(f, 40);
  if (dir_bytes > f.size() - kImageHeader) return;
  store_field(f, 8, io::crc32_bytes(f.data() + 12, kImageHeader - 12 + dir_bytes));
}

/// Recomputes every blob CRC whose entry and window lie inside the image,
/// then the header CRC; safe on any bytes.
inline void reseal(std::vector<std::uint8_t>& f) {
  if (f.size() < kImageHeader) return;
  const auto dir_bytes = load_field<std::uint64_t>(f, 40);
  if (dir_bytes > f.size() - kImageHeader) return;
  const std::size_t dir_end = kImageHeader + static_cast<std::size_t>(dir_bytes);
  const auto n = load_field<std::uint32_t>(f, 32);
  std::size_t at = kImageHeader;
  for (std::uint32_t k = 0; k < n && at + kImageEntry <= dir_end; ++k) {
    const auto offset = load_field<std::uint64_t>(f, at);
    const auto size = load_field<std::uint64_t>(f, at + 8);
    if (size <= f.size() && offset <= f.size() - size)
      store_field(f, at + 24, io::crc32_bytes(f.data() + offset, static_cast<std::size_t>(size)));
    const auto nids = load_field<std::uint32_t>(f, at + 28);
    if (nids > (dir_end - at - kImageEntry) / 4) break;
    at += kImageEntry + 4 * std::size_t{nids};
  }
  reseal_header(f);
}

/// Builds an image: blobs back to back after the directory, offsets, blob
/// CRCs and the header CRC computed from the fields.
inline std::vector<std::uint8_t> build_image(const ContainerImage& img) {
  std::vector<std::uint8_t> dir;
  std::uint64_t offset = kImageHeader;
  for (const ImageEntry& e : img.entries) offset += kImageEntry + 4 * e.ids.size();
  for (std::size_t k = 0; k < img.entries.size(); ++k) {
    const ImageEntry& e = img.entries[k];
    const std::vector<std::uint8_t>& blob = img.blobs[k];
    io::put_bytes(dir, offset);
    io::put_bytes(dir, static_cast<std::uint64_t>(blob.size()));
    io::put_bytes(dir, e.raw);
    io::put_bytes(dir, io::crc32_bytes(blob.data(), blob.size()));
    io::put_bytes(dir, static_cast<std::uint32_t>(e.ids.size()));
    for (const std::uint32_t id : e.ids) io::put_bytes(dir, id);
    offset += blob.size();
  }
  std::vector<std::uint8_t> f(img.magic.begin(), img.magic.end());
  io::put_bytes(f, std::uint32_t{0});
  io::put_bytes(f, img.kind);
  for (const std::int32_t v : {img.bx, img.by, img.bz, img.bs}) io::put_bytes(f, v);
  io::put_bytes(f, static_cast<std::uint32_t>(img.entries.size()));
  io::put_bytes(f, std::uint32_t{0});
  io::put_bytes(f, static_cast<std::uint64_t>(dir.size()));
  f.insert(f.end(), img.record.begin(), img.record.end());
  f.insert(f.end(), dir.begin(), dir.end());
  for (const auto& blob : img.blobs) f.insert(f.end(), blob.begin(), blob.end());
  reseal_header(f);
  return f;
}

/// The image of a container with `header` over `blobs` (their sizes,
/// offsets and CRCs recomputed): what the library's writer must produce for
/// the blobs its in-memory encoders return.
inline std::vector<std::uint8_t> image_of(const io::ContainerHeader& header,
                                          const std::vector<io::Blob>& blobs) {
  ContainerImage img;
  std::memcpy(img.magic.data(), "MPCFCNT1", 8);
  img.kind = static_cast<std::uint32_t>(header.kind);
  img.bx = header.bx;
  img.by = header.by;
  img.bz = header.bz;
  img.bs = header.bs;
  img.record = header.record;
  for (const io::Blob& b : blobs) {
    ImageEntry e;
    e.raw = b.entry.raw_size;
    e.ids = b.entry.ids;
    img.entries.push_back(std::move(e));
    std::vector<std::uint8_t> bytes;
    for (const auto& piece : b.pieces) bytes.insert(bytes.end(), piece.begin(), piece.end());
    img.blobs.push_back(std::move(bytes));
  }
  return build_image(img);
}

}  // namespace mpcf::test
