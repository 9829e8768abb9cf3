#include "io/compressed_file.h"

#include <cctype>
#include <cstring>
#include <vector>

#include "common/error.h"
#include "io/safe_file.h"

namespace mpcf::io {

namespace {

/// "MPCFCQ" + two version digits; earlier writers produced "01" and "02".
constexpr char kMagic[8] = {'M', 'P', 'C', 'F', 'C', 'Q', '0', '3'};

/// The entropy stage every blob carries (compression::encode_stream): the
/// sparse significance coder, then zlib. Earlier writers also stored coder
/// ids 0, 2 and 3 ("ZLIB", "LZ4B", "SPL4"); those files are refused.
constexpr std::uint8_t kCodecId = 1;
constexpr std::uint32_t kCodecFourcc = std::uint32_t{'S'} | std::uint32_t{'P'} << 8 |
                                           std::uint32_t{'Z'} << 16 |
                                           std::uint32_t{'L'} << 24;

// zlib cannot shrink data below ~1032:1 (deflate's hard bound), so a
// directory whose raw size claims more than that over the blob actually
// present is corrupt; checking it caps attacker-controlled allocations at
// ~1000x the real file size.
constexpr std::uint64_t kMaxZlibRatio = 1032;

/// Blob region alignment: the directory is padded so phase-two writes start
/// on this boundary.
constexpr std::uint64_t kBlobAlign = 4096;

/// The fourcc as text for error messages; non-printable bytes as '?'.
std::string fourcc_text(std::uint32_t fourcc) {
  std::string text(4, '?');
  for (int k = 0; k < 4; ++k) {
    const char c = static_cast<char>(fourcc >> (8 * k) & 0xff);
    if (std::isprint(static_cast<unsigned char>(c))) text[k] = c;
  }
  return text;
}

/// Phase two of the aggregating writer: blobs stream through a fixed slab
/// and reach the file as large aligned writes instead of one syscall per
/// (possibly tiny) stream.
class BlobCoalescer {
 public:
  explicit BlobCoalescer(SafeFile& f) : f_(f) { buf_.reserve(kSlab); }
  /// The explicit flush() in write_compressed is the real error path; this
  /// one only runs during the unwind of a write that already failed (buf_
  /// still populated), where a persistent fault (disk genuinely full) would
  /// throw a second time from a noexcept destructor and terminate — so it
  /// swallows, like SafeFile's own destructor.
  ~BlobCoalescer() {
    try {
      flush();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  BlobCoalescer(const BlobCoalescer&) = delete;
  BlobCoalescer& operator=(const BlobCoalescer&) = delete;

  void add(const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      if (buf_.empty() && n >= kSlab) {
        const std::size_t whole = n - n % kSlab;
        f_.write(p, whole);
        p += whole;
        n -= whole;
        continue;
      }
      const std::size_t take = std::min(n, kSlab - buf_.size());
      buf_.insert(buf_.end(), p, p + take);
      p += take;
      n -= take;
      if (buf_.size() == kSlab) {
        f_.write(buf_.data(), kSlab);
        buf_.clear();
      }
    }
  }

  void flush() {
    if (!buf_.empty()) {
      f_.write(buf_.data(), buf_.size());
      buf_.clear();
    }
  }

 private:
  static constexpr std::size_t kSlab = 4u << 20;  // 4 MiB

  SafeFile& f_;
  std::vector<std::uint8_t> buf_;
};

}  // namespace

std::uint64_t write_compressed(const std::string& path,
                               const compression::CompressedQuantity& cq) {
  // Phase one: header + directory (so offsets are known), blob offsets by an
  // exclusive prefix sum over encoded sizes, starting at the aligned
  // boundary the pad below establishes.
  std::vector<std::uint8_t> header;  // bytes covered by header_crc
  for (std::int32_t v : {cq.bx, cq.by, cq.bz, cq.block_size, cq.levels, cq.quantity})
    put_bytes(header, v);
  put_bytes(header, cq.eps);
  put_bytes(header, static_cast<std::uint8_t>(cq.derived_pressure));
  put_bytes(header, kCodecId);
  const std::uint8_t pad[2] = {0, 0};
  header.insert(header.end(), pad, pad + 2);
  put_bytes(header, kCodecFourcc);
  put_bytes(header, static_cast<std::uint32_t>(cq.streams.size()));

  // Directory size is data-independent given the id counts, so compute it,
  // then pad the header region to the blob alignment boundary and run the
  // exclusive scan for the blob offsets.
  std::uint64_t dir_bytes = 0;
  for (const auto& s : cq.streams)
    dir_bytes += 4 + 8 + 8 + 8 + 4 + 4ull * s.block_ids.size();
  const std::uint64_t dir_end = 8 + 4 + header.size() + dir_bytes;
  const std::uint64_t pad_bytes = (kBlobAlign - dir_end % kBlobAlign) % kBlobAlign;
  std::uint64_t offset = dir_end + pad_bytes;

  for (const auto& s : cq.streams) {
    put_bytes(header, static_cast<std::uint32_t>(s.block_ids.size()));
    put_bytes(header, s.raw_bytes);
    put_bytes(header, static_cast<std::uint64_t>(s.data.size()));
    put_bytes(header, offset);  // exclusive prefix sum over stream sizes
    put_bytes(header, crc32_bytes(s.data.data(), s.data.size()));
    for (std::uint32_t id : s.block_ids) put_bytes(header, id);
    offset += s.data.size();
  }
  // The alignment pad is CRC-covered like the directory so bit rot in the
  // gap is still caught.
  header.insert(header.end(), static_cast<std::size_t>(pad_bytes), 0);

  SafeFile f(path);
  f.write(kMagic, 8);
  f.put(crc32_bytes(header.data(), header.size()));
  f.write(header.data(), header.size());
  // Phase two: coalesced aligned blob writes.
  BlobCoalescer blobs(f);
  for (const auto& s : cq.streams)
    if (!s.data.empty()) blobs.add(s.data.data(), s.data.size());
  blobs.flush();
  f.commit();
  return f.bytes_written();
}

compression::CompressedQuantity read_compressed(const std::string& path) {
  const std::vector<std::uint8_t> bytes = read_file(path);
  Cursor cur(bytes);
  char magic[8];
  cur.read(magic, 8);
  if (std::memcmp(magic, kMagic, 8) != 0) {
    require(std::memcmp(magic, kMagic, 6) != 0,
            "read_compressed: unsupported .cq version '" + std::string(magic, 8) +
                "'; only version 3 ('MPCFCQ03') is read");
    throw PreconditionError("read_compressed: bad magic");
  }
  const auto header_crc = cur.get<std::uint32_t>();
  const std::size_t crc_begin = cur.offset();

  compression::CompressedQuantity cq;
  cq.bx = cur.get<std::int32_t>();
  cq.by = cur.get<std::int32_t>();
  cq.bz = cur.get<std::int32_t>();
  cq.block_size = cur.get<std::int32_t>();
  cq.levels = cur.get<std::int32_t>();
  cq.quantity = cur.get<std::int32_t>();
  cq.eps = cur.get<float>();
  cq.derived_pressure = cur.get<std::uint8_t>() != 0;
  const auto coder_id = cur.get<std::uint8_t>();
  cur.skip(2);  // pad
  const auto fourcc = cur.get<std::uint32_t>();
  const auto nstreams = cur.get<std::uint32_t>();
  // Every stream costs at least one fixed-size directory entry; anything
  // larger than the remaining bytes allow is corrupt (checked before the
  // resize so hostile counts cannot drive multi-GB allocations).
  constexpr std::size_t kEntryBytes = 32;
  require(nstreams <= cur.remaining() / kEntryBytes, "read_compressed: corrupt stream count");
  cq.streams.resize(nstreams);

  struct BlobRef {
    std::uint64_t offset, size;
    std::uint32_t crc;
  };
  std::vector<BlobRef> blobs(nstreams);
  for (std::size_t i = 0; i < nstreams; ++i) {
    auto& s = cq.streams[i];
    const auto nids = cur.get<std::uint32_t>();
    s.raw_bytes = cur.get<std::uint64_t>();
    blobs[i].size = cur.get<std::uint64_t>();
    blobs[i].offset = cur.get<std::uint64_t>();
    blobs[i].crc = cur.get<std::uint32_t>();
    require(nids <= cur.remaining() / 4, "read_compressed: corrupt id count");
    // Overflow-safe window check (`offset + size <= total` would wrap).
    require(blobs[i].size <= bytes.size() &&
                blobs[i].offset <= bytes.size() - blobs[i].size,
            "read_compressed: bad offsets");
    require(s.raw_bytes <= kMaxZlibRatio * blobs[i].size + 4096,
            "read_compressed: implausible raw size");
    s.block_ids.resize(nids);
    for (auto& id : s.block_ids) id = cur.get<std::uint32_t>();
  }

  // Skip (and CRC-cover) the alignment pad between directory and blobs.
  const std::size_t pad =
      static_cast<std::size_t>((kBlobAlign - cur.offset() % kBlobAlign) % kBlobAlign);
  require(pad <= cur.remaining(), "read_compressed: truncated alignment pad");
  cur.skip(pad);
  require(crc32_bytes(bytes.data() + crc_begin, cur.offset() - crc_begin) == header_crc,
          "read_compressed: header CRC mismatch");
  // Checked only once the header is known intact, so rot in these bytes is
  // reported as rot; an intact header naming another codec is a file from a
  // writer with a different entropy stage.
  if (coder_id != kCodecId || fourcc != kCodecFourcc)
    throw PreconditionError("read_compressed: unsupported codec '" + fourcc_text(fourcc) +
                            "' (coder id " + std::to_string(coder_id) + "); only '" +
                            fourcc_text(kCodecFourcc) + "' (coder id " +
                            std::to_string(kCodecId) + ", sparse+zlib) is read");

  // Copy the blobs only once the whole directory is validated.
  for (std::size_t i = 0; i < nstreams; ++i) {
    const std::uint8_t* blob = cur.window(blobs[i].offset, blobs[i].size);
    require(crc32_bytes(blob, blobs[i].size) == blobs[i].crc,
            "read_compressed: stream CRC mismatch");
    cq.streams[i].data.assign(blob, blob + blobs[i].size);
  }
  return cq;
}

}  // namespace mpcf::io
