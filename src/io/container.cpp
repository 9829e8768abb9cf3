#include "io/container.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/chunk_loop.h"
#include "common/error.h"
#include "core/profile.h"

namespace mpcf::io {

namespace {

/// "MPCF" + "CNT" + a version digit. Earlier writers produced "MPCFCQ0x"
/// dumps and "MPCFCKPx" checkpoints; those are refused by name.
constexpr char kMagic[8] = {'M', 'P', 'C', 'F', 'C', 'N', 'T', '1'};
constexpr std::size_t kHeaderBytes = 80;
constexpr std::size_t kEntryBytes = 32;  ///< an entry without its ids

// zlib cannot shrink data below ~1032:1 (deflate's hard bound), plus slack
// for the fixed overhead of tiny streams: a larger raw size over the blob
// present is corrupt, so a decoder never allocates ~1000x the file size.
constexpr std::uint64_t kMaxZlibRatio = 1032;
constexpr std::uint64_t kRatioSlack = 4096;

/// Bytes of the header and a directory of `blobs` entries holding `ids`
/// block ids in all: where the first blob starts.
std::uint64_t head_bytes(std::size_t blobs, std::uint64_t ids) {
  return kHeaderBytes + kEntryBytes * blobs + 4 * ids;
}

/// Bytes as text for error messages; non-printable bytes as '?'.
std::string printable(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  std::string text(n, '?');
  for (std::size_t k = 0; k < n; ++k)
    if (std::isprint(bytes[k])) text[k] = static_cast<char>(bytes[k]);
  return text;
}

}  // namespace

void put_entry(std::vector<std::uint8_t>& out, const BlobEntry& e) {
  put_bytes(out, e.offset);
  put_bytes(out, e.size);
  put_bytes(out, e.raw_size);
  put_bytes(out, e.crc);
  put_bytes(out, static_cast<std::uint32_t>(e.ids.size()));
  for (const std::uint32_t id : e.ids) put_bytes(out, id);
}

BlobEntry get_entry(Cursor& cur) {
  BlobEntry e;
  e.offset = cur.get<std::uint64_t>();
  e.size = cur.get<std::uint64_t>();
  e.raw_size = cur.get<std::uint64_t>();
  e.crc = cur.get<std::uint32_t>();
  const auto nids = cur.get<std::uint32_t>();
  require(nids <= cur.remaining() / 4, "corrupt id count");
  e.ids.resize(nids);
  cur.read(e.ids.data(), std::size_t{nids} * 4);
  return e;
}

ContainerWriter::ContainerWriter(const std::string& path, const ContainerHeader& header,
                                 std::size_t blobs, std::uint64_t ids)
    : file_(path),
      header_(header),
      blobs_(blobs),
      ids_(ids),
      head_(head_bytes(blobs, ids)),
      end_(head_) {
  require(header.bs >= 1 && header.bs <= kMaxBlockSize,
          "ContainerWriter: block size " + std::to_string(header.bs) + " outside [1, " +
              std::to_string(kMaxBlockSize) + "]");
  dir_.reserve(blobs);
  file_.skip(head_);
}

void ContainerWriter::add(BlobEntry entry) {
  require(file_.bytes_written() == end_ && dir_.size() < blobs_ &&
              entry.ids.size() <= ids_ - announced_ids_,
          "ContainerWriter: " + file_.path() + ": blob " + std::to_string(dir_.size()) +
              " announced before the previous one is written, or past the directory");
  // The blobs follow the directory back to back: each offset is the
  // exclusive scan of the sizes before it.
  entry.offset = end_;
  end_ += entry.size;
  announced_ids_ += entry.ids.size();
  dir_.push_back(std::move(entry));
}

void ContainerWriter::write(const void* p, std::size_t n) {
  require(n <= end_ - file_.bytes_written(),
          "ContainerWriter: " + file_.path() + ": more bytes than the announced blobs hold");
  file_.write(p, n);
}

void ContainerWriter::append(const Blob& blob) {
  add(blob.entry);
  for (const auto& piece : blob.pieces) write(piece.data(), piece.size());
}

std::uint64_t ContainerWriter::commit() {
  require(dir_.size() == blobs_ && announced_ids_ == ids_ && file_.bytes_written() == end_,
          "ContainerWriter: " + file_.path() + " got " + std::to_string(dir_.size()) + " of " +
              std::to_string(blobs_) + " blobs and " + std::to_string(file_.bytes_written()) +
              " bytes, its directory ends at " + std::to_string(end_));
  std::vector<std::uint8_t> head(sizeof(kMagic) + 4);  // magic, header CRC (set below)
  std::memcpy(head.data(), kMagic, sizeof(kMagic));
  head.reserve(head_);
  put_bytes(head, static_cast<std::uint32_t>(header_.kind));
  for (const std::int32_t v : {header_.bx, header_.by, header_.bz, header_.bs})
    put_bytes(head, v);
  put_bytes(head, static_cast<std::uint32_t>(dir_.size()));
  put_bytes(head, std::uint32_t{0});
  put_bytes(head, head_ - kHeaderBytes);
  head.insert(head.end(), header_.record.begin(), header_.record.end());
  for (const BlobEntry& e : dir_) put_entry(head, e);
  const std::uint32_t crc = crc32_bytes(head.data() + 12, head.size() - 12);
  std::memcpy(head.data() + 8, &crc, sizeof(crc));
  file_.write_at(0, head.data(), head.size());
  file_.commit();
#if MPCF_CHECKED
  // Verify-after-write: the committed file must read back as written (rot
  // between rename and first use, torn commits the OS hid, serializer bugs
  // the CRCs alone would only catch at the next read).
  const std::string context = "container readback of " + file_.path();
  try {
    const ContainerReader back(file_.path(), header_.kind, context);
    const ContainerHeader& h = back.header();
    MPCF_CHECK(back.size() == end_ && h.bx == header_.bx && h.by == header_.by &&
                   h.bz == header_.bz && h.bs == header_.bs && h.record == header_.record &&
                   back.blobs().size() == dir_.size(),
               context + ": header or size mismatch");
    for (std::size_t k = 0; k < dir_.size(); ++k) {
      const BlobEntry& e = back.blobs()[k];
      MPCF_CHECK(e.size == dir_[k].size && e.raw_size == dir_[k].raw_size &&
                     e.crc == dir_[k].crc && e.ids == dir_[k].ids,
                 context + ": blob " + std::to_string(k) + " mismatch");
      (void)back.read_blob(k);  // checks the CRC of what landed
    }
  } catch (const PreconditionError& e) {
    MPCF_CHECK(false, e.what());
  }
#endif
  return end_;
}

std::uint64_t save_container(const std::string& path, const ContainerHeader& header,
                             const std::vector<BlobPlan>& plans, double* write_seconds) {
  // Blob c of the save is blob c - first[p] of plan p.
  std::vector<std::size_t> first{0};
  std::uint64_t ids = 0;
  for (const BlobPlan& plan : plans) {
    first.push_back(first.back() + plan.blobs);
    ids += plan.ids;
  }
  const int blobs = static_cast<int>(first.back());
  Timer t;
  ContainerWriter out(path, header, first.back(), ids);
  double writing = t.seconds();
  // Each blob goes to the file once it and every blob before it are
  // encoded; blob c waits in slot c % window until then.
  std::vector<Blob> window(static_cast<std::size_t>(chunk_window(chunk_workers(blobs))));
  const auto slot = [&](int c) -> Blob& {
    return window[static_cast<std::size_t>(c) % window.size()];
  };
  for_each_chunk_ordered(
      blobs,
      [&](int c, int w) {
        const auto p = static_cast<std::size_t>(
            std::upper_bound(first.begin(), first.end(), static_cast<std::size_t>(c)) -
            first.begin() - 1);
        slot(c) = plans[p].encode(c - static_cast<int>(first[p]), w);
      },
      [&](int c) {
        const Blob blob = std::exchange(slot(c), Blob{});
        const Timer write;
        out.append(blob);
        writing += write.seconds();
      });
  t.restart();
  const std::uint64_t bytes = out.commit();
  if (write_seconds != nullptr) *write_seconds = writing + t.seconds();
  return bytes;
}

std::vector<Blob> encode_blobs(const BlobPlan& plan) {
  std::vector<Blob> blobs(plan.blobs);
  for_each_chunk(static_cast<int>(plan.blobs),
                 [&](int c, int w) { blobs[static_cast<std::size_t>(c)] = plan.encode(c, w); });
  return blobs;
}

ContainerReader::Descriptor::~Descriptor() {
  // Read-only descriptor: close cannot lose data.
  if (fd >= 0) (void)::close(fd);
}

ContainerReader::ContainerReader(const std::string& path, PayloadKind kind, std::string what)
    : path_(path), what_(std::move(what)) {
  fd_.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  require(fd_.fd >= 0, what_ + ": cannot open " + path_);
  struct stat st {};
  require(::fstat(fd_.fd, &st) == 0, what_ + ": cannot stat " + path_);
  size_ = static_cast<std::uint64_t>(st.st_size);

  std::uint8_t head[kHeaderBytes] = {};
  const auto head_bytes = static_cast<std::size_t>(std::min<std::uint64_t>(size_, kHeaderBytes));
  read_at(0, head, head_bytes);
  require(head_bytes >= sizeof(kMagic), what_ + ": truncated header");
  if (std::memcmp(head, kMagic, sizeof(kMagic)) != 0) {
    require(std::memcmp(head, kMagic, 4) != 0,
            what_ + ": unsupported file version '" + printable(head, sizeof(kMagic)) +
                "'; only '" + printable(kMagic, sizeof(kMagic)) + "' is read");
    throw PreconditionError(what_ + ": bad magic");
  }
  require(head_bytes == kHeaderBytes, what_ + ": truncated header");
  Cursor cur(head, kHeaderBytes);
  cur.skip(sizeof(kMagic));
  const auto header_crc = cur.get<std::uint32_t>();
  const auto stored_kind = cur.get<std::uint32_t>();
  header_.bx = cur.get<std::int32_t>();
  header_.by = cur.get<std::int32_t>();
  header_.bz = cur.get<std::int32_t>();
  header_.bs = cur.get<std::int32_t>();
  const auto nblobs = cur.get<std::uint32_t>();
  cur.skip(4);
  const auto dir_bytes = cur.get<std::uint64_t>();
  cur.read(header_.record.data(), header_.record.size());

  // The directory must fit in the bytes present before it is read.
  require(dir_bytes <= size_ - kHeaderBytes,
          what_ + ": directory runs past the end of the file");
  require(nblobs <= dir_bytes / kEntryBytes, what_ + ": corrupt blob count");
  std::vector<std::uint8_t> dir(static_cast<std::size_t>(dir_bytes));
  read_at(kHeaderBytes, dir.data(), dir.size());
  require(crc32_bytes(dir.data(), dir.size(), crc32_bytes(head + 12, kHeaderBytes - 12)) ==
              header_crc,
          what_ + ": header CRC mismatch");
  // Checked only once the header is known intact, so rot is reported as rot
  // and an intact header naming another kind as a file of that kind.
  const auto wanted = static_cast<std::uint32_t>(kind);
  require(stored_kind == wanted, what_ + ": payload kind '" +
                                     printable(&stored_kind, 4) + "'; only '" +
                                     printable(&wanted, 4) + "' is read here");
  header_.kind = kind;

  require(header_.bx > 0 && header_.by > 0 && header_.bz > 0 && header_.bs > 0 &&
              header_.bs <= kMaxBlockSize,
          what_ + ": grid shape not positive or its blocks above " +
              std::to_string(kMaxBlockSize) + "^3");
  // Every block is named once in the directory, 4 bytes per id.
  const std::uint64_t blocks = header_.block_count();
  require(blocks <= dir_bytes / 4 &&
              blocks <= static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max()),
          what_ + ": grid shape of " + std::to_string(blocks) +
              " blocks is larger than the ids of the directory");

  std::vector<bool> seen(static_cast<std::size_t>(blocks), false);
  std::uint64_t covered = 0;
  std::uint64_t offset = kHeaderBytes + dir_bytes;
  Cursor entries(dir);
  blobs_.reserve(nblobs);
  for (std::uint32_t k = 0; k < nblobs; ++k) {
    const std::string blob = what_ + ": blob " + std::to_string(k);
    try {
      blobs_.push_back(get_entry(entries));
    } catch (const PreconditionError& e) {
      throw PreconditionError(blob + ": " + e.what());
    }
    const BlobEntry& e = blobs_.back();
    require(!e.ids.empty(), blob + " holds no block");
    // The windows tile the blob area in order; sizes are compared with what
    // is left of the file, so no sum can wrap.
    require(e.offset == offset, blob + " does not start where the previous blob ends");
    require(e.size <= size_ - offset, blob + " runs past the end of the file");
    require(e.raw_size <= kRatioSlack || (e.raw_size - kRatioSlack) / kMaxZlibRatio <= e.size,
            blob + ": implausible raw size " + std::to_string(e.raw_size));
    for (const std::uint32_t id : e.ids) {
      require(id < blocks, blob + ": block id " + std::to_string(id) + " out of range for " +
                               std::to_string(blocks) + " blocks");
      require(!seen[id], blob + ": block id " + std::to_string(id) + " appears twice");
      seen[id] = true;
    }
    covered += e.ids.size();
    offset += e.size;
  }
  require(entries.remaining() == 0, what_ + ": directory bytes do not match its entries");
  require(offset == size_, what_ + ": trailing bytes after the last blob");
  require(covered == blocks, what_ + ": " + std::to_string(blocks - covered) + " of " +
                                 std::to_string(blocks) + " blocks are in no blob");
}

void ContainerReader::read_at(std::uint64_t offset, std::uint8_t* dst, std::size_t n) const {
  while (n > 0) {
    const ssize_t got = ::pread(fd_.fd, dst, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    require(got > 0, what_ + ": short read on " + path_);
    dst += got;
    offset += static_cast<std::uint64_t>(got);
    n -= static_cast<std::size_t>(got);
  }
}

std::vector<std::uint8_t> ContainerReader::read_blob(std::size_t k) const {
  const BlobEntry& e = blobs_.at(k);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(e.size));
  read_at(e.offset, bytes.data(), bytes.size());
  require(crc32_bytes(bytes.data(), bytes.size()) == e.crc,
          what_ + ": blob " + std::to_string(k) + " CRC mismatch");
  return bytes;
}

}  // namespace mpcf::io
