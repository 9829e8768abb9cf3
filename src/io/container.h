// The one on-disk container (DESIGN.md §8). Compressed quantity dumps
// (`.cq`) and checkpoints are payload codecs over it: a grid shape, a fixed
// payload record, and independently compressed blobs, each under the global
// ids of the blocks it holds — the paper's single file per quantity
// (Section 6), every rank's blobs in exclusive-scan order.
//
// Layout ("MPCFCNT1", the only version written or read; little endian):
//   off  0  magic "MPCFCNT1"                                        8 bytes
//   off  8  u32 header_crc   CRC32 of bytes [12, 80 + dir_bytes)    4
//   off 12  u32 kind         payload fourcc ("SPZL" or "PLRL")      4
//   off 16  i32 bx, by, bz, bs   global shape in blocks of bs^3     16
//   off 32  u32 blob count n, u32 zero                              8
//   off 40  u64 dir_bytes    directory bytes                        8
//   off 48  payload record   defined by the payload kind           32
//   off 80  directory, n entries of 32 + 4 * id_count bytes:
//             u64 offset, u64 size, u64 raw_size, u32 crc32 (of the blob),
//             u32 id_count, u32 ids[id_count]
//           then the blobs, back to back in directory order, to the end of
//           the file
//
// Files are written atomically through io::SafeFile, blobs first: the
// writer reserves the header and directory, whose size the blob and id
// counts fix, appends each blob as soon as it exists, and writes the header
// and directory last in one positional write. Every save of either payload
// at either layer goes through save_container: each codec gives one blob
// plan per rank, and the plans stream through one ordered window of
// encoded blobs into the writer. The reader holds no
// more of a file than its directory, reads blobs with pread on demand, and
// validates everything below before a blob is read or caller state written:
//   - magic: an older "MPCF..." magic is refused naming its version;
//   - header: the header and directory fit the file and match the header
//     CRC; the kind is the one the caller reads;
//   - shape: positive, bs <= kMaxBlockSize, no more blocks than ids;
//   - directory: the blob and id counts fit it; the windows lie inside the
//     file and tile the blob area exactly, in order; a raw size stays
//     within zlib's ~1032:1 bound;
//   - ids: below the block count, and every block in exactly one blob.
// Blob CRCs and payloads are checked by the payload codecs.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/safe_file.h"

namespace mpcf::io {

/// Four ASCII bytes as the little-endian u32 the header stores.
constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return std::uint32_t{static_cast<std::uint8_t>(s[0])} |
         std::uint32_t{static_cast<std::uint8_t>(s[1])} << 8 |
         std::uint32_t{static_cast<std::uint8_t>(s[2])} << 16 |
         std::uint32_t{static_cast<std::uint8_t>(s[3])} << 24;
}

/// What the blobs of a container hold.
enum class PayloadKind : std::uint32_t {
  kWavelet = fourcc("SPZL"),     ///< `.cq`: sparse coder + zlib wavelet streams
  kCheckpoint = fourcc("PLRL"),  ///< checkpoints: byte-plane Z_RLE blocks
};

/// Largest block edge a container may declare: bounds what a decoder
/// allocates per block (no grid in the tree uses more than 32).
inline constexpr int kMaxBlockSize = 64;

struct ContainerHeader {
  PayloadKind kind = PayloadKind::kWavelet;
  std::int32_t bx = 0, by = 0, bz = 0, bs = 0;
  std::array<std::uint8_t, 32> record{};  ///< zero-padded payload fields

  [[nodiscard]] std::uint64_t block_count() const {
    return static_cast<std::uint64_t>(bx) * static_cast<std::uint64_t>(by) *
           static_cast<std::uint64_t>(bz);
  }
};

struct BlobEntry {
  std::uint64_t offset = 0;        ///< from the start of the file
  std::uint64_t size = 0;          ///< stored bytes
  std::uint64_t raw_size = 0;      ///< bytes the blob inflates to
  std::uint32_t crc = 0;           ///< CRC32 of the stored bytes
  std::vector<std::uint32_t> ids;  ///< global block ids, in blob order
};

/// A blob to write: its entry and its bytes, the concatenation of `pieces`.
struct Blob {
  BlobEntry entry;
  std::vector<std::vector<std::uint8_t>> pieces;
};

/// An entry in directory form, appended to `out`.
void put_entry(std::vector<std::uint8_t>& out, const BlobEntry& e);
/// The next entry in directory form; throws PreconditionError when its ids
/// run past the cursor's bytes.
[[nodiscard]] BlobEntry get_entry(Cursor& cur);

/// Streams a container to `<path>.tmp`. The constructor reserves the header
/// and the directory, whose size the blob and id counts fix; the blobs then
/// follow in directory order, each announced by add() with its size, CRC
/// and ids, its bytes written after it. So a blob goes to the file as soon
/// as it exists, before any later blob's size is known. commit() requires
/// every announced blob and exactly their bytes, writes the header and
/// directory into the reserved region in one positional write, publishes the
/// file, returns its size, and in MPCF_CHECKED builds re-reads it through
/// ContainerReader.
class ContainerWriter {
 public:
  ContainerWriter(const std::string& path, const ContainerHeader& header, std::size_t blobs,
                  std::uint64_t ids);
  /// Announces the next blob once the previous one's bytes are written; its
  /// offset is set here.
  void add(BlobEntry entry);
  /// The announced blob's next bytes. Throws IoError on failure (incl.
  /// injected faults).
  void write(const void* p, std::size_t n);
  /// add() and write() of a whole blob.
  void append(const Blob& blob);
  std::uint64_t commit();

 private:
  SafeFile file_;
  ContainerHeader header_;
  std::size_t blobs_;   ///< blobs the directory holds
  std::uint64_t ids_;   ///< ids the directory holds
  std::uint64_t head_;  ///< header and directory bytes
  std::uint64_t announced_ids_ = 0;
  std::vector<BlobEntry> dir_;  ///< the blobs announced so far
  std::uint64_t end_;           ///< where the announced blobs end
};

/// One rank's share of a save: its blob and block-id counts, both known
/// before anything is encoded, and encode(blob, worker), which returns blob
/// `blob` of [0, blobs) under the caller's global block ids. A save calls
/// encode for distinct blobs at once, each call on its own worker id in
/// [0, thread_count()) (common/chunk_loop.h).
struct BlobPlan {
  std::size_t blobs = 0;
  std::uint64_t ids = 0;
  std::function<Blob(int blob, int worker)> encode;
};

/// The one save path of both payloads at both layers: streams the blobs of
/// `plans` (plan after plan, each plan's blobs in order) through
/// for_each_chunk_ordered on thread_count() workers into one
/// ContainerWriter, so at most 2 x workers encoded blobs are held, counted
/// over the whole list, whatever the file size or the number of plans.
/// Returns the file size; `write_seconds`, when given, receives the time
/// spent in the writer (reserve, appends, commit).
std::uint64_t save_container(const std::string& path, const ContainerHeader& header,
                             const std::vector<BlobPlan>& plans, double* write_seconds = nullptr);

/// Every blob of `plan`, encoded into memory on thread_count() workers: a
/// multi-process rank's share of a collective save, which it holds until
/// the root asks for it.
[[nodiscard]] std::vector<Blob> encode_blobs(const BlobPlan& plan);

/// A container open for reading, header and directory validated. Error
/// messages start with `what`. Blobs may be read from several threads.
class ContainerReader {
 public:
  ContainerReader(const std::string& path, PayloadKind kind, std::string what);

  [[nodiscard]] const ContainerHeader& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<BlobEntry>& blobs() const noexcept { return blobs_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& what() const noexcept { return what_; }

  /// Reads exactly n bytes at `offset`; throws PreconditionError if short.
  void read_at(std::uint64_t offset, std::uint8_t* dst, std::size_t n) const;
  /// Blob k's stored bytes, after checking its CRC.
  [[nodiscard]] std::vector<std::uint8_t> read_blob(std::size_t k) const;

 private:
  /// Closes on every exit, a throwing constructor's included.
  struct Descriptor {
    int fd = -1;
    Descriptor() = default;
    Descriptor(const Descriptor&) = delete;
    Descriptor& operator=(const Descriptor&) = delete;
    ~Descriptor();
  };

  std::string path_, what_;
  Descriptor fd_;
  std::uint64_t size_ = 0;
  ContainerHeader header_;
  std::vector<BlobEntry> blobs_;
};

}  // namespace mpcf::io
