#include "grid/grid.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>

#include "common/chunk_loop.h"

// Linux 5.14 added MADV_POPULATE_WRITE; headers older than that lack it, and
// kernels older than that refuse it, which leaves pages to fault at first
// touch.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace mpcf {

namespace {

/// Every block's data and tmp span starts on a cache line.
constexpr std::size_t kSpanAlign = 64;

/// A transparent huge page: the grid starts on one, and each populate chunk
/// is one.
constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// std::bad_alloc naming the storage a grid could not get.
class StorageBadAlloc : public std::bad_alloc {
 public:
  explicit StorageBadAlloc(std::size_t bytes)
      : what_("Grid: cannot allocate " + std::to_string(bytes) + " bytes of block storage") {}
  [[nodiscard]] const char* what() const noexcept override { return what_.what(); }

 private:
  std::runtime_error what_;  ///< holds the message; copies without throwing
};

}  // namespace

Grid::Grid(int bx, int by, int bz, int bs, double extent_x)
    : indexer_(bx, by, bz), bs_(bs), h_(extent_x / (static_cast<double>(bx) * bs)) {
  require(bs > 0, "Grid: block size must be positive");
  require(extent_x > 0.0, "Grid: domain extent must be positive");
  map_blocks();
}

Grid::Grid(int bx, int by, int bz, int bs, double extent_x, BlockIndexer::Curve curve)
    : indexer_(bx, by, bz, curve), bs_(bs),
      h_(extent_x / (static_cast<double>(bx) * bs)) {
  require(bs > 0, "Grid: block size must be positive");
  require(extent_x > 0.0, "Grid: domain extent must be positive");
  map_blocks();
}

void Grid::Unmap::operator()(std::byte* p) const noexcept {
  // munmap fails only for a range that was never mapped; this one was.
  (void)munmap(p, bytes);
}

void Grid::map_blocks() {
  const std::size_t cells = static_cast<std::size_t>(bs_) * bs_ * bs_;
  const std::size_t span = (cells * sizeof(Cell) + kSpanAlign - 1) / kSpanAlign * kSpanAlign;
  const std::size_t n = static_cast<std::size_t>(indexer_.count());
  const std::size_t bytes = 2 * span * n;
  // One private anonymous mapping, 2 MiB longer than the grid so that the
  // grid can start on a 2 MiB boundary, where the kernel can back it with
  // transparent huge pages. The kernel hands it out zero-filled, which is
  // the all-+0.0 state of Cell{}.
  const std::size_t room = bytes + kHugePage;
  void* const mapped =
      mmap(nullptr, room, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) throw StorageBadAlloc(bytes);
  void* start = mapped;
  std::size_t space = room;
  // Cannot fail: the room holds the grid at any offset below 2 MiB.
  (void)std::align(kHugePage, bytes, start, space);
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t length = (bytes + page - 1) / page * page;
  auto* const grid = static_cast<std::byte*>(start);
  // The unused head and tail go back at once, so the grid is unmapped as
  // one range. munmap of a mapped range fails only when splitting it would
  // exceed the process's map count; the part left is address space that no
  // page ever backs.
  if (room > space) (void)munmap(mapped, room - space);
  (void)munmap(grid + length, space - length);
  storage_ = std::unique_ptr<std::byte, Unmap>(grid, Unmap{bytes});

  // Huge pages where the host's THP mode allows them; elsewhere the advice
  // is refused or ignored and base pages stay.
  (void)madvise(grid, length, MADV_HUGEPAGE);
  // Every page is faulted in now, one 2 MiB chunk at a time on the chunk
  // loop's workers, so no step pays a first-touch fault. A populate the
  // kernel refuses for want of memory (ENOMEM) throws here, where a silent
  // shortfall would surface later as the OOM killer; any other refusal (a
  // kernel before 5.14, a filtered syscall) leaves zero pages that fault at
  // first touch.
  const std::size_t chunks = (length + kHugePage - 1) / kHugePage;
  for_each_chunk(static_cast<int>(chunks), [&](int c, int) {
    const std::size_t at = static_cast<std::size_t>(c) * kHugePage;
    if (madvise(grid + at, std::min(kHugePage, length - at), MADV_POPULATE_WRITE) != 0 &&
        errno == ENOMEM)
      throw StorageBadAlloc(bytes);
  });

  // Block b holds [data | tmp] at 2 * span * b: a block's two spans are
  // adjacent, and consecutive blocks follow the SFC order.
  blocks_.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    std::byte* at = grid + 2 * span * b;
    blocks_.emplace_back(bs_, static_cast<Cell*>(static_cast<void*>(at)),
                         static_cast<Cell*>(static_cast<void*>(at + span)));
  }
}

}  // namespace mpcf
