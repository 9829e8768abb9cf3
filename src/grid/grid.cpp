#include "grid/grid.h"

#include <sys/mman.h>

#include <new>

namespace mpcf {

namespace {

/// Every block's data and tmp span starts on a cache line.
constexpr std::size_t kSpanAlign = 64;

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
  // One private anonymous mapping for the whole grid: the kernel hands it
  // out zero-filled, which is the all-+0.0 state of Cell{}, and
  // MAP_POPULATE faults every page in here rather than at first touch.
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  storage_ = std::unique_ptr<std::byte, Unmap>(static_cast<std::byte*>(p), Unmap{bytes});
  // Block b holds [data | tmp] at 2 * span * b: a block's two spans are
  // adjacent, and consecutive blocks follow the SFC order.
  blocks_.reserve(n);
  for (std::size_t b = 0; b < n; ++b) {
    std::byte* at = storage_.get() + 2 * span * b;
    blocks_.emplace_back(bs_, static_cast<Cell*>(static_cast<void*>(at)),
                         static_cast<Cell*>(static_cast<void*>(at + span)));
  }
}

}  // namespace mpcf
