// Uniform-resolution block-structured grid: the computational domain is a
// box of bx*by*bz blocks of bs^3 cells each, stored along a space-filling
// curve (paper Section 5). Cell spacing is uniform and cubic.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/error.h"
#include "grid/block.h"
#include "grid/boundary.h"
#include "grid/sfc.h"

namespace mpcf {

class Grid {
 public:
  /// Grid of bx*by*bz blocks of bs^3 cells over a domain whose x-extent is
  /// `extent_x` (y/z extents follow from cubic cells). The block storage
  /// order defaults to Morton for power-of-two cubes (row-major otherwise);
  /// pass a curve explicitly to override (e.g. Hilbert, for the SFC
  /// ablation). Every block's cells and RK accumulator live in one
  /// anonymous mapping owned by the grid, on a 2 MiB boundary and advised
  /// for transparent huge pages, zero-filled (all +0.0) and faulted in at
  /// construction by the chunk loop's workers; blocks are views into it.
  /// Throws std::bad_alloc naming the bytes when the host has no memory
  /// for them.
  Grid(int bx, int by, int bz, int bs, double extent_x = 1.0);
  Grid(int bx, int by, int bz, int bs, double extent_x, BlockIndexer::Curve curve);

  [[nodiscard]] int blocks_x() const noexcept { return indexer_.nx(); }
  [[nodiscard]] int blocks_y() const noexcept { return indexer_.ny(); }
  [[nodiscard]] int blocks_z() const noexcept { return indexer_.nz(); }
  [[nodiscard]] int block_count() const noexcept { return indexer_.count(); }
  [[nodiscard]] int block_size() const noexcept { return bs_; }
  [[nodiscard]] const BlockIndexer& indexer() const noexcept { return indexer_; }

  [[nodiscard]] int cells_x() const noexcept { return indexer_.nx() * bs_; }
  [[nodiscard]] int cells_y() const noexcept { return indexer_.ny() * bs_; }
  [[nodiscard]] int cells_z() const noexcept { return indexer_.nz() * bs_; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return static_cast<std::size_t>(cells_x()) * cells_y() * cells_z();
  }

  /// Uniform cell spacing.
  [[nodiscard]] double h() const noexcept { return h_; }

  /// Cell-center coordinate of global cell index along an axis.
  [[nodiscard]] double cell_center(int i) const noexcept { return (i + 0.5) * h_; }

  [[nodiscard]] Block& block(int linear_index) MPCF_NOEXCEPT {
    MPCF_CHECK(linear_index >= 0 && linear_index < block_count(),
               "Grid block " + std::to_string(linear_index) + " outside [0," +
                   std::to_string(block_count()) + ")");
    return blocks_[linear_index];
  }
  [[nodiscard]] const Block& block(int linear_index) const MPCF_NOEXCEPT {
    MPCF_CHECK(linear_index >= 0 && linear_index < block_count(),
               "Grid block " + std::to_string(linear_index) + " outside [0," +
                   std::to_string(block_count()) + ")");
    return blocks_[linear_index];
  }
  [[nodiscard]] Block& block(int ix, int iy, int iz) noexcept {
    return blocks_[indexer_.linear(ix, iy, iz)];
  }
  [[nodiscard]] const Block& block(int ix, int iy, int iz) const noexcept {
    return blocks_[indexer_.linear(ix, iy, iz)];
  }

  /// Access to a cell by global cell coordinates (must be inside the domain).
  [[nodiscard]] Cell& cell(int ix, int iy, int iz) MPCF_NOEXCEPT {
    MPCF_CHECK(ix >= 0 && ix < cells_x() && iy >= 0 && iy < cells_y() && iz >= 0 &&
                   iz < cells_z(),
               "Grid cell (" + std::to_string(ix) + "," + std::to_string(iy) + "," +
                   std::to_string(iz) + ") outside the domain");
    Block& b = block(ix / bs_, iy / bs_, iz / bs_);
    return b(ix % bs_, iy % bs_, iz % bs_);
  }
  [[nodiscard]] const Cell& cell(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(ix >= 0 && ix < cells_x() && iy >= 0 && iy < cells_y() && iz >= 0 &&
                   iz < cells_z(),
               "Grid cell (" + std::to_string(ix) + "," + std::to_string(iy) + "," +
                   std::to_string(iz) + ") outside the domain");
    const Block& b = block(ix / bs_, iy / bs_, iz / bs_);
    return b(ix % bs_, iy % bs_, iz % bs_);
  }

  /// Ghost-aware cell fetch: folds out-of-domain coordinates through the
  /// boundary conditions and applies momentum sign flips.
  [[nodiscard]] Cell cell_folded(int ix, int iy, int iz, const BoundaryConditions& bc) const {
    const FoldedIndex fx = fold_index(ix, cells_x(), bc, 0);
    const FoldedIndex fy = fold_index(iy, cells_y(), bc, 1);
    const FoldedIndex fz = fold_index(iz, cells_z(), bc, 2);
    Cell c = cell(fx.i, fy.i, fz.i);
    c.ru *= fx.mom_sign;
    c.rv *= fy.mom_sign;
    c.rw *= fz.mom_sign;
    return c;
  }

 private:
  /// Deleter of the storage mapping.
  struct Unmap {
    std::size_t bytes;
    void operator()(std::byte* p) const noexcept;
  };

  /// Maps and populates the storage and lays the block views over it.
  void map_blocks();

  BlockIndexer indexer_;
  int bs_;
  double h_;
  std::unique_ptr<std::byte, Unmap> storage_;
  std::vector<Block> blocks_;
};

}  // namespace mpcf
