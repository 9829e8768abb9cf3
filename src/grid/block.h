// A grid block: bs^3 cells in AoS layout plus a temporary area used as the
// RHS accumulator of the low-storage Runge-Kutta scheme (paper Fig. 2). A
// Block is a non-owning view: the cells live in its Grid's one mapping
// (grid.h) and the view stays valid for the grid's lifetime, moves included.
#pragma once

#include <cstddef>
#include <string>

#include "common/check.h"
#include "grid/cell.h"

namespace mpcf {

class Block {
 public:
  /// View of `bs`^3 cells at `data` with their accumulator at `tmp`.
  Block(int bs, Cell* data, Cell* tmp) noexcept : bs_(bs), data_(data), tmp_(tmp) {}

  [[nodiscard]] int size() const noexcept { return bs_; }
  [[nodiscard]] std::size_t cells() const noexcept {
    return static_cast<std::size_t>(bs_) * bs_ * bs_;
  }

  [[nodiscard]] Cell& operator()(int ix, int iy, int iz) MPCF_NOEXCEPT {
    return data_[index(ix, iy, iz)];
  }
  [[nodiscard]] const Cell& operator()(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    return data_[index(ix, iy, iz)];
  }

  /// RHS / low-storage RK accumulator cell.
  [[nodiscard]] Cell& tmp(int ix, int iy, int iz) MPCF_NOEXCEPT {
    return tmp_[index(ix, iy, iz)];
  }
  [[nodiscard]] const Cell& tmp(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    return tmp_[index(ix, iy, iz)];
  }

  [[nodiscard]] Cell* data() noexcept { return data_; }
  [[nodiscard]] const Cell* data() const noexcept { return data_; }
  [[nodiscard]] Cell* tmp_data() noexcept { return tmp_; }
  [[nodiscard]] const Cell* tmp_data() const noexcept { return tmp_; }

 private:
  [[nodiscard]] std::size_t index(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(ix >= 0 && ix < bs_ && iy >= 0 && iy < bs_ && iz >= 0 && iz < bs_,
               "Block cell (" + std::to_string(ix) + "," + std::to_string(iy) + "," +
                   std::to_string(iz) + ") outside [0," + std::to_string(bs_) + ")^3");
    return ix + static_cast<std::size_t>(bs_) * (iy + static_cast<std::size_t>(bs_) * iz);
  }

  int bs_;
  Cell* data_;
  Cell* tmp_;
};

}  // namespace mpcf
