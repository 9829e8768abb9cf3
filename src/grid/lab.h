// BlockLab: a per-thread working copy of one block — or of a tile of k^3
// blocks — extended by the ghost layer required by the WENO5 stencil,
// converted from the AoS block storage into SoA arrays (paper Fig. 2:
// "AoS/SoA conversion during the evaluation of the RHS"). Each thread owns
// one lab and reuses its memory across loads (paper Section 6, node layer).
//
// load(..., bc [, halo [, k]]) is bulk assembly: every lab row is a few
// contiguous AoS runs (one per block the row crosses) transposed into the
// SoA planes, taken from a local block, from one of the cluster layer's
// face slabs (HaloSlabs), or from a clamped in-box position; the source of
// each row and ghost cell comes from per-axis fold tables computed once per
// load (BCs folded per axis entry, not per cell). The per-cell reference
// path it is tested against lives with the tests (tests/lab_oracle.h).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/check.h"
#include "common/config.h"
#include "grid/boundary.h"
#include "grid/grid.h"
#include "simd/vec8.h"  // MPCF_SIMD_AVX2 + intrinsics for the AoS->SoA transpose

namespace mpcf {

/// The cluster layer's ghost source for one rank box: the kGhosts cell
/// layers beyond each face that has a neighbour rank, indexed
/// [axis * 2 + side] (side 0 = low). Each slab is stored x-fastest over the
/// box with the face-normal extent cut to kGhosts — the Cell AoS order of
/// the halo message. A face without a neighbour has no slab; the rank's own
/// boundary conditions fold it.
struct HaloSlabs {
  int rank = 0;                           ///< names the rank in errors
  std::array<bool, 6> neighbor{};         ///< face has a neighbour rank
  std::array<std::vector<Cell>, 6> face;  ///< empty until the first exchange

  /// Cell count of face `f`'s slab around a box of n[3] cells.
  [[nodiscard]] static std::size_t cells(int f, const int n[3]) noexcept {
    std::size_t c = kGhosts;
    for (int a = 0; a < 3; ++a)
      if (a != f / 2) c *= static_cast<std::size_t>(n[a]);
    return c;
  }

  /// Face `f`'s slab around a box of n[3] cells. Throws PreconditionError
  /// naming rank, axis and side when it has not arrived (empty before the
  /// first exchange) or has the wrong size.
  [[nodiscard]] const std::vector<Cell>& slab(int f, const int n[3]) const {
    const std::size_t want = cells(f, n);
    if (face[f].size() != want)
      throw PreconditionError("halo slab missing: rank " + std::to_string(rank) + ", axis " +
                              "xyz"[f / 2] + ", side " + (f % 2 == 0 ? "low" : "high") +
                              ": " + std::to_string(face[f].size()) + " of " +
                              std::to_string(want) + " cells (no halo exchange yet?)");
    return face[f];
  }
};

class BlockLab {
 public:
  BlockLab() = default;

  /// Allocates storage for labs of interior edge up to `edge` (a block, or
  /// a tile of blocks) with `ghosts` ghost cells, and shapes the lab to
  /// `edge`. Every later load reuses this storage for any edge up to it.
  void resize(int edge, int ghosts = kGhosts) {
    require(edge > 0 && ghosts >= 0, "BlockLab: bad extents");
    g_ = ghosts;
    cap_ = edge;
    const std::size_t n = static_cast<std::size_t>(edge) + 2 * static_cast<std::size_t>(ghosts);
    storage_.reset(n * n * n * kNumQuantities);
    // mpcf-lint: allow(kernel-alloc): one-time lab (re)allocation; load() reuses these tables
    for (auto& t : fold_) t.resize(n);
    // mpcf-lint: allow(kernel-alloc): one-time lab (re)allocation; load() rebuilds it per block row
    xcols_.resize(2 * static_cast<std::size_t>(g_));
    shape(edge);
  }

  /// Lays the lab out for interior edge `edge` within the allocated
  /// capacity (no allocation): load() does this itself; a caller filling
  /// cells through operator() does it first.
  void shape(int edge) {
    if (edge <= 0 || edge > cap_)
      throw PreconditionError("BlockLab: edge " + std::to_string(edge) +
                              " exceeds the allocated " + std::to_string(cap_));
    e_ = edge;
    n_ = edge + 2 * g_;
    per_q_ = static_cast<std::size_t>(n_) * n_ * n_;
  }

  /// Interior edge of the current shape: a block's edge, or a tile's.
  [[nodiscard]] int edge() const noexcept { return e_; }
  [[nodiscard]] int ghosts() const noexcept { return g_; }
  /// Extended edge length (edge + 2*ghosts).
  [[nodiscard]] int extent() const noexcept { return n_; }

  /// Quantity plane base pointer (SoA).
  [[nodiscard]] Real* q(int quantity) noexcept { return storage_.data() + quantity * per_q_; }
  [[nodiscard]] const Real* q(int quantity) const noexcept {
    return storage_.data() + quantity * per_q_;
  }

  /// Element access with lab-local coordinates in [-ghosts, edge+ghosts).
  [[nodiscard]] Real& operator()(int quantity, int ix, int iy, int iz) MPCF_NOEXCEPT {
    MPCF_CHECK(quantity >= 0 && quantity < kNumQuantities,
               "BlockLab quantity " + std::to_string(quantity));
    return q(quantity)[offset(ix, iy, iz)];
  }
  [[nodiscard]] const Real& operator()(int quantity, int ix, int iy,
                                       int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(quantity >= 0 && quantity < kNumQuantities,
               "BlockLab quantity " + std::to_string(quantity));
    return q(quantity)[offset(ix, iy, iz)];
  }

  [[nodiscard]] std::size_t offset(int ix, int iy, int iz) const MPCF_NOEXCEPT {
    MPCF_CHECK(ix >= -g_ && ix < e_ + g_ && iy >= -g_ && iy < e_ + g_ &&
                   iz >= -g_ && iz < e_ + g_,
               "BlockLab cell (" + std::to_string(ix) + "," + std::to_string(iy) +
                   "," + std::to_string(iz) + ") outside [" + std::to_string(-g_) +
                   "," + std::to_string(e_ + g_) + ")^3");
    return (ix + g_) +
           static_cast<std::size_t>(n_) *
               ((iy + g_) + static_cast<std::size_t>(n_) * (iz + g_));
  }

  /// Bulk assembly of the tile of k^3 blocks whose low corner is block
  /// (bx,by,bz) — k = 1 is block (bx,by,bz) alone — into a lab of edge
  /// k * grid.block_size() (at most the allocated capacity). Every lab row
  /// is one contiguous AoS run per block it crosses, through
  /// copy_row_transposed, and ghosts resolve through per-axis fold tables
  /// (BCs folded once per axis entry). With `halo` (the cluster layer), a
  /// coordinate past a rank face that has a neighbour is a slab layer: a
  /// ghost crossing exactly one such face reads that face's slab, and one
  /// crossing two or three (edges and corners, never read by the
  /// axis-aligned sweeps) reads the clamped in-box cell. Without `halo` —
  /// or for a rank with no neighbours — this is the node-layer lab.
  void load(const Grid& grid, int bx, int by, int bz, const BoundaryConditions& bc,
            const HaloSlabs* halo = nullptr, int k = 1) {
    const int bs = grid.block_size();
    shape(k * bs);
    bs_ = bs;
    const int origin[3] = {bx * bs, by * bs, bz * bs};
    const bool slabs = build_fold_tables(grid, origin, bc, halo);

    // Interior: row-by-row AoS -> SoA transpose, no index folding at all.
    for (int jz = 0; jz < k; ++jz)
      for (int jy = 0; jy < k; ++jy)
        for (int jx = 0; jx < k; ++jx) {
          const Block& block = grid.block(bx + jx, by + jy, bz + jz);
          for (int iz = 0; iz < bs; ++iz)
            for (int iy = 0; iy < bs; ++iy)
              copy_row_transposed(&block(0, iy, iz),
                                  offset(jx * bs, jy * bs + iy, jz * bs + iz), bs, Real(1),
                                  Real(1));
        }

    // X-edge ghosts of interior rows: the y/z folds are identity there, so
    // each column's source (block or x slab) is constant over a block row —
    // resolve it once per block row, then sweep that row's cells.
    for (int jz = 0; jz < k; ++jz)
      for (int jy = 0; jy < k; ++jy) fill_x_edges(grid, origin, by + jy, bz + jz, jy, jz);

    // The node layer and a rank's interior tiles and blocks read no slab: compile
    // their ghost rows without the per-cell slab test.
    if (slabs)
      fill_ghost_rows<true>(grid, bx, k, origin[0]);
    else
      fill_ghost_rows<false>(grid, bx, k, origin[0]);
  }

  /// Consumption hook for the fused step scheduler: the set of source units
  /// — tiles of k^3 blocks indexed by `units`, or blocks when k = 1 — the
  /// last bulk load() may have read, appended to `out` sorted ascending (out
  /// is cleared first). Computed as the product of the per-axis fold
  /// tables, so it is a conservative superset of the actual reads (a slab
  /// layer still counts its clamped in-box block). Valid only after a bulk
  /// load. The step graph cross-validates this against
  /// BlockTopology::readset under MPCF_CHECKED.
  void read_block_set(const BlockIndexer& units, std::vector<int>& out, int k = 1) const {
    out.clear();
    // Distinct per-axis source blocks, in fold-table order.
    // mpcf-lint: allow(kernel-alloc): MPCF_CHECKED-only validation path, not a kernel loop
    std::vector<int> ax[3];
    for (int a = 0; a < 3; ++a) {
      for (int i = 0; i < n_; ++i) {
        const int b = fold_[a][i].block;
        bool seen = false;
        for (const int e : ax[a]) seen = seen || e == b;
        // mpcf-lint: allow(kernel-alloc): MPCF_CHECKED-only validation path, not a kernel loop
        if (!seen) ax[a].push_back(b);
      }
    }
    for (const int bz : ax[2])
      for (const int by : ax[1])
        // mpcf-lint: allow(kernel-alloc): MPCF_CHECKED-only validation path, not a kernel loop
        for (const int bx : ax[0]) out.push_back(units.linear(bx / k, by / k, bz / k));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

 private:
  /// One x-ghost column of fill_x_edges, resolved once per block row: the
  /// source of the block row's lab row (iy, iz) is cells[sy * iy + sz * iz].
  struct XCol {
    const Cell* cells;    ///< source of row (0, 0): a block of the same by/bz, or an x slab
    std::size_t sy, sz;   ///< source strides (cells) per lab row along y and z
    std::size_t doff;     ///< lab-row-relative destination offset
    Real sign;            ///< x-momentum sign
  };

  /// Fold table entry for one lab coordinate along one axis.
  struct Fold {
    int block;  ///< source block index along the axis (slab layer: clamped in-box)
    int cell;   ///< source cell index within that block (slab layer: clamped)
    int at;     ///< index along the axis into a face slab: the in-box position,
                ///< or the layer for a slab layer
    int face;   ///< face slab (axis * 2 + side) of a slab layer, or -1
    Real sign;  ///< momentum sign of the axis component
  };

  /// One face slab as read by this load: cell (i, j, k) of the slab is
  /// cells[i + sy * j + sz * k].
  struct SlabView {
    const Cell* cells = nullptr;
    std::size_t sy = 0, sz = 0;
  };

  /// Builds the per-axis fold tables of a load; returns whether any entry
  /// is a slab layer.
  bool build_fold_tables(const Grid& grid, const int origin[3], const BoundaryConditions& bc,
                         const HaloSlabs* halo) {
    const int ncells[3] = {grid.cells_x(), grid.cells_y(), grid.cells_z()};
    if (halo != nullptr && g_ > kGhosts)
      throw PreconditionError("BlockLab: ghosts deeper than the halo slabs");
    bool viewed[6] = {};
    bool slabs = false;
    for (int a = 0; a < 3; ++a) {
      std::vector<Fold>& t = fold_[a];
      for (int i = -g_; i < e_ + g_; ++i) {
        const int c = origin[a] + i;
        const int side = c < 0 ? 0 : c >= ncells[a] ? 1 : -1;
        const int f = a * 2 + side;
        if (side >= 0 && halo != nullptr && halo->neighbor[f]) {
          // Past a rank face with a neighbour: a slab layer, keeping its
          // clamped in-box position for edge and corner ghosts.
          if (!viewed[f]) {
            viewed[f] = slabs = true;
            const std::vector<Cell>& cells = halo->slab(f, ncells);
            const int d0 = a == 0 ? kGhosts : ncells[0];
            const int d1 = a == 1 ? kGhosts : ncells[1];
            slab_[f] = SlabView{cells.data(), static_cast<std::size_t>(d0),
                                static_cast<std::size_t>(d0) * d1};
          }
          const int p = side == 0 ? 0 : ncells[a] - 1;
          t[i + g_] = Fold{p / bs_, p % bs_, side == 0 ? c + kGhosts : c - ncells[a], f,
                           Real(1)};
        } else {
          const FoldedIndex fi = fold_index(c, ncells[a], bc, a);
          t[i + g_] = Fold{fi.i / bs_, fi.i % bs_, fi.i, -1, fi.mom_sign};
        }
      }
    }
    return slabs;
  }

#if MPCF_SIMD_AVX2
  /// In-register 8x8 transpose of 8 AoS cell rows into the 7 quantity
  /// vectors (the transposed column 7 is garbage and is never produced).
  static void transpose8(__m256 r0, __m256 r1, __m256 r2, __m256 r3, __m256 r4,
                         __m256 r5, __m256 r6, __m256 r7,
                         __m256 qv[kNumQuantities]) noexcept {
    const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
    const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
    const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
    const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
    const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
    const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
    const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
    const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
    const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
    const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
    const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
    qv[0] = _mm256_permute2f128_ps(u0, u4, 0x20);
    qv[1] = _mm256_permute2f128_ps(u1, u5, 0x20);
    qv[2] = _mm256_permute2f128_ps(u2, u6, 0x20);
    qv[3] = _mm256_permute2f128_ps(u3, u7, 0x20);
    qv[4] = _mm256_permute2f128_ps(u0, u4, 0x31);
    qv[5] = _mm256_permute2f128_ps(u1, u5, 0x31);
    qv[6] = _mm256_permute2f128_ps(u2, u6, 0x31);
  }
#endif

  /// Transposes `count` consecutive AoS source cells into the SoA quantity
  /// planes at destination offset `o`, scaling the y/z momentum by the row's
  /// fold signs. The workhorse of bulk assembly: interior rows and the
  /// x-interior span of ghost rows are contiguous cell runs in some source
  /// block or face slab and funnel through here.
  void copy_row_transposed(const Cell* src, std::size_t o, int count, Real sy, Real sz) {
    Real* const base = storage_.data();
    int c = 0;
#if MPCF_SIMD_AVX2
    // Groups of 8 cells: row i holds cell i's 7 quantities (the overlapping
    // unaligned load picks up the first float of cell i+1 in lane 7). Row 7
    // uses a masked 7-float load so a group ending on the last cell of a
    // block never reads past its storage.
    const __m256i mask7 = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1, -1, 0);
    const __m256 vsy = _mm256_set1_ps(sy), vsz = _mm256_set1_ps(sz);
    const bool flip = sy != Real(1) || sz != Real(1);
    __m256 qv[kNumQuantities];
    for (; c + 8 <= count; c += 8) {
      const float* fp = &src[c].rho;
      transpose8(_mm256_loadu_ps(fp), _mm256_loadu_ps(fp + 7), _mm256_loadu_ps(fp + 14),
                 _mm256_loadu_ps(fp + 21), _mm256_loadu_ps(fp + 28),
                 _mm256_loadu_ps(fp + 35), _mm256_loadu_ps(fp + 42),
                 _mm256_maskload_ps(fp + 49, mask7), qv);
      if (flip) {
        qv[2] = _mm256_mul_ps(qv[2], vsy);  // rv
        qv[3] = _mm256_mul_ps(qv[3], vsz);  // rw
      }
      for (int k = 0; k < kNumQuantities; ++k)
        _mm256_storeu_ps(base + k * per_q_ + o + c, qv[k]);
    }
#endif
    for (; c < count; ++c) {
      Cell cell = src[c];
      cell.rv *= sy;
      cell.rw *= sz;
      const std::size_t oc = o + c;
      for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + oc] = cell.q(k);
    }
  }

  /// Fills the 2*g x-ghost columns of the interior rows of block row
  /// (jy, jz) — the lab rows of source block row (by, bz) — in one sweep.
  /// The y/z folds are identity on those rows, so each column's source — a
  /// block of the same by/bz at a folded x-cell, or the x slab's layer —
  /// and its momentum sign are constant over the block row and resolve
  /// once; the row loop then copies 2*g cells per row while the destination
  /// cache lines are hot.
  void fill_x_edges(const Grid& grid, const int origin[3], int by, int bz, int jy, int jz) {
    const int ncols = 2 * g_;
    const std::size_t bs = static_cast<std::size_t>(bs_);
    const int y0 = jy * bs_, z0 = jz * bs_;  // the block row's first lab row
    std::vector<XCol>& cols = xcols_;
    for (int j = 0; j < ncols; ++j) {
      const int ix = j < g_ ? j - g_ : e_ + j - g_;
      const Fold& fx = fold_[0][ix + g_];
      const std::size_t doff = static_cast<std::size_t>(j < g_ ? j : e_ + j);
      if (fx.face >= 0) {
        const SlabView& s = slab_[fx.face];
        cols[j] = XCol{s.cells + (fx.at + s.sy * (origin[1] + y0) + s.sz * (origin[2] + z0)),
                       s.sy, s.sz, doff, fx.sign};
      } else {
        cols[j] = XCol{grid.block(fx.block, by, bz).data() + fx.cell, bs, bs * bs, doff,
                       fx.sign};
      }
    }

    Real* const base = storage_.data();
    for (int iz = 0; iz < bs_; ++iz) {
      std::size_t o_row = offset(-g_, y0, z0 + iz);
      for (int iy = 0; iy < bs_; ++iy, o_row += n_) {
        for (int j = 0; j < ncols; ++j) {
          const XCol& cl = cols[j];
          const std::size_t o = o_row + cl.doff;
          Cell c = cl.cells[cl.sy * iy + cl.sz * iz];
          c.ru *= cl.sign;
          for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + o] = c.q(k);
        }
      }
    }
  }

  /// Fills the ghost shell left by the interior rows and fill_x_edges: rows
  /// whose y/z coordinate is itself a ghost. Their x-interior span [0, e)
  /// never folds along x: it is one contiguous run of a y or z slab when
  /// exactly one of the row's y/z coordinates is a slab layer (a slab row
  /// spans the whole rank box), else one run per block of the (folded or
  /// clamped) local block row — k runs from blocks bx.., each through the
  /// same transposed copy as interior rows. `kSlabs`: some fold entry of
  /// this load is a slab layer.
  template <bool kSlabs>
  void fill_ghost_rows(const Grid& grid, int bx, int k, int ox) {
    const int e = e_, bs = bs_;
    for (int iz = -g_; iz < e + g_; ++iz)
      for (int iy = -g_; iy < e + g_; ++iy) {
        if (iy >= 0 && iy < e && iz >= 0 && iz < e) continue;  // interior row
        const Fold& fy = fold_[1][iy + g_];
        const Fold& fz = fold_[2][iz + g_];
        fill_ghost_span<kSlabs>(grid, -g_, 0, iy, iz);
        if (kSlabs && (fy.face >= 0) != (fz.face >= 0)) {
          const SlabView& s = slab_[fy.face >= 0 ? fy.face : fz.face];
          copy_row_transposed(s.cells + (ox + s.sy * fy.at + s.sz * fz.at), offset(0, iy, iz),
                              e, fy.sign, fz.sign);
        } else {
          for (int jx = 0; jx < k; ++jx)
            copy_row_transposed(&grid.block(bx + jx, fy.block, fz.block)(0, fy.cell, fz.cell),
                                offset(jx * bs, iy, iz), bs, fy.sign, fz.sign);
        }
        fill_ghost_span<kSlabs>(grid, e, e + g_, iy, iz);
      }
  }

  /// Fills lab cells [x0, x1) of row (iy, iz); every cell in the span is an
  /// x ghost. A cell crossing exactly one rank face with a neighbour reads
  /// that face's slab; any other reads the local fold-table position, with
  /// the source-block lookup hoisted across runs of constant x-block.
  template <bool kSlabs>
  void fill_ghost_span(const Grid& grid, int x0, int x1, int iy, int iz) {
    const Fold& fy = fold_[1][iy + g_];
    const Fold& fz = fold_[2][iz + g_];
    const int row_slabs = (fy.face >= 0) + (fz.face >= 0);
    const int row_face = fy.face >= 0 ? fy.face : fz.face;  // read when row_slabs == 1
    const std::size_t in_block_yz =
        static_cast<std::size_t>(bs_) * (fy.cell + static_cast<std::size_t>(bs_) * fz.cell);
    Real* const base = storage_.data();

    const Cell* block_cells = nullptr;
    int cached_bx = -1;
    const Fold* const fxs = fold_[0].data() + g_;
    std::size_t o = offset(x0, iy, iz);
    for (int ix = x0; ix < x1; ++ix, ++o) {
      const Fold& fx = fxs[ix];
      Cell c;
      if (kSlabs && (fx.face >= 0) + row_slabs == 1) {
        const SlabView& s = slab_[fx.face >= 0 ? fx.face : row_face];
        c = s.cells[fx.at + s.sy * fy.at + s.sz * fz.at];
      } else {
        if (fx.block != cached_bx) {
          cached_bx = fx.block;
          block_cells = grid.block(fx.block, fy.block, fz.block).data();
        }
        c = block_cells[fx.cell + in_block_yz];
      }
      c.ru *= fx.sign;
      c.rv *= fy.sign;
      c.rw *= fz.sign;
      for (int k = 0; k < kNumQuantities; ++k) base[k * per_q_ + o] = c.q(k);
    }
  }

  int cap_ = 0;  ///< largest edge the storage holds
  int e_ = 0;    ///< interior edge of the current shape
  int bs_ = 0;   ///< source block size of the last load
  int g_ = 0, n_ = 0;
  std::size_t per_q_ = 0;
  AlignedBuffer<Real> storage_;
  std::vector<Fold> fold_[3];  ///< per-axis fold tables, rebuilt per load
  std::vector<XCol> xcols_;    ///< fill_x_edges columns, rebuilt per block row
  SlabView slab_[6];           ///< face slabs the last load read (cluster layer)
};

}  // namespace mpcf
