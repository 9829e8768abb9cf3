// RHS kernel: evaluates the flux divergence of the governing equations for
// one block and accumulates it into the block's low-storage Runge-Kutta
// buffer:  tmp <- a * tmp + RHS(lab).
//
// The evaluation follows the paper's staged pipeline (Fig. 1, right):
//   CONV  conserved -> primitive on the ghost-extended lab,
//   WENO  cell-centred reconstruction of primitives: one evaluation per cell
//         yields the values at both of its faces (x/y/z directional sweeps),
//   HLLE  numerical flux at faces,
//   SUM   flux-difference accumulation (+ the Gamma/Pi divergence fix),
//   BACK  write-back into the block AoS tmp area.
//
// Every shape runs the same cell reconstruction, HLLE flux and divergence:
//   kScalar    float instantiation (the paper's "C++" column, Table 7),
//   kSimd      staged: a whole sweep's face values are stored to block-wide
//              face buffers before the HLLE pass reads them back (the
//              "baseline" of Table 9),
//   kSimdFused micro-fused: WENO, HLLE and SUM run back to back per row of
//              cells, passing face values and fluxes through an
//              L1-resident line buffer (the "fused" column of Table 9).
// The vector shapes (kSimd/kSimdFused) additionally instantiate at a
// vector width — vec4 (SSE, the paper's QPX conversion) or vec8
// (AVX2+FMA, the Section 8.1 retarget) — selected at runtime by
// simd::dispatch_width() unless pinned.
//
// The x sweep writes each interior cell's divergence once, acc = F[x] -
// F[x+1]; the y and z sweeps add theirs in the same face order, so no
// accumulator is zeroed and no ghost cell of one is ever written or read.
#pragma once

#include "common/field3d.h"
#include "grid/block.h"
#include "grid/lab.h"
#include "simd/dispatch.h"

namespace mpcf::kernels {

enum class KernelImpl { kScalar, kSimd, kSimdFused };

/// Per-thread scratch for one block evaluation: ghost-extended primitive
/// arrays, flux-difference accumulators, the line buffer and the staged
/// shape's face buffers.
class RhsWorkspace {
 public:
  void resize(int bs, int ghosts = kGhosts);

  [[nodiscard]] int block_size() const noexcept { return bs_; }
  [[nodiscard]] int ghosts() const noexcept { return g_; }
  [[nodiscard]] int extent() const noexcept { return n_; }

  /// Primitive array q in {r,u,v,w,p,G,P} order; same ghost layout as a lab.
  [[nodiscard]] Real* prim(int q) noexcept { return prim_[q].data(); }
  [[nodiscard]] const Real* prim(int q) const noexcept { return prim_[q].data(); }
  /// Flux-difference accumulator for conserved component q; only interior
  /// cells hold values.
  [[nodiscard]] Real* acc(int q) noexcept { return acc_[q].data(); }
  /// Accumulator of the face-velocity differences (Gamma/Pi correction).
  [[nodiscard]] Real* ustar() noexcept { return ustar_.data(); }
  /// Staged face buffer r in [0, 14): right/left face values of the 7
  /// primitives for every cell of one directional sweep, bs+2 per line.
  [[nodiscard]] Real* face(int r) noexcept { return faces_[r].data(); }
  /// Row r in [0, 22) of the line buffer: right/left face values of the 7
  /// primitives (of an x row's cells, or per column of the last y/z row of
  /// cells; fused shape only), then 8 face-flux rows (7 components + ustar).
  [[nodiscard]] Real* line(int r) noexcept {
    return line_.data() + static_cast<std::size_t>(r) * line_stride_;
  }

  /// Offset of cell (ix,iy,iz), block-local, ghosts included (ix >= -g).
  [[nodiscard]] std::size_t offset(int ix, int iy, int iz) const noexcept {
    return (ix + g_) +
           static_cast<std::size_t>(n_) *
               ((iy + g_) + static_cast<std::size_t>(n_) * (iz + g_));
  }

 private:
  /// Rows of the line buffer.
  static constexpr int kLineRows = 3 * kNumQuantities + 1;

  int bs_ = 0, g_ = 0, n_ = 0;
  std::size_t line_stride_ = 0;
  Field3D<Real> prim_[kNumQuantities];
  Field3D<Real> acc_[kNumQuantities];
  Field3D<Real> ustar_;
  AlignedBuffer<Real> faces_[2 * kNumQuantities];
  AlignedBuffer<Real> line_;
};

/// CONV stage alone (exposed for tests and the stage-weight benchmarks).
/// `width` pins the vector width of the kSimd*/kSimdFused shapes (kAuto =
/// runtime dispatch); kScalar ignores it.
void convert_to_primitive(const BlockLab& lab, RhsWorkspace& ws, KernelImpl impl,
                          simd::Width width = simd::Width::kAuto);

/// Full RHS evaluation of one block: block.tmp <- a * block.tmp + RHS.
/// `h` is the cell spacing; `lab` must hold the block plus WENO ghosts.
/// `weno_order` selects the reconstruction (5 = production, 3 = ablation).
/// `width` pins the vector width (kAuto = runtime dispatch; ignored by
/// kScalar).
void rhs_block(const BlockLab& lab, Real h, Real a, Block& block, RhsWorkspace& ws,
               KernelImpl impl = KernelImpl::kSimdFused, int weno_order = 5,
               simd::Width width = simd::Width::kAuto);

/// Analytic FLOP count of one rhs_block call (for GFLOP/s reporting).
[[nodiscard]] double rhs_flops(int bs);

}  // namespace mpcf::kernels
