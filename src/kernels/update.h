// UP kernel (paper Fig. 1): the low-storage Runge-Kutta state update
// u <- u + b*dt * du. Pure streaming axpy over the block storage — the
// paper's lowest operational-intensity kernel (0.2 FLOP/B, Table 3), which
// is why it stays at ~2% of peak regardless of vectorization (Table 7).
//
// Every width computes each element as one explicit fused multiply-add,
// simd::fmadd(b*dt, du, u), in the vector body and the scalar tail alike, so
// the result is bitwise-identical across widths and optimization levels
// (no contraction choice is left to the compiler). Stores are regular,
// cache-allocating stores: non-temporal stores measured slower on a
// 1.41 GB out-of-cache grid at 4 threads (DESIGN.md §9).
#pragma once

#include "grid/block.h"
#include "simd/dispatch.h"

namespace mpcf::kernels {

/// Store flavour of the update axpy, as reported in UpdateChoice.
enum class UpdateVariant {
  kRegular = 0,  ///< plain (cache-allocating) stores
};

/// Scalar reference: data += bdt * tmp, all quantities, all cells.
void update_block(Block& block, Real bdt);

/// Vectorized implementation; `width` pins the backend, kAuto resolves to
/// the widest backend the host executes (or the MPCF_SIMD_WIDTH pin).
void update_block_simd(Block& block, Real bdt, simd::Width width = simd::Width::kAuto);

/// What update_block_simd runs as under the given width request. Exposed
/// so benches can report it; the choice depends on the width request and
/// the host only — never on timing, nor on the block edge `bs`.
struct UpdateChoice {
  simd::Width width;
  UpdateVariant variant;
};
[[nodiscard]] UpdateChoice update_auto_choice(int bs, simd::Width requested);

/// Analytic FLOP count of one block update.
[[nodiscard]] double update_flops(int bs);

}  // namespace mpcf::kernels
