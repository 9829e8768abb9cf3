// Floating-point mode of kernel threads: subnormals flush to zero.
//
// Subnormal operands and results take a microcode assist on x86 (tens to
// hundreds of cycles each), and a far field at rest can produce them from
// round-off alone: tiny momenta, and WENO weights of steep stencils. Every
// thread that runs kernel arithmetic on simulation state therefore enters
// FlushSubnormals, which sets MXCSR FTZ (results) and DAZ (operands) and
// restores the caller's MXCSR on exit. Because all of them run in the same
// mode, the fused step graph, the staged oracle and every rank produce the
// same bits; the mode is not configurable.
#pragma once

#include "simd/vec4.h"  // MPCF_SIMD_SSE + <immintrin.h>

namespace mpcf::simd {

/// Scoped FTZ|DAZ for the calling thread (a no-op off x86). Nests: an inner
/// scope entered with the mode already set leaves MXCSR untouched.
class FlushSubnormals {
 public:
  FlushSubnormals() noexcept {
#if MPCF_SIMD_SSE
    saved_ = _mm_getcsr();
    if ((saved_ & kFtzDaz) != kFtzDaz) _mm_setcsr(saved_ | kFtzDaz);
#endif
  }
  ~FlushSubnormals() {
#if MPCF_SIMD_SSE
    if ((saved_ & kFtzDaz) != kFtzDaz) _mm_setcsr(saved_);
#endif
  }
  FlushSubnormals(const FlushSubnormals&) = delete;
  FlushSubnormals& operator=(const FlushSubnormals&) = delete;

  /// MXCSR bits set while a scope is active: FTZ (bit 15) | DAZ (bit 6).
  static constexpr unsigned kFtzDaz = 0x8040u;

 private:
  [[maybe_unused]] unsigned saved_ = 0;
};

}  // namespace mpcf::simd
