// Scalar counterparts of the vec4 operation surface. The WENO/HLLE kernel
// templates are written once against this op set and instantiated for both
// `float` (the paper's "C++" baseline of Table 7) and `simd::vec4` (the
// "QPX" column, here SSE).
#pragma once

#include <algorithm>
#include <cmath>

namespace mpcf::simd {

/// a*b + c, a hardware FMA where the target has one (as in the vector
/// backends): an explicit fused op leaves the compiler no contraction
/// choice, so every instantiation of an expression rounds the same way.
inline float fmadd(float a, float b, float c) {
#if defined(__FMA__)
  return __builtin_fmaf(a, b, c);
#else
  return a * b + c;
#endif
}
inline float fnmadd(float a, float b, float c) {
#if defined(__FMA__)
  return __builtin_fmaf(-a, b, c);
#else
  return c - a * b;
#endif
}
inline float min(float a, float b) { return std::min(a, b); }
inline float max(float a, float b) { return std::max(a, b); }
inline float sqrt(float a) { return std::sqrt(a); }
inline float abs(float a) { return std::fabs(a); }
inline float select_lt(float a, float b, float x, float y) { return a < b ? x : y; }
inline float rcp(float a) { return 1.0f / a; }

}  // namespace mpcf::simd
