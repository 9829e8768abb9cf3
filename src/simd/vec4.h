// 4-wide SIMD abstraction mirroring the QPX instruction surface the paper's
// kernels are written against (Section 6, "Enhancing DLP"; Section 8.1,
// performance portability): fused multiply-add, inter-lane permutation,
// conditional selection and absolute value, plus the usual arithmetic.
//
// Two backends: SSE (__m128, used whenever SSE2 is available — the paper's
// own QPX->SSE macro conversion) and a portable scalar fallback that is
// bit-identical in operation order, used for differential testing.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <immintrin.h>
#define MPCF_SIMD_SSE 1
#else
#define MPCF_SIMD_SSE 0
#endif

namespace mpcf::simd {

#if MPCF_SIMD_SSE

/// 4 x float vector, SSE backend.
struct vec4 {
  __m128 v;

  vec4() = default;
  explicit vec4(__m128 x) : v(x) {}
  explicit vec4(float x) : v(_mm_set1_ps(x)) {}
  vec4(float a, float b, float c, float d) : v(_mm_setr_ps(a, b, c, d)) {}

  static vec4 zero() { return vec4(_mm_setzero_ps()); }
  static vec4 load(const float* p) { return vec4(_mm_load_ps(p)); }
  static vec4 loadu(const float* p) { return vec4(_mm_loadu_ps(p)); }
  void store(float* p) const { _mm_store_ps(p, v); }
  void storeu(float* p) const { _mm_storeu_ps(p, v); }

  float operator[](int i) const {
    alignas(16) float tmp[4];
    _mm_store_ps(tmp, v);
    return tmp[i];
  }
};

inline vec4 operator+(vec4 a, vec4 b) { return vec4(_mm_add_ps(a.v, b.v)); }
inline vec4 operator-(vec4 a, vec4 b) { return vec4(_mm_sub_ps(a.v, b.v)); }
inline vec4 operator*(vec4 a, vec4 b) { return vec4(_mm_mul_ps(a.v, b.v)); }
inline vec4 operator/(vec4 a, vec4 b) { return vec4(_mm_div_ps(a.v, b.v)); }
inline vec4 operator-(vec4 a) { return vec4(_mm_sub_ps(_mm_setzero_ps(), a.v)); }

/// a*b + c — maps to a hardware FMA where available (QPX fmadd analogue).
inline vec4 fmadd(vec4 a, vec4 b, vec4 c) {
#if defined(__FMA__)
  return vec4(_mm_fmadd_ps(a.v, b.v, c.v));
#else
  return vec4(_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v));
#endif
}

/// c - a*b (QPX fnmsub-style combination).
inline vec4 fnmadd(vec4 a, vec4 b, vec4 c) {
#if defined(__FMA__)
  return vec4(_mm_fnmadd_ps(a.v, b.v, c.v));
#else
  return vec4(_mm_sub_ps(c.v, _mm_mul_ps(a.v, b.v)));
#endif
}

inline vec4 min(vec4 a, vec4 b) { return vec4(_mm_min_ps(a.v, b.v)); }
inline vec4 max(vec4 a, vec4 b) { return vec4(_mm_max_ps(a.v, b.v)); }
inline vec4 sqrt(vec4 a) { return vec4(_mm_sqrt_ps(a.v)); }

/// |a| — QPX has a native abs; SSE emulates by masking the sign bit.
inline vec4 abs(vec4 a) {
  const __m128 mask = _mm_castsi128_ps(_mm_set1_epi32(0x7fffffff));
  return vec4(_mm_and_ps(a.v, mask));
}

/// Lane-wise a < b ? x : y (QPX conditional select).
inline vec4 select_lt(vec4 a, vec4 b, vec4 x, vec4 y) {
  const __m128 m = _mm_cmplt_ps(a.v, b.v);
  return vec4(_mm_or_ps(_mm_and_ps(m, x.v), _mm_andnot_ps(m, y.v)));
}

/// Inter-lane permutation: rotate left by one lane (a1,a2,a3,b0). Mirrors the
/// QPX qvaligni used for stencil shifts across register boundaries.
inline vec4 rotate1(vec4 a, vec4 b) {
  // (a1,a2,a3,a0) then insert b0 into lane 3.
  const __m128 r = _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(0, 3, 2, 1));
  const __m128 bl = _mm_shuffle_ps(b.v, b.v, _MM_SHUFFLE(0, 0, 0, 0));
  const __m128 m = _mm_castsi128_ps(_mm_setr_epi32(-1, -1, -1, 0));
  return vec4(_mm_or_ps(_mm_and_ps(m, r), _mm_andnot_ps(m, bl)));
}

/// Horizontal maximum of the four lanes.
inline float hmax(vec4 a) {
  __m128 m = _mm_max_ps(a.v, _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(2, 3, 0, 1)));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(m);
}

/// Horizontal sum of the four lanes.
inline float hsum(vec4 a) {
  __m128 s = _mm_add_ps(a.v, _mm_shuffle_ps(a.v, a.v, _MM_SHUFFLE(2, 3, 0, 1)));
  s = _mm_add_ps(s, _mm_shuffle_ps(s, s, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(s);
}

#else  // scalar backend

struct vec4 {
  float v[4];

  vec4() = default;
  explicit vec4(float x) : v{x, x, x, x} {}
  vec4(float a, float b, float c, float d) : v{a, b, c, d} {}

  static vec4 zero() { return vec4(0.0f); }
  static vec4 load(const float* p) { return vec4(p[0], p[1], p[2], p[3]); }
  static vec4 loadu(const float* p) { return load(p); }
  void store(float* p) const { std::memcpy(p, v, sizeof(v)); }
  void storeu(float* p) const { store(p); }

  float operator[](int i) const { return v[i]; }
};

#define MPCF_LANEWISE(expr)                                        \
  vec4 r;                                                          \
  for (int i = 0; i < 4; ++i) r.v[i] = (expr);                     \
  return r

inline vec4 operator+(vec4 a, vec4 b) { MPCF_LANEWISE(a.v[i] + b.v[i]); }
inline vec4 operator-(vec4 a, vec4 b) { MPCF_LANEWISE(a.v[i] - b.v[i]); }
inline vec4 operator*(vec4 a, vec4 b) { MPCF_LANEWISE(a.v[i] * b.v[i]); }
inline vec4 operator/(vec4 a, vec4 b) { MPCF_LANEWISE(a.v[i] / b.v[i]); }
inline vec4 operator-(vec4 a) { MPCF_LANEWISE(-a.v[i]); }
inline vec4 fmadd(vec4 a, vec4 b, vec4 c) { MPCF_LANEWISE(a.v[i] * b.v[i] + c.v[i]); }
inline vec4 fnmadd(vec4 a, vec4 b, vec4 c) { MPCF_LANEWISE(c.v[i] - a.v[i] * b.v[i]); }
inline vec4 min(vec4 a, vec4 b) { MPCF_LANEWISE(a.v[i] < b.v[i] ? a.v[i] : b.v[i]); }
inline vec4 max(vec4 a, vec4 b) { MPCF_LANEWISE(a.v[i] > b.v[i] ? a.v[i] : b.v[i]); }
inline vec4 sqrt(vec4 a) { MPCF_LANEWISE(std::sqrt(a.v[i])); }
inline vec4 abs(vec4 a) { MPCF_LANEWISE(std::fabs(a.v[i])); }
inline vec4 select_lt(vec4 a, vec4 b, vec4 x, vec4 y) {
  MPCF_LANEWISE(a.v[i] < b.v[i] ? x.v[i] : y.v[i]);
}
inline vec4 rotate1(vec4 a, vec4 b) { return vec4(a.v[1], a.v[2], a.v[3], b.v[0]); }

#undef MPCF_LANEWISE

inline float hmax(vec4 a) {
  float m = a.v[0];
  for (int i = 1; i < 4; ++i) m = a.v[i] > m ? a.v[i] : m;
  return m;
}
inline float hsum(vec4 a) { return a.v[0] + a.v[1] + a.v[2] + a.v[3]; }

#endif

/// Reciprocal via division (full precision; QPX kernels used reciprocal
/// estimates + Newton steps, we keep the exact form for testability).
inline vec4 rcp(vec4 a) { return vec4(1.0f) / a; }

inline constexpr int kLanes = 4;

}  // namespace mpcf::simd
