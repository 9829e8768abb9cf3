// 8-wide SIMD abstraction: the AVX2+FMA retarget of the QPX-style operation
// surface defined by vec4 (paper Section 8.1, performance portability — the
// same kernel expression trees recompile against a wider ISA). The op set
// mirrors vec4 exactly: fused multiply-add, conditional selection, absolute
// value, lane rotation and horizontal reductions.
//
// Two backends: AVX2 (__m256, requires -mavx2 -mfma at compile time) and a
// portable 8-lane scalar fallback that keeps every instantiation compiling —
// and differentially testable — on SSE-only builds.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define MPCF_SIMD_AVX2 1
#else
#define MPCF_SIMD_AVX2 0
#endif

namespace mpcf::simd {

#if MPCF_SIMD_AVX2

/// 8 x float vector, AVX2 backend.
struct vec8 {
  __m256 v;

  vec8() = default;
  explicit vec8(__m256 x) : v(x) {}
  explicit vec8(float x) : v(_mm256_set1_ps(x)) {}
  vec8(float a, float b, float c, float d, float e, float f, float g, float h)
      : v(_mm256_setr_ps(a, b, c, d, e, f, g, h)) {}

  static vec8 zero() { return vec8(_mm256_setzero_ps()); }
  static vec8 load(const float* p) { return vec8(_mm256_load_ps(p)); }
  static vec8 loadu(const float* p) { return vec8(_mm256_loadu_ps(p)); }
  void store(float* p) const { _mm256_store_ps(p, v); }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }

  float operator[](int i) const {
    alignas(32) float tmp[8];
    _mm256_store_ps(tmp, v);
    return tmp[i];
  }
};

inline vec8 operator+(vec8 a, vec8 b) { return vec8(_mm256_add_ps(a.v, b.v)); }
inline vec8 operator-(vec8 a, vec8 b) { return vec8(_mm256_sub_ps(a.v, b.v)); }
inline vec8 operator*(vec8 a, vec8 b) { return vec8(_mm256_mul_ps(a.v, b.v)); }
inline vec8 operator/(vec8 a, vec8 b) { return vec8(_mm256_div_ps(a.v, b.v)); }
inline vec8 operator-(vec8 a) { return vec8(_mm256_sub_ps(_mm256_setzero_ps(), a.v)); }

/// a*b + c — hardware FMA (guaranteed: the backend requires __FMA__).
inline vec8 fmadd(vec8 a, vec8 b, vec8 c) {
  return vec8(_mm256_fmadd_ps(a.v, b.v, c.v));
}

/// c - a*b.
inline vec8 fnmadd(vec8 a, vec8 b, vec8 c) {
  return vec8(_mm256_fnmadd_ps(a.v, b.v, c.v));
}

inline vec8 min(vec8 a, vec8 b) { return vec8(_mm256_min_ps(a.v, b.v)); }
inline vec8 max(vec8 a, vec8 b) { return vec8(_mm256_max_ps(a.v, b.v)); }
inline vec8 sqrt(vec8 a) { return vec8(_mm256_sqrt_ps(a.v)); }

/// |a| — mask off the sign bit.
inline vec8 abs(vec8 a) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  return vec8(_mm256_and_ps(a.v, mask));
}

/// Lane-wise a < b ? x : y.
inline vec8 select_lt(vec8 a, vec8 b, vec8 x, vec8 y) {
  const __m256 m = _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ);
  return vec8(_mm256_blendv_ps(y.v, x.v, m));
}

/// Inter-lane rotation: (a1..a7, b0), the 8-wide stencil shift.
inline vec8 rotate1(vec8 a, vec8 b) {
  const __m256i idx = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  const __m256 r = _mm256_permutevar8x32_ps(a.v, idx);
  const __m256 b0 = _mm256_permutevar8x32_ps(b.v, _mm256_setzero_si256());
  return vec8(_mm256_blend_ps(r, b0, 0x80));
}

/// Horizontal maximum of the eight lanes.
inline float hmax(vec8 a) {
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(a.v), _mm256_extractf128_ps(a.v, 1));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(2, 3, 0, 1)));
  m = _mm_max_ps(m, _mm_shuffle_ps(m, m, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(m);
}

/// Horizontal sum of the eight lanes.
inline float hsum(vec8 a) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(a.v), _mm256_extractf128_ps(a.v, 1));
  s = _mm_add_ps(s, _mm_shuffle_ps(s, s, _MM_SHUFFLE(2, 3, 0, 1)));
  s = _mm_add_ps(s, _mm_shuffle_ps(s, s, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(s);
}

#else  // 8-lane scalar fallback (SSE-only / non-x86 builds)

struct vec8 {
  float v[8];

  vec8() = default;
  explicit vec8(float x) : v{x, x, x, x, x, x, x, x} {}
  vec8(float a, float b, float c, float d, float e, float f, float g, float h)
      : v{a, b, c, d, e, f, g, h} {}

  static vec8 zero() { return vec8(0.0f); }
  static vec8 load(const float* p) {
    vec8 r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  static vec8 loadu(const float* p) { return load(p); }
  void store(float* p) const { std::memcpy(p, v, sizeof(v)); }
  void storeu(float* p) const { store(p); }

  float operator[](int i) const { return v[i]; }
};

#define MPCF_LANEWISE8(expr)                                       \
  vec8 r;                                                          \
  for (int i = 0; i < 8; ++i) r.v[i] = (expr);                     \
  return r

inline vec8 operator+(vec8 a, vec8 b) { MPCF_LANEWISE8(a.v[i] + b.v[i]); }
inline vec8 operator-(vec8 a, vec8 b) { MPCF_LANEWISE8(a.v[i] - b.v[i]); }
inline vec8 operator*(vec8 a, vec8 b) { MPCF_LANEWISE8(a.v[i] * b.v[i]); }
inline vec8 operator/(vec8 a, vec8 b) { MPCF_LANEWISE8(a.v[i] / b.v[i]); }
inline vec8 operator-(vec8 a) { MPCF_LANEWISE8(-a.v[i]); }
inline vec8 fmadd(vec8 a, vec8 b, vec8 c) { MPCF_LANEWISE8(a.v[i] * b.v[i] + c.v[i]); }
inline vec8 fnmadd(vec8 a, vec8 b, vec8 c) { MPCF_LANEWISE8(c.v[i] - a.v[i] * b.v[i]); }
inline vec8 min(vec8 a, vec8 b) { MPCF_LANEWISE8(a.v[i] < b.v[i] ? a.v[i] : b.v[i]); }
inline vec8 max(vec8 a, vec8 b) { MPCF_LANEWISE8(a.v[i] > b.v[i] ? a.v[i] : b.v[i]); }
inline vec8 sqrt(vec8 a) { MPCF_LANEWISE8(std::sqrt(a.v[i])); }
inline vec8 abs(vec8 a) { MPCF_LANEWISE8(std::fabs(a.v[i])); }
inline vec8 select_lt(vec8 a, vec8 b, vec8 x, vec8 y) {
  MPCF_LANEWISE8(a.v[i] < b.v[i] ? x.v[i] : y.v[i]);
}
inline vec8 rotate1(vec8 a, vec8 b) {
  return vec8(a.v[1], a.v[2], a.v[3], a.v[4], a.v[5], a.v[6], a.v[7], b.v[0]);
}

#undef MPCF_LANEWISE8

inline float hmax(vec8 a) {
  float m = a.v[0];
  for (int i = 1; i < 8; ++i) m = a.v[i] > m ? a.v[i] : m;
  return m;
}
inline float hsum(vec8 a) {
  float s = a.v[0];
  for (int i = 1; i < 8; ++i) s += a.v[i];
  return s;
}

#endif

/// Reciprocal via division (exact form, matching vec4 / scalar semantics).
inline vec8 rcp(vec8 a) { return vec8(1.0f) / a; }

}  // namespace mpcf::simd
