// Weighted Essentially Non-Oscillatory reconstruction (Jiang & Shu 1996,
// ref [42] of the paper) of primitive quantities, cell-centred: one
// evaluation per cell computes its smoothness indicators and nonlinear
// weights once and returns the reconstructed values at both of its faces.
// The face-centred forms (weno5_minus/weno5_plus and the WENO3 pair) are
// views of the same evaluation. Templated over the scalar type so the
// identical expression tree runs in `float` (reference) and `simd::vec4` /
// `simd::vec8` form.
//
// Mirror symmetry is exact by construction: the right face of (a,b,c,d,e)
// and the left face of (e,d,c,b,a) run the same operations on the same
// operands, so a quiescent field reconstructs identical states on both
// sides of every face.
#pragma once

#include "simd/scalar_ops.h"
#include "simd/vec4.h"

namespace mpcf::kernels {

/// A cell's two reconstructed face values: `left` at its low face i-1/2
/// (the right-biased "plus" state of that face) and `right` at its high
/// face i+1/2 (the left-biased "minus" state).
template <typename T>
struct CellFaces {
  T left, right;
};

/// FLOPs of one weno5_cell evaluation, both faces (counted from the
/// expressions below, an FMA as 2; tests/test_weno.cpp counts them by
/// instantiation). Used by the perf models.
inline constexpr int kWenoFlops = 92;
/// FMAs among them (each counted as 2 in kWenoFlops).
inline constexpr int kWenoFmas = 22;

/// FLOPs of one weno3_cell evaluation, both faces.
inline constexpr int kWeno3Flops = 34;

namespace detail {

/// Smoothness indicator of the one-sided stencil (x, y, z) whose end z is
/// the reconstructed cell: 13/12 (x - 2y + z)^2 + 1/4 (x - 4y + 3z)^2.
template <typename T>
[[nodiscard]] inline T weno5_beta_side(T x, T y, T z) {
  using simd::fmadd;
  const T s1 = fmadd(T(-2.0f), y, x + z);
  const T s2 = fmadd(T(-4.0f), y, fmadd(T(3.0f), z, x));
  return fmadd(T(13.0f / 12.0f) * s1, s1, T(0.25f) * s2 * s2);
}

/// Value at the face between c and d from the stencil weights w_k =
/// 1/(eps + beta_k)^2 of S0=(a,b,c), S1=(b,c,d), S2=(c,d,e).
template <typename T>
[[nodiscard]] inline T weno5_face(T w0, T w1, T w2, T a, T b, T c, T d, T e) {
  using simd::fmadd;
  const T alpha0 = T(0.1f) * w0;
  const T alpha1 = T(0.6f) * w1;
  const T alpha2 = T(0.3f) * w2;
  // Candidate values times 6.
  const T q0 = fmadd(T(2.0f), a, fmadd(T(-7.0f), b, T(11.0f) * c));
  const T q1 = fmadd(T(2.0f), d, T(5.0f) * c) - b;
  const T q2 = fmadd(T(5.0f), d, T(2.0f) * c) - e;
  const T num = fmadd(alpha0, q0, fmadd(alpha1, q1, alpha2 * q2));
  const T den = T(6.0f) * (alpha0 + alpha1 + alpha2);
  return num / den;
}

/// WENO3 value at the face between b and c from the weights of the
/// stencils (a,b) and (b,c).
template <typename T>
[[nodiscard]] inline T weno3_face(T w0, T w1, T a, T b, T c) {
  using simd::fmadd;
  const T alpha0 = T(1.0f / 3.0f) * w0;
  const T alpha1 = T(2.0f / 3.0f) * w1;
  const T q0 = fmadd(T(1.5f), b, T(-0.5f) * a);
  const T q1 = T(0.5f) * (b + c);
  return fmadd(alpha0, q0, alpha1 * q1) / (alpha0 + alpha1);
}

}  // namespace detail

/// Fifth-order reconstruction of cell c from a=q[i-2], b=q[i-1], c=q[i],
/// d=q[i+1], e=q[i+2]: both face values from one set of indicators.
template <typename T>
[[nodiscard]] inline CellFaces<T> weno5_cell(T a, T b, T c, T d, T e) {
  using simd::fmadd;
  const T eps = T(1e-6f);
  const T i0 = eps + detail::weno5_beta_side(a, b, c);
  const T s1a = fmadd(T(-2.0f), c, b + d);
  const T s1b = b - d;
  const T i1 = eps + fmadd(T(13.0f / 12.0f) * s1a, s1a, T(0.25f) * s1b * s1b);
  const T i2 = eps + detail::weno5_beta_side(e, d, c);
  const T w0 = T(1.0f) / (i0 * i0);
  const T w1 = T(1.0f) / (i1 * i1);
  const T w2 = T(1.0f) / (i2 * i2);
  return {detail::weno5_face(w2, w1, w0, e, d, c, b, a),
          detail::weno5_face(w0, w1, w2, a, b, c, d, e)};
}

/// Left-biased reconstruction at face i+1/2 from cells
/// a=q[i-2], b=q[i-1], c=q[i], d=q[i+1], e=q[i+2]: cell i's right face.
template <typename T>
[[nodiscard]] inline T weno5_minus(T a, T b, T c, T d, T e) {
  return weno5_cell(a, b, c, d, e).right;
}

/// Right-biased reconstruction at face i+1/2 from cells
/// a=q[i-1], b=q[i], c=q[i+1], d=q[i+2], e=q[i+3]: cell i+1's left face.
template <typename T>
[[nodiscard]] inline T weno5_plus(T a, T b, T c, T d, T e) {
  return weno5_cell(a, b, c, d, e).left;
}

/// Third-order reconstruction of cell b from a=q[i-1], b=q[i], c=q[i+1]:
/// the low-order comparator of the spatial-order ablation (the paper's
/// Section 5 key decision argues for the higher order).
template <typename T>
[[nodiscard]] inline CellFaces<T> weno3_cell(T a, T b, T c) {
  const T eps = T(1e-6f);
  const T d0 = b - a;
  const T d1 = c - b;
  const T i0 = eps + d0 * d0;
  const T i1 = eps + d1 * d1;
  const T w0 = T(1.0f) / (i0 * i0);
  const T w1 = T(1.0f) / (i1 * i1);
  return {detail::weno3_face(w1, w0, c, b, a), detail::weno3_face(w0, w1, a, b, c)};
}

/// Left-biased WENO3 value at face i+1/2 from a=q[i-1], b=q[i], c=q[i+1].
template <typename T>
[[nodiscard]] inline T weno3_minus(T a, T b, T c) {
  return weno3_cell(a, b, c).right;
}

/// Right-biased WENO3 value at face i-1/2 from a=q[i-1], b=q[i], c=q[i+1].
template <typename T>
[[nodiscard]] inline T weno3_plus(T a, T b, T c) {
  return weno3_cell(a, b, c).left;
}

}  // namespace mpcf::kernels
