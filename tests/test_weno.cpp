// Unit/property tests for the WENO5 reconstruction.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <random>
#include <type_traits>
#include <vector>

#include "kernels/weno.h"
#include "simd/vec8.h"

namespace mpcf::kernels {
namespace {

TEST(Weno5, ExactOnConstants) {
  EXPECT_NEAR(weno5_minus(3.0f, 3.0f, 3.0f, 3.0f, 3.0f), 3.0f, 1e-6f);
  EXPECT_NEAR(weno5_plus(3.0f, 3.0f, 3.0f, 3.0f, 3.0f), 3.0f, 1e-6f);
}

// With cell centers at -2,-1,0,1,2 (unit spacing), the face sits at +1/2 for
// the minus stencil and at -1/2 for the plus stencil written as
// weno5_plus(q[-1]..q[+3]) — here we evaluate both via cell *averages* of
// polynomials, for which the reconstruction must be exact up to degree 2.
double cell_avg_poly(double center, double c0, double c1, double c2) {
  // integral of c0 + c1 x + c2 x^2 over [center-1/2, center+1/2]
  return c0 + c1 * center + c2 * (center * center + 1.0 / 12.0);
}

TEST(Weno5, ExactOnLinearAverages) {
  const double c0 = 0.7, c1 = -1.3;
  float q[5];
  for (int i = 0; i < 5; ++i)
    q[i] = static_cast<float>(cell_avg_poly(i - 2.0, c0, c1, 0.0));
  const double face = c0 + c1 * 0.5;  // point value at x=1/2
  EXPECT_NEAR(weno5_minus(q[0], q[1], q[2], q[3], q[4]), face, 1e-5);
}

TEST(Weno5, ExactOnQuadraticAverages) {
  const double c0 = 0.2, c1 = 0.9, c2 = 0.4;
  float q[5];
  for (int i = 0; i < 5; ++i)
    q[i] = static_cast<float>(cell_avg_poly(i - 2.0, c0, c1, c2));
  const double face = c0 + c1 * 0.5 + c2 * 0.25;
  EXPECT_NEAR(weno5_minus(q[0], q[1], q[2], q[3], q[4]), face, 2e-5);
}

// Both faces of the cell routine on polynomial averages: the left face sits
// at -1/2 and the right face at +1/2 of the centre cell.
TEST(Weno5Cell, BothFacesExactOnConstantLinearQuadraticAverages) {
  const double coeffs[3][3] = {{3.0, 0.0, 0.0}, {0.7, -1.3, 0.0}, {0.2, 0.9, 0.4}};
  for (const auto& c : coeffs) {
    float q[5];
    for (int i = 0; i < 5; ++i) q[i] = static_cast<float>(cell_avg_poly(i - 2.0, c[0], c[1], c[2]));
    const CellFaces<float> f = weno5_cell(q[0], q[1], q[2], q[3], q[4]);
    const auto point = [&](double x) { return c[0] + c[1] * x + c[2] * x * x; };
    EXPECT_NEAR(f.left, point(-0.5), 2e-5) << c[0] << " " << c[1] << " " << c[2];
    EXPECT_NEAR(f.right, point(0.5), 2e-5) << c[0] << " " << c[1] << " " << c[2];
  }
}

/// Stencils spanning the magnitudes the solver reconstructs: velocities near
/// rest, densities, pressures and stiffness constants, smooth and with a
/// jump inside the stencil.
std::vector<std::array<float, 5>> stencils(std::vector<float> scales) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::vector<std::array<float, 5>> out;
  for (const float s : scales)
    for (int k = 0; k < 64; ++k) {
      std::array<float, 5> q;
      const float base = k % 2 ? 2.0f * s : 0.0f;
      const float slope = unit(rng), curv = 0.2f * unit(rng);
      for (int i = 0; i < 5; ++i)
        q[i] = base + s * (slope * (i - 2) + curv * (i - 2) * (i - 2) + 0.05f * unit(rng));
      if (k % 8 == 3) q[3] = q[4] = base + 3.0f * s;
      out.push_back(q);
    }
  return out;
}

std::vector<std::array<float, 5>> wide_stencils() {
  return stencils({1e-30f, 1e-3f, 1.0f, 1e3f, 1e7f, 1e8f});
}

template <typename T>
T splat_lanes(const std::array<float, 5>& q, int i, int lanes) {
  // Lane l holds stencil value i of the l-th rotation of q, so every lane
  // reconstructs a different stencil.
  float v[8];
  for (int l = 0; l < lanes; ++l) v[l] = q[(i + l) % 5];
  if constexpr (std::is_same_v<T, simd::vec4>)
    return simd::vec4::loadu(v);
  else
    return simd::vec8::loadu(v);
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(Weno5Cell, MirrorSymmetryIsBitwise) {
  // The right face of (a,b,c,d,e) and the left face of (e,d,c,b,a) must be
  // the same bits: it is what reconstructs identical states on both sides of
  // a face in a quiescent field.
  for (const auto& q : wide_stencils()) {
    const CellFaces<float> f = weno5_cell(q[0], q[1], q[2], q[3], q[4]);
    const CellFaces<float> m = weno5_cell(q[4], q[3], q[2], q[1], q[0]);
    EXPECT_TRUE(same_bits(f.right, m.left)) << f.right << " vs " << m.left;
    EXPECT_TRUE(same_bits(f.left, m.right)) << f.left << " vs " << m.right;
    const CellFaces<float> g = weno3_cell(q[1], q[2], q[3]);
    const CellFaces<float> n = weno3_cell(q[3], q[2], q[1]);
    EXPECT_TRUE(same_bits(g.right, n.left));
    EXPECT_TRUE(same_bits(g.left, n.right));
  }
}

TEST(Weno5Cell, FaceFormsAreViewsOfTheCell) {
  for (const auto& q : wide_stencils()) {
    const CellFaces<float> f = weno5_cell(q[0], q[1], q[2], q[3], q[4]);
    EXPECT_TRUE(same_bits(weno5_minus(q[0], q[1], q[2], q[3], q[4]), f.right));
    EXPECT_TRUE(same_bits(weno5_plus(q[0], q[1], q[2], q[3], q[4]), f.left));
  }
}

template <typename V, int L>
void expect_lanes_match_scalar() {
  // O(1) data: the bound is relative to 1 + |value|.
  for (const auto& q : stencils({1.0f})) {
    const CellFaces<V> v =
        weno5_cell(splat_lanes<V>(q, 0, L), splat_lanes<V>(q, 1, L), splat_lanes<V>(q, 2, L),
                   splat_lanes<V>(q, 3, L), splat_lanes<V>(q, 4, L));
    for (int l = 0; l < L; ++l) {
      const auto r = [&](int i) { return q[(i + l) % 5]; };
      const CellFaces<float> s = weno5_cell(r(0), r(1), r(2), r(3), r(4));
      EXPECT_NEAR(v.left[l], s.left, 1e-6f * (1.0f + std::fabs(s.left))) << "lane " << l;
      EXPECT_NEAR(v.right[l], s.right, 1e-6f * (1.0f + std::fabs(s.right))) << "lane " << l;
    }
  }
}

TEST(Weno5Cell, Vec4LanesMatchScalar) { expect_lanes_match_scalar<simd::vec4, 4>(); }
TEST(Weno5Cell, Vec8LanesMatchScalar) { expect_lanes_match_scalar<simd::vec8, 8>(); }

/// Scalar that counts the arithmetic it executes (an FMA as 2), to pin the
/// FLOP constants of the perf models to the expressions that run.
struct Counted {
  float v = 0;
  Counted() = default;
  explicit Counted(float x) : v(x) {}
};
int g_flops = 0, g_fmas = 0;
Counted operator+(Counted a, Counted b) { return ++g_flops, Counted(a.v + b.v); }
Counted operator-(Counted a, Counted b) { return ++g_flops, Counted(a.v - b.v); }
Counted operator*(Counted a, Counted b) { return ++g_flops, Counted(a.v * b.v); }
Counted operator/(Counted a, Counted b) { return ++g_flops, Counted(a.v / b.v); }
Counted fmadd(Counted a, Counted b, Counted c) {
  g_flops += 2;
  ++g_fmas;
  return Counted(a.v * b.v + c.v);
}

TEST(WenoFlops, ConstantsCountTheExecutedExpressions) {
  const Counted a(1.0f), b(1.5f), c(0.5f), d(2.0f), e(1.0f);
  g_flops = g_fmas = 0;
  (void)weno5_cell(a, b, c, d, e);
  EXPECT_EQ(g_flops, kWenoFlops);
  EXPECT_EQ(g_fmas, kWenoFmas);
  g_flops = 0;
  (void)weno3_cell(a, b, c);
  EXPECT_EQ(g_flops, kWeno3Flops);
}

TEST(Weno5, MirrorSymmetry) {
  const float q[6] = {1.0f, 1.2f, 1.7f, 2.6f, 2.9f, 3.0f};
  // Reconstructing the face from the left on data d(x) equals reconstructing
  // from the right on the mirrored data.
  const float minus = weno5_minus(q[0], q[1], q[2], q[3], q[4]);
  const float plus_on_mirror = weno5_plus(q[4], q[3], q[2], q[1], q[0]);
  EXPECT_FLOAT_EQ(minus, plus_on_mirror);
}

TEST(Weno5, EssentiallyNonOscillatoryAtStep) {
  // Across a step the reconstruction must stay within the data range up to a
  // tiny epsilon-weight leak (no Gibbs overshoot).
  const float lo = 1.0f, hi = 2.0f;
  const float v1 = weno5_minus(lo, lo, lo, hi, hi);
  EXPECT_GE(v1, lo - 5e-3f);
  EXPECT_LE(v1, hi + 5e-3f);
  const float v2 = weno5_minus(lo, lo, hi, hi, hi);
  EXPECT_GE(v2, lo - 5e-3f);
  EXPECT_LE(v2, hi + 5e-3f);
  const float v3 = weno5_plus(lo, lo, hi, hi, hi);
  EXPECT_GE(v3, lo - 5e-3f);
  EXPECT_LE(v3, hi + 5e-3f);
}

TEST(Weno5, UpwindBiasSelectsSmoothSide) {
  // Discontinuity in the rightmost cell: the left-biased value should follow
  // the smooth left data, staying near the smooth extrapolation.
  const float v = weno5_minus(1.0f, 1.0f, 1.0f, 1.0f, 100.0f);
  EXPECT_NEAR(v, 1.0f, 1e-2f);
}

TEST(Weno5, HighOrderConvergenceOnSmoothData) {
  // Point-value reconstruction of sin(x) at the face: the error must drop by
  // ~2^5 per mesh halving (5th order) until float round-off.
  auto error_at = [](double h) {
    // cell averages of sin over [x-h/2, x+h/2]: (cos(x-h/2)-cos(x+h/2))/h
    auto avg = [h](double x) { return (std::cos(x - h / 2) - std::cos(x + h / 2)) / h; };
    const double x0 = 0.3;  // face position
    float q[5];
    for (int i = 0; i < 5; ++i) q[i] = static_cast<float>(avg(x0 + (i - 2.5) * h));
    return std::fabs(weno5_minus(q[0], q[1], q[2], q[3], q[4]) - std::sin(x0));
  };
  const double e1 = error_at(0.4);
  const double e2 = error_at(0.2);
  EXPECT_LT(e2, e1 / 16.0);  // allow some slack below the asymptotic 32x
}

TEST(Weno3, ExactOnConstantsAndLinears) {
  EXPECT_NEAR(weno3_minus(2.0f, 2.0f, 2.0f), 2.0f, 1e-6f);
  // Linear cell averages a=-1.3, b=0, c=1.3 -> face value at +1/2 is 0.65.
  EXPECT_NEAR(weno3_minus(-1.3f, 0.0f, 1.3f), 0.65f, 1e-5f);
  EXPECT_NEAR(weno3_plus(-1.3f, 0.0f, 1.3f), -0.65f, 1e-5f);
}

TEST(Weno3, EssentiallyNonOscillatoryAtStep) {
  const float v = weno3_minus(1.0f, 1.0f, 100.0f);
  EXPECT_NEAR(v, 1.0f, 5e-2f);
  const float w = weno3_minus(1.0f, 2.0f, 2.0f);
  EXPECT_GE(w, 1.0f - 1e-3f);
  EXPECT_LE(w, 2.0f + 1e-3f);
}

TEST(Weno3, LowerOrderThanWeno5OnSmoothData) {
  auto errors = [](double h) {
    auto avg = [h](double x) { return (std::cos(x - h / 2) - std::cos(x + h / 2)) / h; };
    const double x0 = 0.3;
    float q[5];
    for (int i = 0; i < 5; ++i) q[i] = static_cast<float>(avg(x0 + (i - 2.5) * h));
    const double e5 = std::fabs(weno5_minus(q[0], q[1], q[2], q[3], q[4]) - std::sin(x0));
    const double e3 = std::fabs(weno3_minus(q[1], q[2], q[3]) - std::sin(x0));
    return std::pair{e3, e5};
  };
  const auto [e3, e5] = errors(0.2);
  EXPECT_GT(e3, 5.0 * e5);  // 5th order beats 3rd decisively on smooth data
}

TEST(Weno5, Vec4MatchesScalarLanes) {
  using simd::vec4;
  const float data[8] = {0.4f, 1.1f, 0.2f, 3.0f, 2.2f, 0.9f, 1.4f, 2.1f};
  const vec4 a = vec4::loadu(data + 0), b = vec4::loadu(data + 1), c = vec4::loadu(data + 2),
             d = vec4::loadu(data + 3), e = vec4::loadu(data + 4);
  const vec4 v = weno5_minus(a, b, c, d, e);
  for (int l = 0; l < 4; ++l) {
    const float s =
        weno5_minus(data[l], data[l + 1], data[l + 2], data[l + 3], data[l + 4]);
    EXPECT_NEAR(v[l], s, 1e-6f * (1.0f + std::fabs(s)));
  }
}

}  // namespace
}  // namespace mpcf::kernels
