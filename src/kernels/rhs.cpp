#include "kernels/rhs.h"

#include <string>

#include "kernels/hlle.h"
#include "kernels/weno.h"
#include "simd/memory_ops.h"

namespace mpcf::kernels {

namespace {

/// Component mapping of a directional sweep: which velocity is face-normal.
struct DirMap {
  int un, ut1, ut2;  // prim/acc indices of normal and transverse velocities
};
constexpr DirMap kDirMap[3] = {{Q_RU, Q_RV, Q_RW}, {Q_RV, Q_RW, Q_RU}, {Q_RW, Q_RU, Q_RV}};

/// CONV: conserved -> primitive over the whole ghost-extended lab.
template <typename T>
void conv_impl(const BlockLab& lab, RhsWorkspace& ws) {
  using simd::fmadd;
  using simd::load_elems;
  using simd::store_elems;
  constexpr int L = simd::Lanes<T>::value;

  const int n = lab.extent();
  const std::size_t total = static_cast<std::size_t>(n) * n * n;
  const Real* rho = lab.q(Q_RHO);
  const Real* ru = lab.q(Q_RU);
  const Real* rv = lab.q(Q_RV);
  const Real* rw = lab.q(Q_RW);
  const Real* E = lab.q(Q_E);
  const Real* G = lab.q(Q_G);
  const Real* P = lab.q(Q_P);
  Real* out[kNumQuantities];
  for (int q = 0; q < kNumQuantities; ++q) out[q] = ws.prim(q);

  // The extent n = edge + 2 * ghosts is even (the edge is a multiple of 4),
  // so n^3 is a multiple of 8 and of every lane count: no partial vector.
  for (std::size_t i = 0; i < total; i += L) {
    const T r = load_elems<T>(rho + i);
    const T invr = T(1.0f) / r;
    const T u = load_elems<T>(ru + i) * invr;
    const T v = load_elems<T>(rv + i) * invr;
    const T w = load_elems<T>(rw + i) * invr;
    const T g = load_elems<T>(G + i);
    const T pi = load_elems<T>(P + i);
    const T ke = T(0.5f) * r * fmadd(u, u, fmadd(v, v, w * w));
    const T p = (load_elems<T>(E + i) - ke - pi) / g;
    store_elems(out[Q_RHO] + i, r);
    store_elems(out[Q_RU] + i, u);
    store_elems(out[Q_RV] + i, v);
    store_elems(out[Q_RW] + i, w);
    store_elems(out[Q_E] + i, p);
    store_elems(out[Q_G] + i, g);
    store_elems(out[Q_P] + i, pi);
  }
}

/// Pointers of one directional sweep: the primitive feeding each FaceState
/// field and the accumulator of each Flux component (ustar last).
struct SweepPtrs {
  const Real* src[kNumQuantities];
  Real* dst[kNumQuantities + 1];
  std::ptrdiff_t s;  ///< stencil stride of the sweep direction
};

SweepPtrs sweep_ptrs(RhsWorkspace& ws, int dir) {
  const DirMap dm = kDirMap[dir];
  const int q[kNumQuantities] = {Q_RHO, dm.un, dm.ut1, dm.ut2, Q_E, Q_G, Q_P};
  const std::ptrdiff_t n = ws.extent();
  SweepPtrs sp{};
  for (int k = 0; k < kNumQuantities; ++k) {
    sp.src[k] = ws.prim(q[k]);
    sp.dst[k] = ws.acc(q[k]);
  }
  sp.dst[kNumQuantities] = ws.ustar();
  sp.s = dir == 0 ? 1 : dir == 1 ? n : n * n;
  return sp;
}

template <typename T>
T* fields(FaceState<T>& f, int k) {
  T* const m[kNumQuantities] = {&f.r, &f.u, &f.v, &f.w, &f.p, &f.G, &f.P};
  return m[k];
}

template <typename T>
T component(const Flux<T>& f, int k) {
  const T c[kNumQuantities + 1] = {f.rho, f.ru, f.rv, f.rw, f.E, f.G, f.P, f.ustar};
  return c[k];
}

/// WENO: both face states of the cells at vector position `at`. ORDER
/// selects the reconstruction (5 = production WENO5, 3 = the ablation's
/// WENO3).
template <typename T, int ORDER>
inline void reconstruct(const SweepPtrs& sp, std::ptrdiff_t at, FaceState<T>& left,
                        FaceState<T>& right) {
  using simd::load_elems;
  const std::ptrdiff_t s = sp.s;
  for (int k = 0; k < kNumQuantities; ++k) {
    const Real* c = sp.src[k] + at;
    CellFaces<T> f;
    if constexpr (ORDER == 5)
      f = weno5_cell(load_elems<T>(c - 2 * s), load_elems<T>(c - s), load_elems<T>(c),
                     load_elems<T>(c + s), load_elems<T>(c + 2 * s));
    else
      f = weno3_cell(load_elems<T>(c - s), load_elems<T>(c), load_elems<T>(c + s));
    *fields(left, k) = f.left;
    *fields(right, k) = f.right;
  }
}

/// Stores / loads the 7 face values of a FaceState at index i of 7 rows.
template <typename T>
inline void store_state(Real* const* rows, std::ptrdiff_t i, FaceState<T>& f) {
  for (int k = 0; k < kNumQuantities; ++k) simd::store_elems(rows[k] + i, *fields(f, k));
}
template <typename T>
inline FaceState<T> load_state(Real* const* rows, std::ptrdiff_t i) {
  FaceState<T> f;
  for (int k = 0; k < kNumQuantities; ++k) *fields(f, k) = simd::load_elems<T>(rows[k] + i);
  return f;
}

/// Runs body(U{}, i) over [lo, hi) in vectors of T. A partial last vector
/// is shifted back to end at hi, which recomputes bitwise-identical values,
/// so bodies must be idempotent; a range shorter than one vector runs
/// scalar.
template <typename T, typename Body>
inline void cover(int lo, int hi, Body&& body) {
  constexpr int L = simd::Lanes<T>::value;
  if (hi - lo < L) {
    for (int i = lo; i < hi; ++i) body(float{}, i);
    return;
  }
  int i = lo;
  for (; i + L <= hi; i += L) body(T{}, i);
  if (i < hi) body(T{}, hi - L);
}

/// Face values of one x row, cells -1..bs, into 14 rows indexed by cell+1:
/// right[i+1] is the minus state of face i+1, left[i+1] the plus state of
/// face i.
template <typename T, int ORDER>
void x_cells(const SweepPtrs& sp, std::ptrdiff_t row, int bs, Real* const* right,
             Real* const* left) {
  cover<T>(-1, bs + 1, [&](auto u, int i) {
    using U = decltype(u);
    FaceState<U> l, r;
    reconstruct<U, ORDER>(sp, row + i, l, r);
    store_state(right, i + 1, r);
    store_state(left, i + 1, l);
  });
}

/// HLLE over the bs+1 faces of one x row into the flux rows, then each
/// interior cell's divergence, stored once: acc[x] = F[x] - F[x+1].
template <typename T>
void x_faces(const SweepPtrs& sp, std::ptrdiff_t row, int bs, Real* const* right,
             Real* const* left, Real* const* flux) {
  cover<T>(0, bs + 1, [&](auto u, int f) {
    using U = decltype(u);
    const Flux<U> g = hlle_flux(load_state<U>(right, f), load_state<U>(left, f + 1));
    for (int k = 0; k <= kNumQuantities; ++k) simd::store_elems(flux[k] + f, component(g, k));
  });
  cover<T>(0, bs, [&](auto u, int x) {
    using U = decltype(u);
    for (int k = 0; k <= kNumQuantities; ++k)
      simd::store_elems(sp.dst[k] + row + x, simd::load_elems<U>(flux[k] + x) -
                                                 simd::load_elems<U>(flux[k] + x + 1));
  });
}

/// HLLE at face f of a y/z line from the minus state of cell f-1 and the
/// plus state of cell f (at offset `cell`), then the divergence of cell f-1
/// (when interior) in the face order of two read-modify-writes:
/// acc = (acc + G[f-1]) - G[f]. Column c of the flux rows carries G[f-1] in
/// and G[f] out.
template <typename T>
inline void yz_face(const SweepPtrs& sp, std::ptrdiff_t cell, int f, const FaceState<T>& m,
                    const FaceState<T>& p, Real* const* flux, int c) {
  const Flux<T> g = hlle_flux(m, p);
  for (int k = 0; k <= kNumQuantities; ++k) {
    const T gk = component(g, k);
    if (f > 0) {
      Real* a = sp.dst[k] + cell - sp.s;
      simd::store_elems(a, (simd::load_elems<T>(a) + simd::load_elems<T>(flux[k] + c)) - gk);
    }
    simd::store_elems(flux[k] + c, gk);
  }
}

/// Runs line(U{}, ix) over the bs x-columns of a y/z sweep: vectors of T,
/// then scalar columns (the read-modify-write lines are not idempotent).
template <typename T, typename Line>
inline void yz_columns(int bs, Line&& line) {
  constexpr int L = simd::Lanes<T>::value;
  int ix = 0;
  for (; ix + L <= bs; ix += L) line(T{}, ix);
  for (; ix < bs; ++ix) line(float{}, ix);
}

/// Directional sweep. The WENO pass reconstructs both face values of every
/// cell of a row of cells; the HLLE pass evaluates the fluxes and the
/// divergence. Fused, the passes run back to back per row through the
/// L1-resident line buffer (a y/z row's right faces and fluxes wait there
/// for the next row). STAGED (the Table 9 baseline), the WENO pass covers
/// the whole sweep into the block-wide face buffers before the HLLE pass
/// reads them back: the memory round trip micro-fusion removes.
template <typename T, int ORDER, bool STAGED>
void sweep(RhsWorkspace& ws, int dir) {
  const int bs = ws.edge();
  const SweepPtrs sp = sweep_ptrs(ws, dir);
  Real* right[kNumQuantities];
  Real* left[kNumQuantities];
  Real* flux[kNumQuantities + 1];
  for (int k = 0; k < kNumQuantities; ++k) {
    right[k] = STAGED ? ws.face(k) : ws.line(k);
    left[k] = STAGED ? ws.face(kNumQuantities + k) : ws.line(kNumQuantities + k);
  }
  for (int k = 0; k <= kNumQuantities; ++k) flux[k] = ws.line(2 * kNumQuantities + k);
  constexpr int kPasses = STAGED ? 2 : 1;
  const std::ptrdiff_t line_len = bs + 2;  // cells per line, one ghost per end

  if (dir == 0) {
    Real* r[kNumQuantities];
    Real* l[kNumQuantities];
    for (int pass = 0; pass < kPasses; ++pass)
      for (int iz = 0; iz < bs; ++iz)
        for (int iy = 0; iy < bs; ++iy) {
          const std::ptrdiff_t row = ws.offset(0, iy, iz);
          const std::ptrdiff_t o = STAGED ? line_len * (iy + bs * iz) : 0;
          for (int k = 0; k < kNumQuantities; ++k) {
            r[k] = right[k] + o;
            l[k] = left[k] + o;
          }
          if (pass == 0) x_cells<T, ORDER>(sp, row, bs, r, l);
          if (pass == kPasses - 1) x_faces<T>(sp, row, bs, r, l, flux);
        }
    return;
  }

  // A row of cells is an x-row of one z-slice (y sweep) or a whole xy-plane
  // (z sweep): either way the rows stream through memory in address order.
  const int slices = dir == 1 ? bs : 1;
  const int xrows = dir == 1 ? 1 : bs;
  const std::ptrdiff_t cols = static_cast<std::ptrdiff_t>(xrows) * bs;  // per row
  for (int pass = 0; pass < kPasses; ++pass)
    for (int k = 0; k < slices; ++k)
      for (int j = -1; j <= bs; ++j)
        for (int m = 0; m < xrows; ++m) {
          const std::ptrdiff_t row = dir == 1 ? ws.offset(0, j, k) : ws.offset(0, m, j);
          const int col = m * bs;  // column of the x-row's first cell
          // Face values of this row: STAGED, row j of slice k; fused, the
          // carried right faces of the previous row.
          const std::ptrdiff_t o = STAGED ? cols * (line_len * k + j + 1) + col : col;
          yz_columns<T>(bs, [&](auto u, int ix) {
            using U = decltype(u);
            if (pass == 1) {
              if (j >= 0)
                yz_face(sp, row + ix, j, load_state<U>(right, o - cols + ix),
                        load_state<U>(left, o + ix), flux, col + ix);
              return;
            }
            FaceState<U> lf, rf;
            reconstruct<U, ORDER>(sp, row + ix, lf, rf);
            if constexpr (STAGED)
              store_state(left, o + ix, lf);
            else if (j >= 0)
              yz_face(sp, row + ix, j, load_state<U>(right, o + ix), lf, flux, col + ix);
            store_state(right, o + ix, rf);
          });
        }
}

/// Instantiates the three directional sweeps at pipeline shape x width.
template <typename T>
void sweep_all(RhsWorkspace& ws, bool staged, int order) {
  for (int dir = 0; dir < 3; ++dir) {
    if (staged)
      sweep<T, 5, true>(ws, dir);
    else if (order == 5)
      sweep<T, 5, false>(ws, dir);
    else
      sweep<T, 3, false>(ws, dir);
  }
}

/// BACK: RHS <- acc/h with the quasi-conservative Gamma/Pi fix, written into
/// the AoS tmp area of each of the k^3 blocks the workspace covers as
/// tmp <- a*tmp + RHS.
void back(RhsWorkspace& ws, Real h, Real a, Block* const* blocks, int k) {
  const int bs = ws.edge() / k;
  const Real invh = Real(1) / h;
  for (int jz = 0; jz < k; ++jz)
    for (int jy = 0; jy < k; ++jy)
      for (int jx = 0; jx < k; ++jx) {
        Block& block = *blocks[jx + k * (jy + k * jz)];
        for (int iz = 0; iz < bs; ++iz)
          for (int iy = 0; iy < bs; ++iy)
            for (int ix = 0; ix < bs; ++ix) {
              const std::size_t o = ws.offset(jx * bs + ix, jy * bs + iy, jz * bs + iz);
              Cell& t = block.tmp(ix, iy, iz);
              for (int q = 0; q < Q_G; ++q) t.q(q) = a * t.q(q) + ws.acc(q)[o] * invh;
              // d(phi)/dt = -div(phi u) + phi div(u); acc already holds -h*div.
              const Real du = ws.ustar()[o];
              t.G = a * t.G + (ws.acc(Q_G)[o] - ws.prim(Q_G)[o] * du) * invh;
              t.P = a * t.P + (ws.acc(Q_P)[o] - ws.prim(Q_P)[o] * du) * invh;
            }
      }
}

}  // namespace

void RhsWorkspace::resize(int edge, int ghosts) {
  require(edge > 0 && edge % 4 == 0, "RhsWorkspace: edge must be a positive multiple of 4");
  require(ghosts >= 3, "RhsWorkspace: WENO5 needs at least 3 ghosts");
  cap_ = edge;
  g_ = ghosts;
  const std::size_t n = static_cast<std::size_t>(edge) + 2 * static_cast<std::size_t>(ghosts);
  for (auto& f : prim_) f.reset(n * n * n);
  for (auto& f : acc_) f.reset(n * n * n);
  ustar_.reset(n * n * n);
  // Face buffers of the staged shape cover a whole directional sweep: edge+2
  // cells x edge^2 lines per quantity-side.
  const std::size_t facelen = static_cast<std::size_t>(edge + 2) * edge * edge;
  for (auto& r : faces_) r.reset(facelen);
  line_.reset(kLineRows * line_stride(edge));
  shape(edge);
}

void RhsWorkspace::shape(int edge) {
  if (edge <= 0 || edge % 4 != 0 || edge > cap_)
    throw PreconditionError("RhsWorkspace: edge " + std::to_string(edge) +
                            " is not a multiple of 4 within " + std::to_string(cap_));
  e_ = edge;
  n_ = edge + 2 * g_;
  line_stride_ = line_stride(edge);
}

void convert_to_primitive(const BlockLab& lab, RhsWorkspace& ws, KernelImpl impl,
                          simd::Width width) {
  require(lab.ghosts() == ws.ghosts(), "convert_to_primitive: lab/workspace ghost mismatch");
  ws.shape(lab.edge());
  const simd::Width w =
      impl == KernelImpl::kScalar ? simd::Width::kScalar : simd::resolve_width(width);
  switch (w) {
    case simd::Width::kScalar:
      conv_impl<float>(lab, ws);
      break;
    case simd::Width::kW8:
      conv_impl<simd::vec8>(lab, ws);
      break;
    default:
      conv_impl<simd::vec4>(lab, ws);
      break;
  }
}

void rhs_block(const BlockLab& lab, Real h, Real a, Block& block, RhsWorkspace& ws,
               KernelImpl impl, int weno_order, simd::Width width) {
  Block* const blocks[1] = {&block};
  rhs_tile(lab, h, a, blocks, 1, ws, impl, weno_order, width);
}

void rhs_tile(const BlockLab& lab, Real h, Real a, Block* const* blocks, int k,
              RhsWorkspace& ws, KernelImpl impl, int weno_order, simd::Width width) {
  require(k >= 1 && lab.edge() == k * blocks[0]->size(),
          "rhs_tile: lab edge is not k blocks");
  require(weno_order == 3 || weno_order == 5, "rhs_tile: WENO order must be 3 or 5");
  const simd::Width w =
      impl == KernelImpl::kScalar ? simd::Width::kScalar : simd::resolve_width(width);
  convert_to_primitive(lab, ws, impl, w);
  // The ablation order always runs fused: the comparison of interest is
  // accuracy/cost, not the Table 9 round trip.
  const bool staged = impl == KernelImpl::kSimd && weno_order == 5;
  switch (w) {
    case simd::Width::kScalar:
      sweep_all<float>(ws, staged, weno_order);
      break;
    case simd::Width::kW8:
      sweep_all<simd::vec8>(ws, staged, weno_order);
      break;
    default:
      sweep_all<simd::vec4>(ws, staged, weno_order);
      break;
  }
  back(ws, h, a, blocks, k);
}

double rhs_flops(int edge) {
  const double e = edge;
  const double n = e + 2.0 * kGhosts;
  const double lines = 3.0 * e * e;  // lines of the three directional sweeps
  const double cells = e * e * e;
  const double conv = 14.0 * n * n * n;
  // Each line reconstructs its e cells plus one ghost cell per end and
  // evaluates HLLE at its e+1 faces.
  const double weno = lines * (e + 2.0) * kNumQuantities * kWenoFlops;
  const double hlle = lines * (e + 1.0) * kHlleFlops;
  // SUM over 8 accumulators (7 components + ustar): one subtraction per
  // cell in x, an add and a subtraction per cell in y and in z.
  const double sum = cells * (kNumQuantities + 1) * (1.0 + 2.0 + 2.0);
  const double back_cost = 25.0 * cells;
  return conv + weno + hlle + sum + back_cost;
}

}  // namespace mpcf::kernels
