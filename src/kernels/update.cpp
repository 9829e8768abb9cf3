#include "kernels/update.h"

#include "simd/memory_ops.h"
#include "simd/scalar_ops.h"

namespace mpcf::kernels {

namespace {

/// Streaming axpy over the block storage, one vector (or scalar) per step.
/// Vector body and scalar tail both round through one fmadd per element,
/// so every width produces the same bits.
template <typename T>
void update_impl(Block& block, Real bdt) {
  constexpr int L = simd::Lanes<T>::value;
  const std::size_t total = block.cells() * kNumQuantities;
  float* data = &block.data()->rho;
  const float* tmp = &block.tmp_data()->rho;
  std::size_t i = 0;
  if constexpr (L > 1) {
    const T b(bdt);
    for (; i + L <= total; i += L)
      simd::store_elems(data + i, simd::fmadd(b, simd::load_elems<T>(tmp + i),
                                              simd::load_elems<T>(data + i)));
  }
  for (; i < total; ++i) data[i] = simd::fmadd(bdt, tmp[i], data[i]);
}

}  // namespace

void update_block(Block& block, Real bdt) { update_impl<float>(block, bdt); }

UpdateChoice update_auto_choice(int /*bs*/, simd::Width requested) {
  return UpdateChoice{simd::resolve_width(requested), UpdateVariant::kRegular};
}

void update_block_simd(Block& block, Real bdt, simd::Width width) {
  switch (simd::resolve_width(width)) {
    case simd::Width::kScalar:
      update_impl<float>(block, bdt);
      return;
    case simd::Width::kW8:
      update_impl<simd::vec8>(block, bdt);
      return;
    default:
      update_impl<simd::vec4>(block, bdt);
      return;
  }
}

double update_flops(int bs) {
  return 2.0 * kNumQuantities * bs * bs * static_cast<double>(bs);
}

}  // namespace mpcf::kernels
