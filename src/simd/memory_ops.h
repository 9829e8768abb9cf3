// Uniform load/accumulate surface so kernel templates run unchanged with
// T=float (one element per step), T=vec4 (four elements) and T=vec8 (eight
// elements per step) — the width-parametric substrate the RHS/SOS/UP
// kernels instantiate against.
#pragma once

#include "simd/vec4.h"
#include "simd/vec8.h"

namespace mpcf::simd {

/// Widest lane count any backend may use; sizing pad for shared buffers.
inline constexpr int kMaxLanes = 8;

template <typename T>
struct Lanes;
template <>
struct Lanes<float> {
  static constexpr int value = 1;
};
template <>
struct Lanes<vec4> {
  static constexpr int value = 4;
};
template <>
struct Lanes<vec8> {
  static constexpr int value = 8;
};

template <typename T>
[[nodiscard]] inline T load_elems(const float* p);
template <>
[[nodiscard]] inline float load_elems<float>(const float* p) {
  return *p;
}
template <>
[[nodiscard]] inline vec4 load_elems<vec4>(const float* p) {
  return vec4::loadu(p);
}
template <>
[[nodiscard]] inline vec8 load_elems<vec8>(const float* p) {
  return vec8::loadu(p);
}

inline void store_elems(float* p, float v) { *p = v; }
inline void store_elems(float* p, vec4 v) { v.storeu(p); }
inline void store_elems(float* p, vec8 v) { v.storeu(p); }

inline void add_store(float* p, float v) { *p += v; }
inline void add_store(float* p, vec4 v) { (vec4::loadu(p) + v).storeu(p); }
inline void add_store(float* p, vec8 v) { (vec8::loadu(p) + v).storeu(p); }

inline void sub_store(float* p, float v) { *p -= v; }
inline void sub_store(float* p, vec4 v) { (vec4::loadu(p) - v).storeu(p); }
inline void sub_store(float* p, vec8 v) { (vec8::loadu(p) - v).storeu(p); }

}  // namespace mpcf::simd
