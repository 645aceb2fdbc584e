// The packed x86 micro-kernels (declarations) — the only hand-written
// SIMD in the engine. Every other leaf runs its scalar template in
// gep/kernels.hpp, which the native build vectorizes.
//
// kernels_x86.cpp writes the kernels once over a vector type and
// compiles them twice, for 256-bit AVX2/FMA and 512-bit AVX-512F, each
// function with its instance's `target` attribute, so the library
// builds — and the scalar path stays runnable — without any -march
// flags. Both instances follow the packed-panel contract of
// microkernel.hpp (MicroKernels): the semiring micro-kernels are
// bit-identical to the scalar templates, the FMA micro-kernels are
// tolerance-equivalent to scalar and bit-identical to each other.
#pragma once

#include "simd/dispatch.hpp"
#include "simd/microkernel.hpp"

#if GEP_SIMD_X86

namespace gep::simd {

// The micro-kernel table of a packed level (Avx2 or Avx512), for
// T = double or float. Call it only for a level the host can run.
template <class T>
const MicroKernels<T>& x86_micro_kernels(Level l);

}  // namespace gep::simd

#endif  // GEP_SIMD_X86
