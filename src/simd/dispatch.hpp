// Runtime SIMD dispatch for the base-case kernels.
//
// The packed leaves in gep/kernels.hpp consult active() once per call:
// at a packed level (Avx2 or Avx512) they run the packed micro-kernels
// of that ISA (simd/kernels_x86.cpp, compiled with per-function
// `target` attributes so the build works without -march flags), at
// Scalar their scalar template. Selection order:
//
//   1. $GEP_FORCE_SCALAR=1   -> Scalar, always (CI fallback leg, benches)
//   2. force_level(l)        -> l, clamped to the highest level <= l the
//                               host can run (in-process test/bench hook)
//   3. CPUID                 -> Avx512 iff AVX-512F + AVX2 + FMA + OS zmm
//                               state, else Avx2 iff AVX2 + FMA + OS ymm
//                               state, else Scalar
//
// Both packed levels run one packed format (simd/microkernel.hpp), so
// their results are bit-identical; see docs/KERNELS.md.
#pragma once

// True when this build can contain the x86 kernel translation unit
// (x86-64 with a compiler that supports target pragmas). On other
// hosts active() is constant Scalar and the wrappers compile straight
// through to the scalar templates.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GEP_SIMD_X86 1
#else
#define GEP_SIMD_X86 0
#endif

namespace gep::simd {

// Ordered: a higher level can run every kernel of a lower one.
enum class Level { Scalar = 0, Avx2 = 1, Avx512 = 2 };

// The level leaf kernels dispatch to right now (env > forced > CPUID).
Level active();

// True when the host can execute level l's kernels at all, independent
// of $GEP_FORCE_SCALAR and force_level overrides.
bool level_available(Level l);

// True when $GEP_FORCE_SCALAR=1 pinned the process to the scalar path.
bool forced_scalar_env();

// In-process override for tests and benches (measuring every path in
// one binary). Clamped: forcing a level the host cannot run selects the
// highest one below it that it can. $GEP_FORCE_SCALAR=1 still wins.
// clear_forced_level() returns to CPUID-based selection.
void force_level(Level l);
void clear_forced_level();

// "scalar" / "avx2" / "avx512".
const char* level_name(Level l);
inline const char* active_name() { return level_name(active()); }

// Bumps obs counter kernels.dispatch.<level_name(l)> — one tick per leaf
// kernel invocation, so traces and BENCH JSON show which path ran.
void note_leaf(Level l);

}  // namespace gep::simd
