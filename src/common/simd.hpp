#pragma once

/// \file simd.hpp
/// `omp simd` loop annotations, spelled with _Pragma so they can sit inside
/// loop nests and macros. They compile to nothing without OpenMP.
///
/// GCC leaves some hot loops scalar on its own: accumulator arrays defeat its
/// cost model, and a floating-point sum may not be reassociated into vector
/// lanes unless asked to. HODLRX_OMP_SIMD asks for vectorization of a loop
/// whose per-iteration arithmetic stays exactly as written;
/// HODLRX_OMP_SIMD_SUM(vars) additionally lets the listed `+` accumulators be
/// split across lanes, which changes the rounding of those sums only.

#if defined(_OPENMP)
#define HODLRX_PRAGMA(x) _Pragma(#x)
#define HODLRX_OMP_SIMD _Pragma("omp simd")
#define HODLRX_OMP_SIMD_SUM(...) HODLRX_PRAGMA(omp simd reduction(+ : __VA_ARGS__))
#else
#define HODLRX_OMP_SIMD
#define HODLRX_OMP_SIMD_SUM(...)
#endif
