// gemm_avx2.cpp — the AVX2 clone of the blocked GEMM (gemm_body.inc).
//
// Built only on x86-64 GCC/Clang, with -mavx2 -mno-fma -ffp-contract=off
// (src/tensor/CMakeLists.txt). Everything in this TU may contain AVX2
// instructions; gemm.cpp calls it only after __builtin_cpu_supports("avx2").

#include <cstring>

#include "tensor/kernels/gemm_clone.hpp"

#if !defined(__AVX2__) || defined(__FMA__)
#error "gemm_avx2.cpp must be built with -mavx2 -mno-fma"
#endif

#define TSDX_GEMM_CLONE avx2
#include "tensor/kernels/gemm_body.inc"
