// gemm_clone.hpp — what gemm.cpp's dispatch code and the GEMM clones share.
//
// The blocked loop nest lives once, in gemm_body.inc, and is compiled into
// one namespace per clone: detail::portable (gemm.cpp, baseline ISA) and,
// on x86-64 GCC/Clang builds, detail::avx2 (gemm_avx2.cpp, built with
// -mavx2 -mno-fma -ffp-contract=off by src/tensor/CMakeLists.txt, which
// then defines TSDX_GEMM_AVX2_CLONE). The dispatch code in gemm.cpp — a
// portable TU — owns partitioning, pack buffers, metrics and the
// once-per-process clone choice; a clone only runs rows.
#pragma once

#include <cstdint>

#include "tensor/kernels/gemm.hpp"

namespace tsdx::tensor::kernels::detail {

// Blocking parameters. kMR is the micro-kernel height (C rows held hot);
// kKC x kNC is the packed op(B) panel, sized to sit in L1/L2 comfortably
// (256 * 128 floats = 128 KiB worst case, typically far smaller).
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 128;

/// One (batched) product, resolved by gemm.cpp. Rows are numbered over
/// the whole batch, [0, batch * m); slice s reads A at s*m*k, B at
/// s*b_stride and writes C at s*m*n. A flat mm() is the batch-1 case.
struct GemmArgs {
  Trans ta, tb;
  std::int64_t m, k, n;
  const float* a;
  std::int64_t lda;
  const float* b;
  std::int64_t ldb, b_stride;
  float* c;
  /// Operand read in place: a single kN panel spans it, so packing would
  /// be a byte-for-byte copy. The extractor's per-layer GEMMs (k <= 256,
  /// n <= 128) all take this path; packing still kicks in for transposed
  /// operands and for shapes that need cache blocking.
  bool a_direct, b_direct;
};

/// C rows [r0, r1) of the product. apack holds at least
/// min(r1 - r0, m) * min(kKC, k) floats unless a_direct; bpack holds
/// min(kKC, k) * min(kNC, n) unless b_direct.
using MmChunkFn = void (*)(const GemmArgs& g, std::int64_t r0,
                           std::int64_t r1, float* apack, float* bpack);

namespace portable {
void mm_chunk(const GemmArgs& g, std::int64_t r0, std::int64_t r1,
              float* apack, float* bpack);
}  // namespace portable

namespace avx2 {
/// Defined only when TSDX_GEMM_AVX2_CLONE is; runs only on CPUs that
/// report AVX2.
void mm_chunk(const GemmArgs& g, std::int64_t r0, std::int64_t r1,
              float* apack, float* bpack);
}  // namespace avx2

}  // namespace tsdx::tensor::kernels::detail
