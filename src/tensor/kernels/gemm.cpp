#include "tensor/kernels/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels/gemm_clone.hpp"
#include "tensor/kernels/parallel_for.hpp"

#define TSDX_GEMM_CLONE portable
#include "tensor/kernels/gemm_body.inc"

namespace tsdx::tensor::kernels {

namespace {

/// Registry handles resolved once per process. Each mm()/mm_batched() call
/// bumps these once (not per row/chunk), so the relaxed adds amortize over
/// the 2*batch*m*k*n flops they describe.
struct GemmMetrics {
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& direct_path;  ///< both operands read in place (no packing)
  obs::Counter& packed_path;  ///< at least one operand packed into panels
};

GemmMetrics& gemm_metrics() {
  static GemmMetrics metrics = [] {
    obs::Registry& r = obs::Registry::global();
    return GemmMetrics{r.counter("gemm.calls"), r.counter("gemm.flops"),
                       r.counter("gemm.direct_path"),
                       r.counter("gemm.packed_path")};
  }();
  return metrics;
}

/// Grow `buf` to at least `floats` (it never shrinks); return its storage.
float* grown(std::vector<float>& buf, std::int64_t floats) {
  const auto n = static_cast<std::size_t>(floats);
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

detail::MmChunkFn chunk_fn(detail::Clone clone) {
#if defined(TSDX_GEMM_AVX2_CLONE)
  if (clone == detail::Clone::kAvx2) return detail::avx2::mm_chunk;
#endif
  (void)clone;
  return detail::portable::mm_chunk;
}

/// Count, partition and run `batch` slices of one product on `fn`, cutting
/// the batch * m rows at the shape-pure `grain` the caller derived.
void run(detail::MmChunkFn fn, Trans ta, Trans tb, std::int64_t batch,
         std::int64_t m, std::int64_t k, std::int64_t n, const float* a,
         const float* b, std::int64_t b_stride, float* c,
         std::int64_t grain) {
  const detail::GemmArgs g{ta, tb, m, k, n, a, ta == Trans::kN ? k : m,
                           b, tb == Trans::kN ? n : k, b_stride, c,
                           ta == Trans::kN && k <= detail::kKC,
                           tb == Trans::kN && n <= detail::kNC};
  GemmMetrics& metrics = gemm_metrics();
  metrics.calls.inc();
  metrics.flops.inc(static_cast<std::uint64_t>(2 * batch * m * k * n));
  (g.a_direct && g.b_direct ? metrics.direct_path : metrics.packed_path).inc();
  const std::int64_t kc_max = std::min(detail::kKC, k);
  const std::int64_t nc_max = std::min(detail::kNC, n);
  par::parallel_for(batch * m, grain, [&](std::int64_t r0, std::int64_t r1) {
    // This thread's pack buffers, sized for the chunk's largest slice run;
    // direct operands need none. They are reused by every later product on
    // the thread, so a warmed caller's GEMMs allocate nothing. A chunk never
    // re-enters the GEMM, so one pair per thread suffices.
    thread_local std::vector<float> apack, bpack;
    const std::int64_t a_floats =
        g.a_direct ? 0 : std::min(r1 - r0, m) * kc_max;
    const std::int64_t b_floats = g.b_direct ? 0 : kc_max * nc_max;
    fn(g, r0, r1, grown(apack, a_floats), grown(bpack, b_floats));
  });
}

void mm_batched_with(detail::MmChunkFn fn, Trans ta, Trans tb,
                     std::int64_t batch, std::int64_t m, std::int64_t k,
                     std::int64_t n, const float* a, const float* b,
                     std::int64_t b_stride, float* c) {
  if (batch <= 0 || m <= 0 || k <= 0 || n <= 0) return;
  if (batch == 1 || (b_stride == 0 && ta == Trans::kN)) {
    // One slice, or a shared weight under row-dense A: the flat [batch*m]
    // product runs the identical row-by-row computation.
    TSDX_TRACE_SPAN("gemm.mm");
    const std::int64_t rows = batch * m;
    run(fn, ta, tb, 1, rows, k, n, a, b, 0, c, row_grain(rows, k, n));
    return;
  }
  TSDX_TRACE_SPAN("gemm.mm_batched");
  // Rows of the whole batch are partitioned with the per-slice grain (a pure
  // function of the slice shape, as always); a chunk that spans slices just
  // walks them, so this is bit-identical to per-slice mm() calls.
  run(fn, ta, tb, batch, m, k, n, a, b, b_stride, c, row_grain(m, k, n));
}

}  // namespace

namespace detail {

const char* to_string(Clone clone) {
  return clone == Clone::kAvx2 ? "avx2" : "portable";
}

bool runnable(Clone clone) {
  if (clone == Clone::kPortable) return true;
#if defined(TSDX_GEMM_AVX2_CLONE)
  // This TU is baseline ISA, so the check itself never executes AVX2.
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Clone active_clone() {
  static const Clone clone =
      runnable(Clone::kAvx2) ? Clone::kAvx2 : Clone::kPortable;
  return clone;
}

void mm_batched_on(Clone clone, Trans ta, Trans tb, std::int64_t batch,
                   std::int64_t m, std::int64_t k, std::int64_t n,
                   const float* a, const float* b, std::int64_t b_stride,
                   float* c) {
  mm_batched_with(chunk_fn(clone), ta, tb, batch, m, k, n, a, b, b_stride, c);
}

}  // namespace detail

std::int64_t row_grain(std::int64_t m, std::int64_t k, std::int64_t n) {
  // Target ~128k flops per chunk so chunk dispatch overhead stays invisible,
  // growing in micro-kernel multiples. Depends on the shape only.
  constexpr std::int64_t kTargetFlops = 131072;
  const std::int64_t per_row = std::max<std::int64_t>(1, 2 * k * n);
  std::int64_t grain = detail::kMR;
  while (grain < m && grain * per_row < kTargetFlops) grain *= 2;
  return grain;
}

void mm(Trans ta, Trans tb, std::int64_t m, std::int64_t k, std::int64_t n,
        const float* a, const float* b, float* c) {
  mm_batched(ta, tb, 1, m, k, n, a, b, 0, c);
}

void mm_batched(Trans ta, Trans tb, std::int64_t batch, std::int64_t m,
                std::int64_t k, std::int64_t n, const float* a,
                const float* b, std::int64_t b_stride, float* c) {
  static const detail::MmChunkFn fn = chunk_fn(detail::active_clone());
  mm_batched_with(fn, ta, tb, batch, m, k, n, a, b, b_stride, c);
}

}  // namespace tsdx::tensor::kernels
