// kernel_test.cpp — the compute-kernel layer's contract (see DESIGN.md
// "Compute kernels & threading model"):
//
//   1. The blocked, packed GEMM is BIT-identical to the textbook ikj loop
//      for every transpose variant, including shapes that don't divide the
//      micro-kernel or panel sizes — on every compiled clone of the loop
//      nest (portable, AVX2) the host can execute.
//   2. Results are BIT-identical at any thread count (1, 2, 8), because work
//      partitioning is a pure function of the shape.
//   3. parallel_for covers every index exactly once, and tree_sum is both
//      deterministic and accurate.
//   4. The autograd ops routed through the kernels (matmul, matmul_nt) still
//      pass finite-difference gradchecks.
//   5. The libm-free GELU row kernel stays within its accuracy bound of the
//      exact tanh-approximation GELU and keeps tanhf's special values.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/gradcheck.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/kernels/rows.hpp"
#include "tensor/ops.hpp"
#include "tensor/rng.hpp"

namespace tt = tsdx::tensor;
namespace kn = tsdx::tensor::kernels;
namespace par = tsdx::par;
using tt::Shape;
using tt::Tensor;

namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  tt::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Textbook reference: C += op(A)·op(B) with the plain ikj loop — the same
/// ascending-k accumulation order the blocked kernel promises to preserve.
void naive_mm(kn::Trans ta, kn::Trans tb, std::int64_t m, std::int64_t k,
              std::int64_t n, const float* a, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = (ta == kn::Trans::kN) ? a[i * k + p] : a[p * m + i];
      for (std::int64_t j = 0; j < n; ++j) {
        const float bv = (tb == kn::Trans::kN) ? b[p * n + j] : b[j * k + p];
        c[i * n + j] += av * bv;
      }
    }
  }
}

struct MmCase {
  kn::Trans ta;
  kn::Trans tb;
  const char* name;
};

constexpr MmCase kVariants[] = {
    {kn::Trans::kN, kn::Trans::kN, "nn"},
    {kn::Trans::kN, kn::Trans::kT, "nt"},
    {kn::Trans::kT, kn::Trans::kN, "tn"},
};

// Shapes straddling every blocking boundary: below/at/above the micro-kernel
// height (4), non-dividing the KC/NC panels, and degenerate dims.
constexpr std::int64_t kDims[] = {1, 3, 17, 64, 129};

}  // namespace

TEST(GemmKernelTest, BlockedMatchesNaiveBitExact) {
  // Every GEMM clone this host can execute, not just the one mm() picked:
  // the dispatched clone is what the host runs, and the portable clone is
  // what a host without AVX2 runs. Each clone runs a single product
  // (batch 1), a strided batch and a shared-B batch (b_stride 0), at 1, 2
  // and 8 threads, against the naive loop per slice.
  constexpr std::int64_t kBatch = 3;
  struct Stride {
    std::int64_t batch;
    bool shared;
    const char* name;
  };
  constexpr Stride kStrides[] = {{1, false, "single"},
                                 {kBatch, false, "strided"},
                                 {kBatch, true, "shared"}};
  int clones_run = 0;
  for (const kn::detail::Clone clone : kn::detail::kClones) {
    if (!kn::detail::runnable(clone)) continue;
    ++clones_run;
    for (const MmCase& v : kVariants) {
      for (std::int64_t m : kDims) {
        for (std::int64_t k : kDims) {
          for (std::int64_t n : kDims) {
            for (const Stride& st : kStrides) {
              const std::int64_t b_slices = st.shared ? 1 : st.batch;
              const std::int64_t b_stride = st.shared ? 0 : k * n;
              const auto a = random_vec(
                  static_cast<std::size_t>(st.batch * m * k),
                  1000 + static_cast<std::uint64_t>(m));
              const auto b = random_vec(
                  static_cast<std::size_t>(b_slices * k * n),
                  2000 + static_cast<std::uint64_t>(n));
              // Non-zero C exercises the accumulate (+=) semantics.
              const auto c0 = random_vec(
                  static_cast<std::size_t>(st.batch * m * n), 3000);
              auto c_naive = c0;
              for (std::int64_t g = 0; g < st.batch; ++g) {
                naive_mm(v.ta, v.tb, m, k, n, a.data() + g * m * k,
                         b.data() + g * b_stride, c_naive.data() + g * m * n);
              }
              if (st.batch == 1 && clone == kn::detail::active_clone()) {
                auto c_mm = c0;
                kn::mm(v.ta, v.tb, m, k, n, a.data(), b.data(), c_mm.data());
                ASSERT_EQ(c_mm, c_naive)
                    << "mm() variant=" << v.name << " m=" << m << " k=" << k
                    << " n=" << n;
              }
              for (std::size_t threads : {1u, 2u, 8u}) {
                par::set_threads(threads);
                auto c_blocked = c0;
                kn::detail::mm_batched_on(clone, v.ta, v.tb, st.batch, m, k,
                                          n, a.data(), b.data(), b_stride,
                                          c_blocked.data());
                for (std::size_t i = 0; i < c_blocked.size(); ++i) {
                  ASSERT_EQ(c_blocked[i], c_naive[i])
                      << "clone=" << kn::detail::to_string(clone)
                      << " variant=" << v.name << " " << st.name
                      << " m=" << m << " k=" << k << " n=" << n
                      << " threads=" << threads << " at flat index " << i;
                }
              }
              par::set_threads(1);
            }
          }
        }
      }
    }
  }
  EXPECT_GE(clones_run, 1);
}

TEST(GemmKernelTest, DispatchPicksTheWidestRunnableClone) {
  using kn::detail::Clone;
  EXPECT_TRUE(kn::detail::runnable(Clone::kPortable));
  EXPECT_TRUE(kn::detail::runnable(kn::detail::active_clone()));
  EXPECT_EQ(kn::detail::active_clone() == Clone::kAvx2,
            kn::detail::runnable(Clone::kAvx2));
}

TEST(GemmKernelTest, ThreadCountDoesNotChangeBits) {
  constexpr std::int64_t m = 129, k = 65, n = 77;
  const auto a = random_vec(static_cast<std::size_t>(m * k), 42);
  const auto b = random_vec(static_cast<std::size_t>(k * n), 43);

  std::vector<std::vector<float>> results;
  for (std::size_t threads : {1u, 2u, 8u}) {
    par::set_threads(threads);
    EXPECT_EQ(par::threads(), threads);
    std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
    kn::mm_nn(m, k, n, a.data(), b.data(), c.data());
    results.push_back(std::move(c));
  }
  par::set_threads(1);
  for (std::size_t t = 1; t < results.size(); ++t) {
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      ASSERT_EQ(results[0][i], results[t][i])
          << "thread config " << t << " diverged at flat index " << i;
    }
  }
}

TEST(GemmKernelTest, BatchedMatchesPerSliceLoopBitExact) {
  // mm_batched's contract: one dispatch, same bits as calling mm() per
  // slice — for strided B (per-head attention products), shared B (weight
  // matrices, b_stride 0) and both orientations of B, at several thread
  // counts (chunks may straddle slice boundaries only when the pool
  // partitions the row space, so thread count is part of the matrix).
  struct Case {
    kn::Trans tb;
    std::int64_t batch, m, k, n;
    bool shared;
  };
  // Attention-like tiny slices, a weight-like shared slice, and shapes that
  // leave partial chunks (m not a multiple of the micro-kernel height).
  const Case cases[] = {
      {kn::Trans::kT, 32, 17, 12, 17, false},
      {kn::Trans::kN, 32, 17, 17, 12, false},
      {kn::Trans::kN, 8, 33, 48, 48, true},
      {kn::Trans::kT, 8, 33, 48, 48, true},
      {kn::Trans::kT, 5, 129, 65, 77, false},
  };
  for (const Case& c : cases) {
    const std::int64_t b_slice = c.k * c.n;
    const auto a = random_vec(static_cast<std::size_t>(c.batch * c.m * c.k),
                              51 + static_cast<std::uint64_t>(c.batch));
    const auto b = random_vec(
        static_cast<std::size_t>((c.shared ? 1 : c.batch) * b_slice),
        52 + static_cast<std::uint64_t>(c.n));
    std::vector<float> want(static_cast<std::size_t>(c.batch * c.m * c.n),
                            0.0f);
    const std::int64_t b_stride = c.shared ? 0 : b_slice;
    for (std::int64_t g = 0; g < c.batch; ++g) {
      kn::mm(kn::Trans::kN, c.tb, c.m, c.k, c.n, a.data() + g * c.m * c.k,
             b.data() + g * b_stride, want.data() + g * c.m * c.n);
    }
    for (std::size_t threads : {1u, 2u, 8u}) {
      par::set_threads(threads);
      std::vector<float> got(want.size(), 0.0f);
      kn::mm_batched(kn::Trans::kN, c.tb, c.batch, c.m, c.k, c.n, a.data(),
                     b.data(), b_stride, got.data());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "batch=" << c.batch << " m=" << c.m << " k=" << c.k
            << " n=" << c.n << " shared=" << c.shared
            << " threads=" << threads << " at flat index " << i;
      }
    }
    par::set_threads(1);
  }
}

/// The tanh-approximation GELU of x, evaluated in double with libm's tanh.
double gelu_reference(float x) {
  const double xd = x;
  return 0.5 * xd *
         (1.0 + std::tanh(0.7978845608028654 * (xd + 0.044715 * xd * xd * xd)));
}

/// kernels::gelu's accuracy contract: |gelu(x) - ref| <= 1e-6 max(1, |ref|).
double gelu_error(float x) {
  const double ref = gelu_reference(x);
  return std::abs(static_cast<double>(kn::gelu(x)) - ref) /
         std::max(1.0, std::abs(ref));
}

TEST(RowKernelTest, GeluMeetsItsAccuracyBound) {
  // kernels::gelu evaluates tanh as a rational in plain float arithmetic
  // (so its loops vectorize); this pins how far that may drift from the
  // exact function, densely over the range where GELU is not yet x or 0.
  constexpr double kBound = 1e-6;
  double worst = 0.0;
  float worst_x = 0.0f;
  for (std::int64_t i = -120000; i <= 120000; ++i) {
    const float x = static_cast<float>(i) * 1e-4f;
    const double err = gelu_error(x);
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, kBound) << "worst at x=" << worst_x;

  for (const float x : {1e-20f, 5.0f, 1e4f, 1e13f}) {
    EXPECT_LE(gelu_error(x), kBound) << "x=" << x;
    EXPECT_LE(gelu_error(-x), kBound) << "x=" << -x;
  }
}

TEST(RowKernelTest, GeluKeepsSignedZeroInfinityAndNaN) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(kn::gelu(0.0f), 0.0f);
  EXPECT_FALSE(std::signbit(kn::gelu(0.0f)));
  EXPECT_EQ(kn::gelu(-0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(kn::gelu(-0.0f)));
  EXPECT_EQ(kn::gelu(kInf), kInf);
  // -inf * (1 + tanh(-inf)) is -inf * 0: NaN, as with tanhf.
  EXPECT_TRUE(std::isnan(kn::gelu(-kInf)));
  EXPECT_TRUE(std::isnan(kn::gelu(std::numeric_limits<float>::quiet_NaN())));
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    for (std::int64_t total : {1, 7, 64, 1000}) {
      for (std::int64_t grain : {1, 3, 64, 2000}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(total));
        for (auto& h : hits) h.store(0);
        par::parallel_for(total, grain, [&](std::int64_t b, std::int64_t e) {
          ASSERT_LE(b, e);
          ASSERT_LE(e, total);
          for (std::int64_t i = b; i < e; ++i) {
            hits[static_cast<std::size_t>(i)].fetch_add(1);
          }
        });
        for (std::int64_t i = 0; i < total; ++i) {
          ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "threads=" << threads << " total=" << total
              << " grain=" << grain << " index " << i;
        }
      }
    }
  }
  par::set_threads(1);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  par::set_threads(4);
  std::atomic<std::int64_t> count{0};
  par::parallel_for(8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      par::parallel_for(16, 4, [&](std::int64_t ib, std::int64_t ie) {
        count.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(count.load(), 8 * 16);
  par::set_threads(1);
}

// Regression for the publisher-thread re-entry hole: the thread that
// publishes a fan-out owns the pool's job mutex while running its own
// chunks, and on the 1-thread budget it still owns it inside the inline
// path. A chunk fn that calls parallel_for again used to reach try_lock on
// that owned (non-recursive) mutex — undefined behaviour. The fix routes
// any nested call inline via a thread-local in-fanout flag before the lock
// is ever touched; this test drives both re-entry paths, three levels deep,
// and checks every index is covered exactly once at every level.
TEST(ParallelForTest, ParallelForNestedReentry) {
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    constexpr std::int64_t kOuter = 6;
    constexpr std::int64_t kMid = 8;
    constexpr std::int64_t kInner = 5;
    std::vector<std::atomic<int>> hits(
        static_cast<std::size_t>(kOuter * kMid * kInner));
    for (auto& h : hits) h.store(0);
    // kMid/kInner chunk counts are > 1 so the nested calls would take the
    // pool path (and hit the owned mutex) if the in-fanout check regressed.
    par::parallel_for(kOuter, 1, [&](std::int64_t ob, std::int64_t oe) {
      for (std::int64_t o = ob; o < oe; ++o) {
        par::parallel_for(kMid, 2, [&](std::int64_t mb, std::int64_t me) {
          for (std::int64_t m = mb; m < me; ++m) {
            par::parallel_for(kInner, 1, [&](std::int64_t ib, std::int64_t ie) {
              for (std::int64_t i = ib; i < ie; ++i) {
                hits[static_cast<std::size_t>((o * kMid + m) * kInner + i)]
                    .fetch_add(1);
              }
            });
          }
        });
      }
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1)
          << "threads=" << threads << " flat index " << i;
    }
  }
  par::set_threads(1);
}

TEST(ParallelForTest, TreeSumIsDeterministicAndAccurate) {
  const auto v = random_vec(10001, 7);
  double seq = 0.0;
  for (float x : v) seq += x;

  std::vector<double> sums;
  for (std::size_t threads : {1u, 2u, 8u}) {
    par::set_threads(threads);
    sums.push_back(
        par::tree_sum(v.data(), static_cast<std::int64_t>(v.size()), 128));
  }
  par::set_threads(1);
  // Bit-identical across thread counts; near the sequential double sum.
  EXPECT_EQ(sums[0], sums[1]);
  EXPECT_EQ(sums[0], sums[2]);
  EXPECT_NEAR(sums[0], seq, 1e-6 * v.size());
}

TEST(ParallelForTest, SuggestGrainIsShapePureAndBounded) {
  // Pure function of its arguments (same inputs, same grain) and always a
  // usable chunk size.
  EXPECT_EQ(par::suggest_grain(1000, 10), par::suggest_grain(1000, 10));
  EXPECT_GE(par::suggest_grain(1, 1), 1);
  EXPECT_GE(par::suggest_grain(1 << 20, 1), 1);
  // Expensive rows need no batching; cheap rows get grouped.
  EXPECT_EQ(par::suggest_grain(1000, 1 << 20), 1);
  EXPECT_GT(par::suggest_grain(1 << 20, 1), 1);
}

TEST(MatmulNtTest, MatchesExplicitTransposeBitExact) {
  tt::Rng rng(11);
  for (std::size_t threads : {1u, 4u}) {
    par::set_threads(threads);
    const Shape as{2, 3, 9, 5};
    const Shape bs{2, 3, 7, 5};
    Tensor a = Tensor::randn(as, rng);
    Tensor b = Tensor::randn(bs, rng);
    Tensor via_nt = tt::matmul_nt(a, b);
    Tensor via_transpose = tt::matmul(a, tt::transpose_last2(b));
    ASSERT_EQ(via_nt.shape(), via_transpose.shape());
    const auto x = via_nt.data();
    const auto y = via_transpose.data();
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(x[i], y[i]) << "threads=" << threads << " index " << i;
    }
  }
  par::set_threads(1);
}

TEST(MatmulNtTest, SharedRhsMatchesExplicitTranspose) {
  tt::Rng rng(12);
  Tensor a = Tensor::randn({4, 6, 5}, rng);
  Tensor b = Tensor::randn({3, 5}, rng);  // shared [N, K]
  Tensor via_nt = tt::matmul_nt(a, b);
  Tensor via_transpose = tt::matmul(a, tt::transpose_last2(b));
  const auto x = via_nt.data();
  const auto y = via_transpose.data();
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(x[i], y[i]);
}

TEST(KernelGradTest, MatmulPathsPassGradcheck) {
  struct Case {
    const char* name;
    Shape a, b;
    bool nt;
  };
  const Case cases[] = {
      {"SharedRhs", {3, 4, 5}, {5, 6}, false},
      {"Batched", {2, 3, 4}, {2, 4, 5}, false},
      {"OddShapes", {1, 7, 9}, {9, 3}, false},
      {"NtBatched", {2, 3, 4}, {2, 6, 4}, true},
      {"NtSharedRhs", {3, 4, 5}, {6, 5}, true},
  };
  tt::Rng rng(21);
  for (const Case& c : cases) {
    std::vector<Tensor> inputs;
    inputs.push_back(Tensor::randn(c.a, rng, 1.0f, /*requires_grad=*/true));
    inputs.push_back(Tensor::randn(c.b, rng, 1.0f, /*requires_grad=*/true));
    const bool nt = c.nt;
    auto result = tt::grad_check(
        [nt](const std::vector<Tensor>& in) {
          Tensor y = nt ? tt::matmul_nt(in[0], in[1])
                        : tt::matmul(in[0], in[1]);
          return tt::sum_all(tt::mul(y, y));
        },
        std::move(inputs));
    EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
  }
}

TEST(KernelGradTest, MatmulBackwardThreadCountInvariant) {
  // Gradients must also be bit-identical at any thread count: the backward
  // GEMMs partition over output rows exactly like the forward.
  const Shape as{4, 9, 7};
  const Shape bs{7, 5};
  std::vector<std::vector<float>> ga_runs, gb_runs;
  for (std::size_t threads : {1u, 8u}) {
    par::set_threads(threads);
    tt::Rng rng(33);
    Tensor a = Tensor::randn(as, rng, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::randn(bs, rng, 1.0f, /*requires_grad=*/true);
    Tensor loss = tt::sum_all(tt::matmul(a, b));
    loss.backward();
    ga_runs.emplace_back(a.grad().begin(), a.grad().end());
    gb_runs.emplace_back(b.grad().begin(), b.grad().end());
  }
  par::set_threads(1);
  ASSERT_EQ(ga_runs[0].size(), ga_runs[1].size());
  for (std::size_t i = 0; i < ga_runs[0].size(); ++i) {
    ASSERT_EQ(ga_runs[0][i], ga_runs[1][i]) << "dA index " << i;
  }
  ASSERT_EQ(gb_runs[0].size(), gb_runs[1].size());
  for (std::size_t i = 0; i < gb_runs[0].size(); ++i) {
    ASSERT_EQ(gb_runs[0][i], gb_runs[1][i]) << "dB index " << i;
  }
}
