// rows.hpp — per-row kernels shared by the autograd ops and the compiled
// plan.
//
// softmax_lastdim / log_softmax_lastdim / gelu / layer_norm (tensor/ops.cpp,
// tensor/nn_ops.cpp) and the plan's ops (plan/plan.cpp, plan/executor.cpp)
// call these same functions, so the two inference paths agree bit for bit
// by construction. Inline: the callers' loops over rows and elements stay
// as tight as when each carried its own copy.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace tsdx::tensor::kernels {

/// y = softmax(x) over d floats; y may alias x.
inline void softmax_row(float* y, const float* x, std::int64_t d) {
  float mx = x[0];
  for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) {
    y[i] = std::exp(x[i] - mx);
    sum += y[i];
  }
  const float inv = 1.0f / sum;
  for (std::int64_t i = 0; i < d; ++i) y[i] *= inv;
}

/// y = log_softmax(x) over d floats; y may alias x.
inline void log_softmax_row(float* y, const float* x, std::int64_t d) {
  float mx = x[0];
  for (std::int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) sum += std::exp(x[i] - mx);
  const float lse = mx + std::log(sum);
  for (std::int64_t i = 0; i < d; ++i) y[i] = x[i] - lse;
}

// 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
inline constexpr float kGeluA = 0.044715f;

/// tanh for GELU in plain float arithmetic: an odd [13/6] rational on |u|
/// (Eigen's fast-tanh coefficients), |u| clamped where the rational reaches
/// 1.0f, the sign restored by OR. With no libm call and no branch, loops over
/// gelu() vectorize at the baseline ISA under default flags. The clamp is an
/// integer min on the bit pattern written with a shift: under
/// -ftrapping-math a float `?:` blocks if-conversion, and GCC turns an
/// integer `?:` into a branch around the constant clamped result. GELU error
/// <= 8.2e-7 * max(1, |gelu|) (kernel_test holds 1e-6); +-0, +-inf and NaN
/// come out as with tanhf.
inline float gelu_tanh(float u) {
  constexpr auto kClamp = std::bit_cast<std::int32_t>(7.90531110763549805f);
  const auto bits = std::bit_cast<std::uint32_t>(u);
  const std::int32_t over =
      static_cast<std::int32_t>(bits & 0x7fffffffu) - kClamp;
  const float a = std::bit_cast<float>(kClamp + (over & (over >> 31)));
  const float a2 = a * a;
  float p = -2.76076847742355e-16f;
  p = p * a2 + 2.00018790482477e-13f;
  p = p * a2 + -8.60467152213735e-11f;
  p = p * a2 + 5.12229709037114e-08f;
  p = p * a2 + 1.48572235717979e-05f;
  p = p * a2 + 6.37261928875436e-04f;
  p = p * a2 + 4.89352455891786e-03f;
  float q = 1.19825839466702e-06f;
  q = q * a2 + 1.18534705686654e-04f;
  q = q * a2 + 2.26843463243900e-03f;
  q = q * a2 + 4.89352518554385e-03f;
  const float t = a * p / q;
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(t) |
                              (bits & 0x80000000u));
}

/// The tanh-approximation GELU of one value.
inline float gelu(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + gelu_tanh(u));
}

/// d gelu(x) / dx, through the same tanh as gelu().
inline float gelu_grad(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = gelu_tanh(u);
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

/// Mean and 1/sqrt(var + eps) of one LayerNorm row.
struct RowMoments {
  float mean;
  float inv_std;
};

inline RowMoments row_moments(const float* x, std::int64_t d, float eps) {
  float mean = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) mean += x[i];
  mean /= static_cast<float>(d);
  float var = 0.0f;
  for (std::int64_t i = 0; i < d; ++i) {
    const float c = x[i] - mean;
    var += c * c;
  }
  var /= static_cast<float>(d);
  return {mean, 1.0f / std::sqrt(var + eps)};
}

/// y = LayerNorm(x) * gamma + beta over d floats. The autograd layer_norm
/// also keeps each normalized value for backward, so it runs row_moments
/// and its own normalize loop — the same arithmetic as this one.
inline void layer_norm_row(float* y, const float* x, const float* gamma,
                           const float* beta, std::int64_t d, float eps) {
  const RowMoments mo = row_moments(x, d, eps);
  for (std::int64_t i = 0; i < d; ++i) {
    const float xh = (x[i] - mo.mean) * mo.inv_std;
    y[i] = xh * gamma[i] + beta[i];
  }
}

}  // namespace tsdx::tensor::kernels
