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

/// The tanh-approximation GELU of one value.
inline float gelu(float x) {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(u));
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
