#include "plan/executor.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "plan/trace.hpp"
#include "sdl/description.hpp"
#include "sdl/taxonomy.hpp"
#include "tensor/kernels/rows.hpp"

namespace tsdx::plan {

float* Arena::ensure(std::size_t bytes) {
  const std::size_t floats = (bytes + sizeof(float) - 1) / sizeof(float);
  if (block_.size() < floats) {
    block_.resize(floats);
    ++growths_;
  }
  return block_.data();
}

PlanCache::PlanCache(CompileOptions options) : options_(options) {}

std::shared_ptr<const Plan> PlanCache::get_or_compile(
    const core::ScenarioModel& model, const tensor::Shape& input_shape) {
  LockGuard lock(mutex_);
  const auto it = plans_.find(input_shape);
  if (it != plans_.end()) return it->second;

  std::shared_ptr<const Plan> plan;
  try {
    plan = Plan::compile(model, input_shape, options_);
  } catch (const TraceError&) {
    // Remembered as null: an uncompilable model costs one trace attempt
    // per geometry, then serves dynamically forever.
    obs::Registry::global().counter("plan.trace_errors").inc();
  }
  plans_.emplace(input_shape, plan);
  return plan;
}

PlanExecutor::PlanExecutor(
    std::shared_ptr<const core::ScenarioExtractor> extractor,
    std::shared_ptr<PlanCache> cache)
    : extractor_(std::move(extractor)), cache_(std::move(cache)) {
  const std::size_t max_card =
      *std::max_element(sdl::kSlotCardinality.begin(),
                        sdl::kSlotCardinality.end());
  probs_.resize(max_card);
}

std::vector<core::ExtractionResult> PlanExecutor::extract_batch(
    const data::Batch& batch) {
  auto& reg = obs::Registry::global();
  // Constrained decoding and training-mode models stay on the dynamic
  // path: the first needs the full probability rows fed through the exact
  // decoder, the second isn't a pure function of the weights.
  std::shared_ptr<const Plan> plan;
  if (!extractor_->constrained_decoding() && extractor_->frozen()) {
    plan = cache_->get_or_compile(extractor_->model(), batch.video.shape());
  }
  if (!plan) {
    reg.counter("plan.fallbacks").inc();
    last_used_plan_ = false;
    return extractor_->extract_batch(batch);
  }

  TSDX_TRACE_SPAN("plan.execute");
  last_used_plan_ = true;
  // Steady-state arena growth is an anomaly: after the first compiled run
  // per executor the hot path must not allocate (the plan_test contract) —
  // a growth here means a new high-water geometry slipped into a warmed
  // worker, worth a post-mortem dump.
  const std::uint64_t growths_before = arena_.growths();
  float* arena = arena_.ensure(plan->arena_bytes());
  if (plan_executions_ > 0 && arena_.growths() != growths_before) {
    obs::SloEngine::global().note_anomaly(obs::Anomaly::kArenaGrowth,
                                          obs::trace::current().trace_id);
  }
  ++plan_executions_;
  plan->run(batch.video.data().data(), arena);
  reg.counter("plan.executions").inc();

  // Post-processing mirrors ScenarioModel::predict_with_confidence +
  // the extractor's result assembly, element for element: row softmax,
  // first-strict-max argmax, confidence at the argmax.
  const std::int64_t b = batch.video.dim(0);
  const auto& active = extractor_->model().active_slots();
  std::vector<sdl::SlotLabels> labels(static_cast<std::size_t>(b));
  std::vector<std::array<float, sdl::kNumSlots>> conf(
      static_cast<std::size_t>(b));
  for (std::size_t s = 0; s < sdl::kNumSlots; ++s) {
    if (!active[s]) {
      for (std::int64_t i = 0; i < b; ++i) {
        labels[static_cast<std::size_t>(i)][s] = 0;
        conf[static_cast<std::size_t>(i)][s] = 0.0f;
      }
      continue;
    }
    const float* logits = plan->logits_ptr(s, arena);
    const auto c = static_cast<std::int64_t>(sdl::kSlotCardinality[s]);
    for (std::int64_t i = 0; i < b; ++i) {
      // tensor::softmax_lastdim's row kernel, as the dynamic
      // predict_with_confidence computes it.
      tensor::kernels::softmax_row(probs_.data(), logits + i * c, c);
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < c; ++j) {
        if (probs_[static_cast<std::size_t>(j)] >
            probs_[static_cast<std::size_t>(best)]) {
          best = j;
        }
      }
      labels[static_cast<std::size_t>(i)][s] =
          static_cast<std::size_t>(best);
      conf[static_cast<std::size_t>(i)][s] =
          probs_[static_cast<std::size_t>(best)];
    }
  }

  std::vector<core::ExtractionResult> out;
  out.reserve(static_cast<std::size_t>(b));
  for (std::int64_t i = 0; i < b; ++i) {
    core::ExtractionResult result;
    result.description =
        sdl::from_slot_labels(labels[static_cast<std::size_t>(i)]);
    result.confidence = conf[static_cast<std::size_t>(i)];
    result.warnings = sdl::validate(result.description);
    out.push_back(std::move(result));
  }
  return out;
}

}  // namespace tsdx::plan
