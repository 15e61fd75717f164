// Isolated measurements of the model layers for the traced serving runs:
// the compiled plan, the dynamic extractor it replaces, and the GEMM entry
// both execute on. Each timing is the median of repeated calls after a
// warm-up; each call is one benchmark span.
#include <memory>

#include "common.hpp"
#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "plan/executor.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/gemm.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace tsdx;
namespace kernels = tsdx::tensor::kernels;

namespace {

constexpr std::size_t kBatchSizes[] = {1, 4, 8};
constexpr int kCompileReps = 5;
/// Each timed cell repeats its call until this much time has passed (and at
/// least kMinReps times), then reports the median call.
constexpr double kCellSeconds = 0.25;
constexpr int kMinReps = 5;

data::Batch make_batch(const std::vector<sim::VideoClip>& clips,
                       std::size_t count) {
  const sim::VideoClip& head = clips.front();
  std::vector<float> stacked;
  for (std::size_t i = 0; i < count; ++i) {
    stacked.insert(stacked.end(), clips[i].data.begin(), clips[i].data.end());
  }
  data::Batch batch;
  batch.video = nn::Tensor::from_vector(
      {static_cast<std::int64_t>(count), head.frames, sim::kNumChannels,
       head.height, head.width},
      std::move(stacked));
  return batch;
}

bool identical(const std::vector<core::ExtractionResult>& a,
               const std::vector<core::ExtractionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_answer(a[i], b[i])) return false;
  }
  return true;
}

/// Median ms of fn() over repeated traced calls.
template <typename Fn>
double median_ms(Tracer& tracer, const char* span, const Fn& fn) {
  std::vector<double> ms;
  const auto start = Clock::now();
  while (ms.size() < static_cast<std::size_t>(kMinReps) ||
         seconds_between(start, Clock::now()) < kCellSeconds) {
    const std::uint32_t id = tracer.begin(span, 0);
    const std::int64_t t0 = now_ns();
    fn();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    tracer.end(id);
  }
  return median(ms);
}

/// One GEMM of the model, as the plan issues it through mm_batched.
struct GemmShape {
  const char* name;
  kernels::Trans tb;
  std::int64_t batch, m, k, n;
  bool shared_rhs;  ///< one weight matrix across the batch
};

}  // namespace

void run_model_layer_probes(Report& report, Tracer& tracer) {
  tracer.set_enabled(true);
  auto extractor =
      std::make_shared<core::ScenarioExtractor>(model_config(), kModelSeed);
  extractor->freeze();
  sim::ClipGenerator gen(render_config(), 1);
  std::vector<sim::VideoClip> clips;
  for (std::size_t i = 0; i < 8; ++i) clips.push_back(gen.generate().video);
  obs::Registry& reg = obs::Registry::global();

  // Cold compile of the batch-1 geometry.
  {
    const data::Batch b1 = make_batch(clips, 1);
    std::vector<double> ms;
    for (int rep = 0; rep < kCompileReps; ++rep) {
      plan::PlanCache cold;
      const std::uint32_t id = tracer.begin("plan.compile", 0);
      const std::int64_t t0 = now_ns();
      const auto compiled = cold.get_or_compile(extractor->model(),
                                                b1.video.shape());
      ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      tracer.end(id);
      if (compiled == nullptr) report.valid = false;
    }
    report.set("plan.compile_ms", median(ms), "ms", ms.size());
  }

  auto cache = std::make_shared<plan::PlanCache>();
  std::uint64_t fallbacks = 0, growths = 0;
  bool exact = true;
  double plan_b8 = 0.0, core_b8 = 0.0;
  for (const std::size_t b : kBatchSizes) {
    const data::Batch batch = make_batch(clips, b);
    plan::PlanExecutor executor(extractor, cache);
    std::vector<core::ExtractionResult> compiled =
        executor.extract_batch(batch);  // warm-up: compile + size the arena
    const std::uint64_t growths0 = executor.arena().growths();
    const std::uint64_t fallbacks0 = reg.counter("plan.fallbacks").value();
    const double plan_ms = median_ms(
        tracer, "plan.execute", [&] { compiled = executor.extract_batch(batch); });
    growths += executor.arena().growths() - growths0;
    fallbacks += reg.counter("plan.fallbacks").value() - fallbacks0;
    report.set("plan.execute_ms.b" + std::to_string(b), plan_ms, "ms");

    std::vector<core::ExtractionResult> dynamic;
    if (b == 1 || b == 8) {
      const double core_ms = median_ms(tracer, "core.extract_batch", [&] {
        dynamic = extractor->extract_batch(batch);
      });
      report.set("core.extract_batch_ms.b" + std::to_string(b), core_ms,
                 "ms");
      exact = exact && identical(compiled, dynamic);
      if (b == 8) {
        plan_b8 = plan_ms;
        core_b8 = core_ms;
      }
    }
  }
  report.set("plan.fallbacks", static_cast<double>(fallbacks), "count");
  report.set("plan.arena_growths", static_cast<double>(growths), "count");
  report.set("plan.speedup.b8", plan_b8 > 0 ? core_b8 / plan_b8 : 0.0,
             "ratio");
  if (!exact) {
    report.valid = false;
    report.invalid_reason = "compiled plan output differs from the dynamic path";
  }

  // Per-clip work of the compiled forward at batch 8: analytic GEMM FLOPs
  // from the plan's matmul-family ops, and pool fan-outs counted by tsdx::par.
  {
    const data::Batch b8 = make_batch(clips, 8);
    const auto plan = cache->get_or_compile(extractor->model(),
                                            b8.video.shape());
    double flops = 0.0;
    if (plan != nullptr) {
      for (const plan::Op& op : plan->graph().ops) {
        if (op.type == plan::OpType::kMatmul ||
            op.type == plan::OpType::kMatmulNt ||
            op.type == plan::OpType::kScaledSoftmaxNt) {
          flops += 2.0 * static_cast<double>(op.batch) *
                   static_cast<double>(op.m) * static_cast<double>(op.k) *
                   static_cast<double>(op.n);
        }
      }
    }
    report.set("gemm.flops_per_clip", flops / 8.0, "count");
    plan::PlanExecutor executor(extractor, cache);
    executor.extract_batch(b8);
    constexpr int kRuns = 10;
    const std::uint64_t f0 = reg.counter("par.fanouts").value();
    for (int i = 0; i < kRuns; ++i) executor.extract_batch(b8);
    report.set("par.fanouts_per_clip",
               static_cast<double>(reg.counter("par.fanouts").value() - f0) /
                   (8.0 * kRuns),
               "count");
  }

  // GEMM rates of one divided-space-time block through the tensor kernels'
  // batched entry, at the shapes the plan issues for batch 1 and batch 8.
  const core::ModelConfig cfg = model_config();
  const std::int64_t tokens =
      (cfg.image_size / cfg.patch_size) * (cfg.image_size / cfg.patch_size);
  const std::int64_t frames = cfg.frames;
  const std::int64_t dim = cfg.dim;
  const std::int64_t head = cfg.dim / cfg.heads;
  const std::int64_t hidden = cfg.dim * cfg.mlp_ratio;
  tensor::Rng rng(11);
  for (const std::int64_t b : {std::int64_t{1}, std::int64_t{8}}) {
    const GemmShape shapes[] = {
        {"qkv", kernels::Trans::kN, frames * b, tokens, dim, dim, true},
        {"scores", kernels::Trans::kT, frames * cfg.heads * b, tokens, head,
         tokens, false},
        {"av", kernels::Trans::kN, frames * cfg.heads * b, tokens, tokens,
         head, false},
        {"mlp_up", kernels::Trans::kN, frames * b, tokens, dim, hidden, true},
        {"mlp_down", kernels::Trans::kN, frames * b, tokens, hidden, dim,
         true},
    };
    for (const GemmShape& s : shapes) {
      const std::int64_t b_slice = s.k * s.n;
      std::vector<float> a(static_cast<std::size_t>(s.batch * s.m * s.k));
      std::vector<float> w(static_cast<std::size_t>(
          (s.shared_rhs ? 1 : s.batch) * b_slice));
      std::vector<float> c(static_cast<std::size_t>(s.batch * s.m * s.n));
      for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& x : w) x = static_cast<float>(rng.uniform(-1.0, 1.0));
      // C accumulates across calls; its values stay finite and the kernel's
      // cost does not depend on them.
      const auto call = [&] {
        kernels::mm_batched(kernels::Trans::kN, s.tb, s.batch, s.m, s.k, s.n,
                            a.data(), w.data(),
                            s.shared_rhs ? 0 : b_slice, c.data());
      };
      call();
      const double ms = median_ms(tracer, "tensor.gemm", call);
      const double flops = 2.0 * static_cast<double>(s.batch * s.m * s.k * s.n);
      report.set(std::string("tensor.gemm_gflops.") + s.name + ".b" +
                     std::to_string(b),
                 ms > 0 ? flops / (ms * 1e-3) * 1e-9 : 0.0, "GFLOP/s");
    }
  }
  tracer.set_enabled(false);
}

}  // namespace perfbench
