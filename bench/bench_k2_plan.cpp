// R-K2 — Compiled-plan throughput (tsdx::plan): batch extraction clips/s of
// the traced static execution plan (fused ops, arena-planned buffers, zero
// hot-path allocation) vs the dynamic interpreter walking the module tree,
// on the bench-scale DividedST extractor at serving micro-batch sizes 1/4/8.
//
// Two things are measured and both are gated in CI (tools/bench_gate.py vs
// bench/BENCH_K2_baseline.json):
//   * speedup_vs_dynamic — compiled clips/s over dynamic clips/s per batch
//     size. The win comes from fusion (QK^T+scale+softmax, bias+GELU,
//     residual+LayerNorm) and from replacing per-op allocate/free with one
//     arena, so it must survive any refactor of src/plan or src/tensor.
//   * equivalence_exact — 1.0 iff the compiled results are bit-identical to
//     the dynamic path's (labels, confidences, warnings). This is the
//     plan.hpp equivalence contract observed end to end; any drift gates
//     the PR even if throughput improved.
//
// The steady-state allocation discipline is also checked: after the warm-up
// run, the timed region must not grow the arena (growths() flat). A bench
// run that allocates in the hot path reports steady_state_growths > 0 and
// fails equivalence gating via exit status 3.
//
// --smoke runs a reduced rep count and writes BENCH_K2.json (see
// tools/bench_gate.py, which the bench-smoke CI job runs against the
// committed bench/BENCH_K2_baseline.json).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "plan/executor.hpp"
#include "sdl/description.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/parallel_for.hpp"

using namespace tsdx;
using namespace tsdx::bench;

namespace {

/// Best-of-reps wall time for fn (seconds).
template <typename Fn>
double time_best(std::size_t reps, const Fn& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

/// A serving micro-batch of `count` clips, stacked the way the server's
/// worker loop stacks them ([B, T, C, H, W], clip-major).
data::Batch make_batch(const std::vector<sim::VideoClip>& clips,
                       std::size_t count) {
  const sim::VideoClip& head = clips.front();
  const std::size_t per_clip = head.data.size();
  std::vector<float> stacked;
  stacked.reserve(per_clip * count);
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

/// Bitwise result equality: labels, confidences (memcmp, no tolerance),
/// warnings. The compiled path's contract is exact equality, so the bench
/// records 1.0 or 0.0 — nothing in between.
bool bit_identical(const std::vector<core::ExtractionResult>& a,
                   const std::vector<core::ExtractionResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (sdl::to_slot_labels(a[i].description) !=
        sdl::to_slot_labels(b[i].description)) {
      return false;
    }
    if (std::memcmp(a[i].confidence.data(), b[i].confidence.data(),
                    a[i].confidence.size() * sizeof(float)) != 0) {
      return false;
    }
    if (a[i].warnings != b[i].warnings) return false;
  }
  return true;
}

struct BatchResult {
  std::size_t batch = 0;
  double dynamic_clips_per_s = 0.0;
  double compiled_clips_per_s = 0.0;
  double speedup = 0.0;
  double equivalence = 0.0;
  std::uint64_t steady_state_growths = 0;
};

void write_json(const char* path, const std::vector<BatchResult>& rows,
                std::size_t pool_threads, std::int64_t fused_ops,
                std::size_t arena_bytes) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "bench_k2_plan: cannot write %s\n", path);
    return;
  }
  double log_speedup = 0.0;
  double min_equiv = 1.0;
  for (const BatchResult& r : rows) {
    log_speedup += std::log(r.speedup);
    min_equiv = std::min(min_equiv, r.equivalence);
  }
  const double geomean =
      std::exp(log_speedup / static_cast<double>(rows.size()));

  std::fprintf(f, "{\n  \"bench\": \"bench_k2_plan\",\n");
  std::fprintf(f, "  \"pool_threads\": %zu,\n", pool_threads);
  std::fprintf(
      f, "  \"gated_metrics\": [\"speedup_vs_dynamic\", \"equivalence_exact\"],\n");
  // Exactness flags: gated for equality and never derated (bench_gate.py).
  std::fprintf(
      f, "  \"exact_metrics\": [\"equivalence_exact\", \"equivalence_min\"],\n");
  std::fprintf(f, "  \"shapes\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BatchResult& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"batch%zu\", \"batch\": %zu, "
                 "\"dynamic_clips_per_s\": %.4f, "
                 "\"compiled_clips_per_s\": %.4f, "
                 "\"speedup_vs_dynamic\": %.4f, "
                 "\"equivalence_exact\": %.1f, "
                 "\"steady_state_growths\": %llu}%s\n",
                 r.batch, r.batch, r.dynamic_clips_per_s,
                 r.compiled_clips_per_s, r.speedup, r.equivalence,
                 static_cast<unsigned long long>(r.steady_state_growths),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"summary\": {\"speedup_geomean\": %.4f, "
               "\"equivalence_min\": %.1f, \"fused_ops\": %lld, "
               "\"arena_bytes\": %zu}\n}\n",
               geomean, min_equiv, static_cast<long long>(fused_ops),
               arena_bytes);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json PATH]\n", argv[0]);
      return 2;
    }
  }
  if (smoke && json_path == nullptr) json_path = "BENCH_K2.json";

  std::size_t pool_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (par::env_override()) pool_threads = par::threads();

  print_banner("R-K2",
               "compiled-plan throughput (tsdx::plan vs dynamic forward)");
  const std::size_t reps = smoke ? 3 : 10;
  std::printf("best of %zu reps per cell; %zu intra-op threads\n\n", reps,
              pool_threads);

  auto extractor = std::make_shared<core::ScenarioExtractor>(
      model_config(core::AttentionKind::kDividedST), kModelSeed);
  extractor->freeze();

  sim::ClipGenerator gen(render_config(), kDataSeed);
  constexpr std::size_t kBatchSizes[] = {1, 4, 8};
  const std::size_t max_batch =
      *std::max_element(std::begin(kBatchSizes), std::end(kBatchSizes));
  std::vector<sim::VideoClip> clips;
  clips.reserve(max_batch);
  for (std::size_t i = 0; i < max_batch; ++i) {
    clips.push_back(gen.generate().video);
  }

  par::set_threads(pool_threads);

  std::printf("%-8s %14s %14s %9s %6s %8s\n", "batch", "dynamic c/s",
              "compiled c/s", "speedup", "exact", "growths");

  auto cache = std::make_shared<plan::PlanCache>();
  std::vector<BatchResult> rows;
  bool all_exact = true;
  bool steady = true;
  std::int64_t fused_ops = 0;
  std::size_t arena_bytes = 0;
  for (const std::size_t b : kBatchSizes) {
    const data::Batch batch = make_batch(clips, b);

    std::vector<core::ExtractionResult> dynamic_results;
    const double dynamic_s = time_best(
        reps, [&] { dynamic_results = extractor->extract_batch(batch); });

    // One executor per batch size, like one server worker: the warm-up run
    // compiles (cache shared across sizes, keyed by geometry) and sizes the
    // arena; the timed region must then run allocation-free.
    plan::PlanExecutor executor(extractor, cache);
    std::vector<core::ExtractionResult> compiled_results =
        executor.extract_batch(batch);
    const std::uint64_t growths_after_warmup = executor.arena().growths();
    const double compiled_s = time_best(
        reps, [&] { compiled_results = executor.extract_batch(batch); });

    BatchResult r;
    r.batch = b;
    r.dynamic_clips_per_s = static_cast<double>(b) / dynamic_s;
    r.compiled_clips_per_s = static_cast<double>(b) / compiled_s;
    r.speedup = r.compiled_clips_per_s / r.dynamic_clips_per_s;
    r.equivalence = bit_identical(compiled_results, dynamic_results) ? 1.0
                                                                     : 0.0;
    r.steady_state_growths =
        executor.arena().growths() - growths_after_warmup;
    all_exact = all_exact && r.equivalence == 1.0;
    steady = steady && r.steady_state_growths == 0;
    rows.push_back(r);

    const auto plan = cache->get_or_compile(
        extractor->model(), batch.video.shape());
    if (plan != nullptr) {
      fused_ops = plan->fused_ops();
      arena_bytes = plan->arena_bytes();
    }

    std::printf("%-8zu %14.2f %14.2f %8.2fx %6s %8llu\n", b,
                r.dynamic_clips_per_s, r.compiled_clips_per_s, r.speedup,
                r.equivalence == 1.0 ? "yes" : "NO",
                static_cast<unsigned long long>(r.steady_state_growths));
  }
  par::set_threads(1);

  std::printf("\nlargest plan: %lld fused ops, %zu arena bytes\n",
              static_cast<long long>(fused_ops), arena_bytes);
  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_k2_plan: compiled results are NOT bit-identical\n");
  }
  if (!steady) {
    std::fprintf(stderr,
                 "bench_k2_plan: arena grew during the timed region\n");
  }

  if (json_path != nullptr) {
    write_json(json_path, rows, pool_threads, fused_ops, arena_bytes);
    std::printf("wrote %s\n", json_path);
  }
  return (all_exact && steady) ? 0 : 3;
}
