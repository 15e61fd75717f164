// common.hpp — shared pieces of the repository benchmark: options, the
// bench-scale model, the in-memory span tracer, percentiles, request
// accounting and the metric report every workload fills in.
//
// The benchmark drives tsdx only through public entry points; every span and
// counter here lives in the benchmark's own files, around calls into the
// layers, never inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/extractor.hpp"
#include "sim/render.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seed of one input stream of a workload. The run's seed and a per-stream
/// salt go through SplitMix64, so nearby seeds give unrelated streams. A
/// plain `seed * constant` start would not: consecutive seeds would yield
/// the same SplitMix64 sequence shifted by one draw.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed ^ (salt * 0xd1b54a32d192ed03ull);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Fault injected into the benchmark's own output check, to prove the
  /// check can fail: "", "flip_bit", "wrong_label" or "drop".
  std::string inject;
  /// Directory (inside the checkout) for the span dump of traced runs.
  std::string out_dir;
  /// Source identity of the code under test (git SHA or content hash).
  std::string source_id;
};

// ---- the model under test -------------------------------------------------
// The bench-scale DividedST extractor the serving and plan benches share:
// 32 px, 8 frames, dim 48, fixed weights seed, frozen. Compute cost does not
// depend on the weights' values, so it is never trained.
inline constexpr std::uint64_t kModelSeed = 7;
tsdx::core::ModelConfig model_config();
tsdx::sim::RenderConfig render_config();

/// The exactness contract of every served answer: labels equal,
/// confidences memcmp-equal and warnings equal.
bool same_answer(const tsdx::core::ExtractionResult& got,
                 const tsdx::core::ExtractionResult& want);

/// Flip the lowest mantissa bit of `x` (the self-test's corrupted answer).
void flip_low_bit(float& x);

// ---- spans ----------------------------------------------------------------

/// One timed call into a layer. Spans of one request share `trace`; `parent`
/// is the id of the enclosing span (0 at the root).
struct Span {
  const char* name = "";
  std::uint64_t trace = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-threaded, in-memory span recorder. Only the benchmark's own
/// thread records; spans are written out once, after the run. When disabled
/// begin() returns 0 and records nothing.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t begin(const char* name, std::uint64_t trace,
                      std::uint32_t parent = 0, std::int64_t start = 0);
  void end(std::uint32_t id, std::int64_t end = 0);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span name: total self time in ms (duration minus the part of it
  /// covered by child spans) and the span count.
  std::map<std::string, std::pair<double, std::size_t>> self_time_ms() const;
  /// Write {"spans": [...], "self_time_ms": {...}}; false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t trace,
        std::uint32_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(name, trace, parent)) {}
  ~Scope() {
    if (id_ != 0) tracer_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile of `v` (p in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Closed-loop summaries that a neighbour's burst on a shared host cannot
/// drag. The samples, in completion order, are cut into consecutive blocks
/// of `block` samples (a partial last block is dropped). Each block has a
/// rate, which is `block` over the time since the previous block ended, and
/// percentiles. The median over blocks is reported. A disturbed stretch of
/// the run completes fewer blocks, so it cannot move the median much.
struct Blocked {
  double rate_per_s = 0.0;  ///< median block rate
  double p50 = 0.0;         ///< median of per-block p50
  double p99 = 0.0;         ///< median of per-block p99
  std::size_t blocks = 0;
};
/// `t_s[i]` is when sample `values[i]` completed, in seconds since the
/// phase started, non-decreasing.
Blocked blocked(const std::vector<double>& t_s,
                const std::vector<double>& values, std::size_t block);

/// Per-phase request accounting. Every request sent ends in exactly one of
/// succeeded / failed / refused / wrong.
struct Accounting {
  std::string phase;
  std::uint64_t sent = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t failed = 0;   ///< the future or call threw
  std::uint64_t refused = 0;  ///< submit() threw (admission, stopped)
  std::uint64_t wrong = 0;    ///< answered, but not equal to the reference
  std::uint64_t bad() const { return failed + refused + wrong; }
  bool balanced() const { return succeeded + bad() == sent; }
};

// ---- report ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile or mean; 0 for scalars.
  std::size_t samples = 0;
};

/// What a workload hands back to main: metrics by contract name, accounting
/// per phase, human-readable extras and the configuration it ran.
struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<Accounting> phases;
  /// Workload-specific names for the contract metrics (clips_per_s,
  /// recall_at_10, ...) and other context, printed but not scored.
  std::vector<std::pair<std::string, std::string>> notes;
  /// JSON object text describing every config value the workload set.
  std::string config_json;
  /// False when the run must not be scored (e.g. the open-loop generator
  /// fell behind its schedule).
  bool valid = true;
  std::string invalid_reason;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Cumulative (steal, total) jiffies of all CPUs from /proc/stat; {0, 0}
/// where unavailable. On a shared virtual host, the steal share of a run
/// says how much of it the hypervisor gave to other guests.
std::pair<double, double> cpu_steal_jiffies();

std::string fmt(double v, int precision = 4);

// ---- workloads ---------------------------------------------------------------

Report run_serve_light(const Options& opt, Tracer& tracer);
Report run_serve_saturated(const Options& opt, Tracer& tracer);
Report run_search_ingest(const Options& opt, Tracer& tracer);

/// Isolated plan / core / tensor measurements for the traced run: warmed
/// PlanExecutor and dynamic extract_batch at batch 1/4/8, cold plan compile,
/// per-shape GEMM rates and per-clip FLOP / fan-out counts.
void run_model_layer_probes(Report& report, Tracer& tracer);

/// Host stamp: CPU, ISA flags, cores, compiler, build type, source id.
std::string host_stamp_json(const Options& opt);

}  // namespace perfbench
