// serve_light and serve_saturated: clips through serve::Router with compiled
// plans on, answers checked bit for bit against the single-threaded dynamic
// extractor.
//
// serve_light is an open loop: arrival times are drawn before timing starts,
// each request is timed from the moment it was due, and the generator's own
// lateness is reported. serve_saturated is a closed loop that keeps a fixed
// number of requests outstanding. One generator thread drives both; it
// collects answers in submission order.
#include <algorithm>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "sdl/description.hpp"
#include "serve/router.hpp"
#include "sim/clipgen.hpp"
#include "tensor/kernels/parallel_for.hpp"
#include "tensor/rng.hpp"

namespace perfbench {

using namespace tsdx;

namespace {

// ---- workload constants (recorded in the report's config block) -----------

/// Distinct simulator clips requests draw from.
constexpr std::size_t kClipPool = 32;
/// Open-loop offered rate: about a fifth of serve_saturated's capacity on
/// the 4-core reference host (~1100 clips/s), so batches are mostly size 1.
/// A tenth would leave a 20 s run only two blocks of kLightBlock answers.
constexpr double kLightRatePerS = 220.0;
/// Latency limits behind slo_attainment.
constexpr double kLightLimitMs = 25.0;
constexpr double kSaturatedLimitMs = 250.0;
/// Requests kept outstanding by the closed loop: twice the fleet's batch
/// slots (2 replicas x 2 workers x max_batch 8), so a full batch is queued
/// behind every executing one.
constexpr std::size_t kSaturatedOutstanding = 64;
/// An open-loop run whose generator p99 lateness exceeds this is invalid:
/// a schedule that late, not the system, would decide the SLO. Requests are
/// timed from their due time, so smaller lateness is charged to latency.
constexpr double kGenLagBoundMs = kLightLimitMs;
/// Set-up is repeated this many times; the median is reported.
constexpr int kSetupReps = 11;
/// Warm-up before measuring: compiles every batch-size plan on every
/// replica and fills the arenas.
constexpr double kWarmupSeconds = 1.0;
/// Percentiles are medians over blocks of this many answers (about 4.5 s
/// light, 2 s saturated); a p99 needs at least 1000. serve_saturated's
/// throughput is the median block rate too.
constexpr std::size_t kLightBlock = 1000;
constexpr std::size_t kSaturatedBlock = 2000;
/// Traced runs alternate untraced and traced blocks of this length.
constexpr double kTraceBlockSeconds = 1.0;

serve::RouterConfig router_config() {
  serve::RouterConfig cfg;  // defaults, except the compiled plan is on
  cfg.server.use_compiled_plan = true;
  return cfg;
}

std::string us(std::chrono::microseconds d) {
  return std::to_string(d.count());
}
std::string ms(std::chrono::milliseconds d) {
  return std::to_string(d.count());
}

std::string router_config_json(const serve::RouterConfig& c) {
  const serve::ServerConfig& s = c.server;
  std::ostringstream o;
  o << "{\"router\": {\"replicas\": " << c.replicas
    << ", \"relay_threads\": " << c.relay_threads
    << ", \"relay_queue_capacity\": " << c.relay_queue_capacity
    << ", \"max_attempts\": " << c.max_attempts
    << ", \"retry_backoff_us\": " << us(c.retry_backoff)
    << ", \"retry_backoff_cap_us\": " << us(c.retry_backoff_cap)
    << ", \"retry_cost_floor_us\": " << us(c.retry_cost_floor)
    << ", \"deadline_grace_us\": " << us(c.deadline_grace)
    << ", \"seed\": " << c.seed
    << ", \"retry_budget_floor\": " << c.retry_budget_floor
    << ", \"retry_budget_ratio\": " << c.retry_budget_ratio
    << ", \"retry_budget_cap\": " << c.retry_budget_cap
    << ", \"down_after_failures\": " << c.down_after_failures
    << ", \"probe_interval_ms\": " << ms(c.probe_interval)
    << ", \"probe_timeout_ms\": " << ms(c.probe_timeout)
    << ", \"heal_backoff_ms\": " << ms(c.heal_backoff)
    << ", \"probe_clip\": " << (c.probe_clip ? "true" : "false")
    << ", \"fallback\": " << (c.fallback ? "true" : "false")
    << ", \"admission\": {\"aggregate_rate_per_s\": "
    << c.admission.aggregate_rate_per_s
    << ", \"burst_seconds\": " << c.admission.burst_seconds
    << ", \"congestion_window\": " << c.admission.congestion_window
    << ", \"tenants\": " << c.admission.tenants.size()
    << ", \"default_weight\": " << c.admission.default_weight << "}}"
    << ", \"server\": {\"workers\": " << s.workers
    << ", \"max_batch\": " << s.max_batch
    << ", \"batch_window_us\": " << us(s.batch_window)
    << ", \"queue_capacity\": " << s.queue_capacity << ", \"overflow\": \""
    << serve::to_string(s.overflow) << "\""
    << ", \"fallback\": " << (s.fallback ? "true" : "false")
    << ", \"circuit\": {\"fault_threshold\": " << s.circuit.fault_threshold
    << ", \"cooldown_ms\": " << ms(s.circuit.cooldown)
    << ", \"saturation_window_ms\": " << ms(s.circuit.saturation_window)
    << "}, \"use_compiled_plan\": "
    << (s.use_compiled_plan ? "true" : "false")
    << ", \"intra_op_threads\": " << s.intra_op_threads
    << ", \"resolved_par_threads\": " << par::threads() << "}";
  return o.str();
}

// ---- inputs and the reference -----------------------------------------------

struct Inputs {
  std::vector<sim::VideoClip> clips;
  /// Single-threaded dynamic ScenarioExtractor::extract of each clip.
  std::vector<core::ExtractionResult> reference;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  sim::ClipGenerator gen(render_config(), stream_seed(seed, 2));
  for (std::size_t i = 0; i < kClipPool; ++i) {
    in.clips.push_back(gen.generate().video);
  }
  core::ScenarioExtractor oracle(model_config(), kModelSeed);
  oracle.freeze();
  const std::size_t threads = par::threads();
  par::set_threads(1);
  for (const sim::VideoClip& clip : in.clips) {
    in.reference.push_back(oracle.extract(clip));
  }
  par::set_threads(threads);
  return in;
}

std::size_t agreeing_slots(const core::ExtractionResult& got,
                           const core::ExtractionResult& want) {
  const auto a = sdl::to_slot_labels(got.description);
  const auto b = sdl::to_slot_labels(want.description);
  std::size_t n = 0;
  for (std::size_t s = 0; s < a.size(); ++s) n += a[s] == b[s];
  return n;
}

/// Apply the requested self-test fault to an answer (first call only).
void corrupt(const std::string& inject, core::ExtractionResult& r) {
  if (inject == "flip_bit") {
    flip_low_bit(r.confidence[0]);
  } else if (inject == "wrong_label") {
    sdl::SlotLabels labels = sdl::to_slot_labels(r.description);
    labels[0] = (labels[0] + 1) % sdl::kNumRoadLayouts;
    r.description = sdl::from_slot_labels(labels);
  }
}

// ---- the fleet ------------------------------------------------------------------

struct Fleet {
  std::shared_ptr<core::ScenarioExtractor> extractor;
  std::unique_ptr<serve::Router> router;
};

/// Model build, freeze, Router start and the first request, whose batch
/// compiles the first geometry's plan. Returns seconds; the answer is
/// checked into `acct`.
double timed_setup(Fleet& fleet, const Inputs& in, Accounting& acct) {
  const auto t0 = Clock::now();
  fleet.extractor =
      std::make_shared<core::ScenarioExtractor>(model_config(), kModelSeed);
  fleet.extractor->freeze();
  fleet.router = std::make_unique<serve::Router>(fleet.extractor,
                                                 router_config());
  ++acct.sent;
  try {
    const core::ExtractionResult r =
        fleet.router->submit(in.clips[0]).get();
    const double s = seconds_between(t0, Clock::now());
    if (same_answer(r, in.reference[0])) {
      ++acct.succeeded;
    } else {
      ++acct.wrong;
    }
    return s;
  } catch (const std::exception&) {
    ++acct.failed;
    return seconds_between(t0, Clock::now());
  }
}

// ---- load generation ----------------------------------------------------------

/// One request the generator has issued.
struct Pending {
  std::future<core::ExtractionResult> future;
  std::size_t clip = 0;
  std::int64_t due_ns = 0;
  std::int64_t submit_ns = 0;  ///< when Router::submit was entered
  std::uint32_t span = 0;      ///< root span (traced blocks only)
  bool traced = false;
};

/// What the generator observed in one phase.
struct PhaseResult {
  Accounting acct;
  std::vector<double> latency_ms;   ///< due -> answer observed, successes
  std::vector<double> client_ms;    ///< submit entered -> answer observed
  std::vector<double> lag_ms;       ///< open loop: send - due
  std::vector<bool> traced;         ///< per latency sample
  std::vector<double> done_s;       ///< per latency sample: when answered,
                                    ///< seconds since the phase started
  std::uint64_t slo_met = 0;        ///< correct and within the limit
  std::uint64_t slots_equal = 0;
  std::uint64_t slots_total = 0;
  double elapsed_s = 0.0;           ///< phase start -> last answer
};

class Generator {
 public:
  Generator(serve::Router& router, const Inputs& in, Tracer& tracer,
            double limit_ms, std::string phase, std::string inject)
      : router_(router), in_(in), tracer_(tracer), limit_ms_(limit_ms),
        inject_(std::move(inject)) {
    result_.acct.phase = std::move(phase);
  }

  /// Issue one request for `clip`, due at `due_ns`. Returns false when the
  /// request is not pending afterwards (refused, or dropped by --inject).
  bool send(std::size_t clip, std::int64_t due_ns, bool traced) {
    ++result_.acct.sent;
    if (inject_ == "drop") {  // lose the request without resolving it
      inject_.clear();
      return false;
    }
    tracer_.set_enabled(traced);
    const std::uint64_t trace = ++next_trace_;
    Pending p;
    p.clip = clip;
    p.due_ns = due_ns;
    p.traced = traced;
    p.span = tracer_.begin("client.request", trace, 0, due_ns);
    sim::VideoClip copy = in_.clips[clip];
    p.submit_ns = now_ns();
    if (p.submit_ns > due_ns) {
      result_.lag_ms.push_back(static_cast<double>(p.submit_ns - due_ns) *
                               1e-6);
    } else {
      result_.lag_ms.push_back(0.0);
    }
    const std::uint32_t submit_span =
        tracer_.begin("route.submit", trace, p.span, p.submit_ns);
    try {
      p.future = router_.submit(std::move(copy));
    } catch (const std::exception&) {
      tracer_.end(submit_span);
      tracer_.end(p.span);
      ++result_.acct.refused;
      return false;
    }
    tracer_.end(submit_span);
    pending_.push_back(std::move(p));
    return true;
  }

  /// Collect answers in submission order until `until` or until nothing is
  /// pending.
  void collect_until(Clock::time_point until) {
    while (!pending_.empty() &&
           pending_.front().future.wait_until(until) ==
               std::future_status::ready) {
      finish_front();
    }
  }

  /// Block for the oldest answer.
  void collect_one() {
    if (pending_.empty()) return;
    pending_.front().future.wait();
    finish_front();
  }

  void collect_all() {
    while (!pending_.empty()) collect_one();
  }

  std::size_t pending() const { return pending_.size(); }
  void start_clock() { start_ = Clock::now(); }
  PhaseResult take() {
    result_.elapsed_s = seconds_between(start_, last_answer_);
    return std::move(result_);
  }

 private:
  void finish_front() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    try {
      core::ExtractionResult r = p.future.get();
      const std::int64_t done = now_ns();
      last_answer_ = Clock::now();
      tracer_.end(p.span, done);
      if (!inject_.empty()) {
        corrupt(inject_, r);
        inject_.clear();
      }
      const core::ExtractionResult& want = in_.reference[p.clip];
      result_.slots_equal += agreeing_slots(r, want);
      result_.slots_total += sdl::kNumSlots;
      if (!same_answer(r, want)) {
        ++result_.acct.wrong;
        return;
      }
      ++result_.acct.succeeded;
      const double lat = static_cast<double>(done - p.due_ns) * 1e-6;
      result_.latency_ms.push_back(lat);
      result_.client_ms.push_back(static_cast<double>(done - p.submit_ns) *
                                  1e-6);
      result_.traced.push_back(p.traced);
      result_.done_s.push_back(seconds_between(start_, last_answer_));
      if (lat <= limit_ms_) ++result_.slo_met;
    } catch (const std::exception&) {
      tracer_.end(p.span);
      ++result_.acct.failed;
    }
  }

  serve::Router& router_;
  const Inputs& in_;
  Tracer& tracer_;
  const double limit_ms_;
  std::string inject_;
  std::deque<Pending> pending_;
  PhaseResult result_;
  std::uint64_t next_trace_ = 0;
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_answer_ = Clock::now();
};

/// True when the block holding `t` (seconds into a traced phase) is traced:
/// blocks alternate untraced, traced, untraced, ...
bool traced_block(bool trace_run, double t) {
  if (!trace_run) return false;
  return static_cast<std::int64_t>(t / kTraceBlockSeconds) % 2 == 1;
}

/// Open loop: `count` arrivals uniformly spread over `seconds` (a Poisson
/// process conditioned on its count, so the offered load is exactly the
/// rate), clips drawn uniformly from the pool.
PhaseResult open_loop(serve::Router& router, const Inputs& in,
                      Tracer& tracer, tsdx::tensor::Rng& rng, double seconds,
                      const std::string& phase, bool trace_run,
                      const std::string& inject) {
  const std::size_t count =
      static_cast<std::size_t>(kLightRatePerS * seconds + 0.5);
  std::vector<double> offsets(count);
  for (double& t : offsets) t = rng.uniform() * seconds;
  std::sort(offsets.begin(), offsets.end());
  std::vector<std::size_t> clips(count);
  for (std::size_t& c : clips) c = rng.uniform_index(kClipPool);

  Generator gen(router, in, tracer, kLightLimitMs, phase, inject);
  gen.start_clock();
  const std::int64_t start_ns = now_ns();
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t due_ns =
        start_ns + static_cast<std::int64_t>(offsets[i] * 1e9);
    const Clock::time_point due{std::chrono::nanoseconds(due_ns)};
    gen.collect_until(due);
    std::this_thread::sleep_until(due);
    gen.send(clips[i], due_ns, traced_block(trace_run, offsets[i]));
  }
  gen.collect_all();
  tracer.set_enabled(false);
  return gen.take();
}

/// Closed loop: keep kSaturatedOutstanding requests in flight for `seconds`.
PhaseResult closed_loop(serve::Router& router, const Inputs& in,
                        Tracer& tracer, tsdx::tensor::Rng& rng,
                        double seconds, const std::string& phase,
                        bool trace_run, const std::string& inject) {
  Generator gen(router, in, tracer, kSaturatedLimitMs, phase, inject);
  gen.start_clock();
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  for (auto now = start; now < end; now = Clock::now()) {
    while (gen.pending() < kSaturatedOutstanding &&
           gen.send(rng.uniform_index(kClipPool), now_ns(),
                    traced_block(trace_run, seconds_between(start, now)))) {
    }
    gen.collect_one();
  }
  gen.collect_all();
  tracer.set_enabled(false);
  return gen.take();
}

// ---- reading the layers' own counters -----------------------------------------

struct ServeCounters {
  std::uint64_t retries = 0, failovers = 0, shed = 0, deadline_expired = 0;
  double batch_sum = 0.0;
  std::uint64_t batches = 0;
};

ServeCounters read_counters(serve::Router& router) {
  const serve::RouterStats rs = router.stats();
  obs::Registry& reg = router.metrics_registry();
  const obs::Histogram& batch = reg.histogram("serve.batch_size");
  ServeCounters c;
  c.retries = rs.retries;
  c.failovers = rs.failovers;
  c.shed = rs.shed;
  c.deadline_expired = reg.counter("serve.deadline_expired").value();
  c.batch_sum = batch.sum();
  c.batches = batch.count();
  return c;
}

/// Server-hop flight records of the measured phase, from the recorder ring
/// (which keeps the most recent Recorder::kRingCapacity records).
struct Segments {
  std::vector<double> queue, batch_wait, execute, e2e;
};

Segments read_segments(std::int64_t since_rec_ns) {
  Segments s;
  for (const obs::Recorder::Record& r : obs::Recorder::global().snapshot()) {
    if (r.kind != obs::Recorder::Kind::kServer ||
        r.outcome != obs::Recorder::Outcome::kCompleted ||
        r.submit_ns < since_rec_ns || r.done_ns == 0 || r.execute_ns == 0 ||
        r.dispatch_ns == 0 || r.enqueue_ns == 0) {
      continue;
    }
    s.queue.push_back(static_cast<double>(r.dispatch_ns - r.enqueue_ns) * 1e-6);
    s.batch_wait.push_back(static_cast<double>(r.execute_ns - r.dispatch_ns) *
                           1e-6);
    s.execute.push_back(static_cast<double>(r.done_ns - r.execute_ns) * 1e-6);
    s.e2e.push_back(static_cast<double>(r.done_ns - r.submit_ns) * 1e-6);
  }
  return s;
}

std::vector<double> select(const std::vector<double>& v,
                           const std::vector<bool>& traced, bool want) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size() && i < traced.size(); ++i) {
    if (traced[i] == want) out.push_back(v[i]);
  }
  return out;
}

enum class Loop { kOpen, kClosed };

Report run_serve(const Options& opt, Tracer& tracer, Loop loop) {
  Report report;
  tsdx::tensor::Rng rng(stream_seed(opt.seed, 1));
  const Inputs in = make_inputs(opt.seed);
  const double limit_ms = loop == Loop::kOpen ? kLightLimitMs
                                              : kSaturatedLimitMs;

  // Set-up, repeated; the last fleet serves the run.
  Accounting setup_acct;
  setup_acct.phase = "setup";
  std::vector<double> setup_s;
  Fleet fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (fleet.router) {
      fleet.router->drain();
      fleet = Fleet{};
    }
    setup_s.push_back(timed_setup(fleet, in, setup_acct));
  }
  serve::Router& router = *fleet.router;
  report.phases.push_back(setup_acct);
  const core::ModelConfig model = model_config();
  report.config_json =
      "{\"loop\": \"" + std::string(loop == Loop::kOpen ? "open" : "closed") +
      "\", \"clip_pool\": " + std::to_string(kClipPool) +
      ", \"offered_rate_per_s\": " +
      (loop == Loop::kOpen ? fmt(kLightRatePerS) : std::string("null")) +
      ", \"outstanding\": " +
      (loop == Loop::kClosed ? std::to_string(kSaturatedOutstanding)
                             : std::string("null")) +
      ", \"latency_limit_ms\": " + fmt(limit_ms) +
      ", \"gen_lag_bound_ms\": " + fmt(kGenLagBoundMs) +
      ", \"setup_reps\": " + std::to_string(kSetupReps) +
      ", \"warmup_s\": " + fmt(kWarmupSeconds) +
      ", \"model\": {\"attention\": \"divided_st\", \"image\": " +
      std::to_string(model.image_size) +
      ", \"frames\": " + std::to_string(model.frames) +
      ", \"dim\": " + std::to_string(model.dim) +
      ", \"depth\": " + std::to_string(model.depth) +
      ", \"heads\": " + std::to_string(model.heads) +
      ", \"weights_seed\": " + std::to_string(kModelSeed) + "}, " +
      router_config_json(router.config()).substr(1);

  auto run_phase = [&](double seconds, const std::string& phase,
                       bool trace_run, const std::string& inject) {
    return loop == Loop::kOpen
               ? open_loop(router, in, tracer, rng, seconds, phase,
                           trace_run, inject)
               : closed_loop(router, in, tracer, rng, seconds, phase,
                             trace_run, inject);
  };

  // Warm-up: a burst that forms every batch size, then the workload itself.
  {
    Generator burst(router, in, tracer, limit_ms, "warmup-burst", "");
    for (std::size_t i = 0; i < kSaturatedOutstanding; ++i) {
      burst.send(i % kClipPool, now_ns(), false);
    }
    burst.collect_all();
    report.phases.push_back(burst.take().acct);
  }
  report.phases.push_back(
      run_phase(kWarmupSeconds, "warmup", false, "").acct);

  const ServeCounters before = read_counters(router);
  const std::int64_t rec_start = obs::Recorder::global().now_ns();
  // A traced run measures twice as long, alternating untraced and traced
  // blocks, so trace.overhead compares like with like.
  const double measured_s = opt.trace ? 2.0 * opt.seconds : opt.seconds;
  PhaseResult m = run_phase(measured_s, "measured", opt.trace, opt.inject);
  const ServeCounters after = read_counters(router);
  const Segments seg = read_segments(rec_start);
  router.drain();
  report.phases.push_back(m.acct);

  const double p99_lag = percentile(m.lag_ms, 99.0);
  if (loop == Loop::kOpen && p99_lag > kGenLagBoundMs) {
    report.valid = false;
    report.invalid_reason = "open-loop generator p99 lateness " +
                            fmt(p99_lag) + " ms exceeds the " +
                            fmt(kGenLagBoundMs) + " ms bound";
  }

  // The open loop's throughput is pinned to its offered rate, so it is
  // counted over the whole run; everything else is a median over blocks.
  const std::size_t n = m.latency_ms.size();
  const std::size_t block =
      loop == Loop::kOpen ? kLightBlock : kSaturatedBlock;
  const Blocked blk = blocked(m.done_s, m.latency_ms, block);
  const double throughput =
      loop == Loop::kClosed ? blk.rate_per_s
      : m.elapsed_s > 0
          ? static_cast<double>(m.acct.succeeded) / m.elapsed_s
          : 0.0;
  const double agreement =
      m.slots_total ? static_cast<double>(m.slots_equal) /
                          static_cast<double>(m.slots_total)
                    : 0.0;
  const double error_rate =
      m.acct.sent ? static_cast<double>(m.acct.bad()) /
                        static_cast<double>(m.acct.sent)
                  : 1.0;
  report.note("clips_per_s", fmt(throughput));
  report.note("error_rate", fmt(error_rate));
  report.note("slot_agreement", fmt(agreement));
  report.note("latency_samples", std::to_string(m.latency_ms.size()));
  report.note("gen.lag_ms.p99", fmt(p99_lag));
  report.note("setup_s.reps", std::to_string(setup_s.size()));
  report.note("peak_rss_mb", fmt(peak_rss_mb()));

  report.note("blocks", std::to_string(blk.blocks) + " x " +
                            std::to_string(block) + " answers");

  if (!opt.trace) {
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("throughput_per_s", throughput, "1/s");
    report.set("latency_p50_ms", blk.p50, "ms", n);
    report.set("latency_p99_ms", blk.p99, "ms", n);
    if (blk.blocks == 0) {
      report.valid = false;
      report.invalid_reason = "fewer than 1000 latency samples for a p99";
    }
    report.set("slo_attainment",
               m.acct.sent ? static_cast<double>(m.slo_met) /
                                 static_cast<double>(m.acct.sent)
                           : 0.0,
               "ratio");
    report.set("reference_agreement", agreement, "ratio");
    return report;
  }

  // ---- per-layer metrics of the traced run ----
  const std::vector<double> traced_lat = select(m.latency_ms, m.traced, true);
  const std::vector<double> plain_lat = select(m.latency_ms, m.traced, false);
  const std::vector<double> traced_client =
      select(m.client_ms, m.traced, true);
  // Submit times are kept per issued request; traced ones are the spans.
  std::vector<double> submit_traced;
  for (const Span& s : tracer.spans()) {
    if (std::strcmp(s.name, "route.submit") == 0) {
      submit_traced.push_back(static_cast<double>(s.end_ns - s.start_ns) *
                              1e-3);
    }
  }
  report.set("route.submit_us.p50", percentile(submit_traced, 50.0), "us",
             submit_traced.size());
  report.set("route.submit_us.p99", percentile(submit_traced, 99.0), "us",
             submit_traced.size());
  report.set("obs.segment_ms.batch_wait.p50", percentile(seg.batch_wait, 50),
             "ms", seg.batch_wait.size());
  report.set("obs.segment_ms.queue.p99", percentile(seg.queue, 99), "ms",
             seg.queue.size());
  report.set("obs.segment_ms.execute.p50", percentile(seg.execute, 50), "ms",
             seg.execute.size());
  const std::uint64_t batches = after.batches - before.batches;
  report.set("serve.batch_size.mean",
             batches ? (after.batch_sum - before.batch_sum) /
                           static_cast<double>(batches)
                     : 0.0,
             "count", batches);
  report.set("serve.client_minus_recorder_ms.p50",
             percentile(traced_client, 50) - percentile(seg.e2e, 50), "ms",
             std::min(traced_client.size(), seg.e2e.size()));
  report.set("route.retries",
             static_cast<double>(after.retries - before.retries), "count");
  report.set("route.failovers",
             static_cast<double>(after.failovers - before.failovers), "count");
  report.set("route.shed", static_cast<double>(after.shed - before.shed),
             "count");
  report.set("serve.deadline_expired",
             static_cast<double>(after.deadline_expired -
                                 before.deadline_expired),
             "count");
  report.set("gen.lag_ms.p99", loop == Loop::kOpen ? p99_lag : 0.0, "ms",
             loop == Loop::kOpen ? m.lag_ms.size() : 0);
  const double plain_p50 = percentile(plain_lat, 50);
  report.set("trace.overhead",
             plain_p50 > 0 ? percentile(traced_lat, 50) / plain_p50 : 0.0,
             "ratio", traced_lat.size());
  fleet = Fleet{};
  run_model_layer_probes(report, tracer);
  return report;
}

}  // namespace

Report run_serve_light(const Options& opt, Tracer& tracer) {
  return run_serve(opt, tracer, Loop::kOpen);
}

Report run_serve_saturated(const Options& opt, Tracer& tracer) {
  return run_serve(opt, tracer, Loop::kClosed);
}

}  // namespace perfbench
