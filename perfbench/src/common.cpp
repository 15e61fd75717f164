#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "sdl/description.hpp"
#include "tensor/kernels/parallel_for.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

tsdx::core::ModelConfig model_config() {
  tsdx::core::ModelConfig cfg;
  cfg.frames = 8;
  cfg.image_size = 32;
  cfg.patch_size = 8;
  cfg.tubelet_frames = 1;
  cfg.dim = 48;
  cfg.depth = 4;
  cfg.heads = 4;
  cfg.mlp_ratio = 2;
  cfg.attention = tsdx::core::AttentionKind::kDividedST;
  return cfg;
}

tsdx::sim::RenderConfig render_config() {
  tsdx::sim::RenderConfig cfg;
  cfg.height = cfg.width = 32;
  cfg.frames = 8;
  return cfg;
}

bool same_answer(const tsdx::core::ExtractionResult& got,
                 const tsdx::core::ExtractionResult& want) {
  return tsdx::sdl::to_slot_labels(got.description) ==
             tsdx::sdl::to_slot_labels(want.description) &&
         std::memcmp(got.confidence.data(), want.confidence.data(),
                     sizeof(float) * got.confidence.size()) == 0 &&
         got.warnings == want.warnings;
}

void flip_low_bit(float& x) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&x, &bits, sizeof(bits));
}

// ---- tracer ------------------------------------------------------------------

std::uint32_t Tracer::begin(const char* name, std::uint64_t trace,
                            std::uint32_t parent, std::int64_t start) {
  if (!enabled_) return 0;
  Span s;
  s.name = name;
  s.trace = trace;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.start_ns = start != 0 ? start : now_ns();
  spans_.push_back(s);
  return s.id;
}

void Tracer::end(std::uint32_t id, std::int64_t end) {
  if (id == 0) return;
  spans_[id - 1].end_ns = end != 0 ? end : now_ns();
}

std::map<std::string, std::pair<double, std::size_t>> Tracer::self_time_ms()
    const {
  // Children of each span, as [start, end) intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size() + 1);
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const Span& s : spans_) {
    auto& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, cursor);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    auto& slot = out[s.name];
    slot.first += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
    slot.second += 1;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"trace\": " << s.trace << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << "}";
  }
  f << "],\n\"self_time_ms\": {";
  bool first = true;
  for (const auto& [name, v] : self_time_ms()) {
    f << (first ? "\n" : ",\n") << "\"" << name << "\": {\"ms\": "
      << fmt(v.first, 6) << ", \"spans\": " << v.second << "}";
    first = false;
  }
  f << "}}\n";
  return static_cast<bool>(f);
}

// ---- statistics ----------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Blocked blocked(const std::vector<double>& t_s,
                const std::vector<double>& values, std::size_t block) {
  Blocked out;
  std::vector<double> rates, p50s, p99s;
  double prev_end = 0.0;
  const std::size_t n = std::min(t_s.size(), values.size());
  for (std::size_t b = 0; block > 0 && (b + 1) * block <= n; ++b) {
    const std::vector<double> v(values.begin() + b * block,
                                values.begin() + (b + 1) * block);
    const double end = t_s[(b + 1) * block - 1];
    if (end > prev_end) {
      rates.push_back(static_cast<double>(block) / (end - prev_end));
    }
    prev_end = end;
    p50s.push_back(percentile(v, 50.0));
    p99s.push_back(percentile(v, 99.0));
  }
  out.blocks = p50s.size();
  out.rate_per_s = median(rates);
  out.p50 = median(p50s);
  out.p99 = median(p99s);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  if (cpu != "cpu") return {0.0, 0.0};
  double total = 0.0, steal = 0.0, v = 0.0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already counted in user and nice.
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision + 6, v);
  return buf;
}

// ---- host stamp ------------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string host_stamp_json(const Options& opt) {
  std::string cpu_model = "unknown";
  std::set<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && cpu_model == "unknown") cpu_model = value;
    if (key == "flags" && flags.empty()) {
      std::istringstream words(value);
      std::string w;
      while (words >> w) flags.insert(w);
    }
  }
  // The ISA extensions the kernels or a later precision tier could use.
  static const char* kIsa[] = {"sse4_2",      "avx",         "avx2",
                               "fma",         "f16c",        "avx512f",
                               "avx512bw",    "avx512vl",    "avx512_vnni",
                               "avx512_bf16", "avx512_fp16", "avx_vnni",
                               "amx_tile",    "amx_bf16",    "amx_int8"};
  std::string isa;
  for (const char* f : kIsa) {
    if (flags.count(f)) isa += std::string(isa.empty() ? "" : " ") + f;
  }
  std::ostringstream o;
  o << "{\"cpu_model\": \"" << json_escape(cpu_model) << "\", \"isa\": \""
    << isa << "\", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"online_cpus\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
    << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
    << "\", \"source\": \"" << json_escape(opt.source_id)
    << "\", \"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
    << ", \"seconds\": " << opt.seconds
    << ", \"trace\": " << (opt.trace ? "true" : "false")
    << ", \"tsdx_num_threads_env\": "
    << (tsdx::par::env_override() ? "true" : "false") << "}";
  return o.str();
}

}  // namespace perfbench
