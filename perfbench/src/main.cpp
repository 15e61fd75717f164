// perfbench — the repository benchmark's driver binary.
//
//   perfbench --workload <serve_light|serve_saturated|search_ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--inject flip_bit|wrong_label|drop] [--out-dir DIR]
//             [--source-id ID]
//
// Prints a human-readable report (host stamp, configuration, per-phase
// request accounting, metrics with sample counts), then, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they are the
// per-layer set of the traced run, and the spans are written to
// <out-dir>/<workload>-seed<n>-spans.json. Exits 1 when any output check
// failed or the run is invalid, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--inject flip_bit|wrong_label|drop] [--out-dir DIR] "
               "[--source-id ID]\n",
               argv0);
  return 2;
}

std::string accounting_json(const Accounting& a) {
  return "{\"phase\": \"" + a.phase + "\", \"sent\": " +
         std::to_string(a.sent) + ", \"succeeded\": " +
         std::to_string(a.succeeded) + ", \"failed\": " +
         std::to_string(a.failed) + ", \"refused\": " +
         std::to_string(a.refused) + ", \"wrong\": " +
         std::to_string(a.wrong) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
      have_seconds = opt.seconds > 0;
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
      have_trace = opt.trace || std::strcmp(value, "0") == 0;
    } else if (key == "--inject") {
      opt.inject = value;
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else if (key == "--source-id") {
      opt.source_id = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return usage(argv[0]);
  }
  if (!opt.inject.empty() && opt.inject != "flip_bit" &&
      opt.inject != "wrong_label" && opt.inject != "drop") {
    return usage(argv[0]);
  }

  Tracer tracer;
  Report report;
  const auto steal0 = cpu_steal_jiffies();
  try {
    if (opt.workload == "serve_light") {
      report = run_serve_light(opt, tracer);
    } else if (opt.workload == "serve_saturated") {
      report = run_serve_saturated(opt, tracer);
    } else if (opt.workload == "search_ingest") {
      report = run_search_ingest(opt, tracer);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const auto steal1 = cpu_steal_jiffies();
  const double jiffies = steal1.second - steal0.second;
  report.note("cpu_steal_share",
              fmt(jiffies > 0 ? (steal1.first - steal0.first) / jiffies : 0.0));

  // ---- human-readable report ----
  std::printf("host: %s\n", host_stamp_json(opt).c_str());
  std::printf("config: %s\n", report.config_json.c_str());
  bool correct = report.valid;
  const Accounting* measured = nullptr;
  for (const Accounting& a : report.phases) {
    std::printf("accounting: %s\n", accounting_json(a).c_str());
    if (!a.balanced()) {
      std::fprintf(stderr,
                   "perfbench: phase %s lost requests: sent %llu, resolved "
                   "%llu\n",
                   a.phase.c_str(), static_cast<unsigned long long>(a.sent),
                   static_cast<unsigned long long>(a.succeeded + a.bad()));
    }
    if (a.bad() != 0) {
      std::fprintf(stderr, "perfbench: phase %s had %llu failed operations\n",
                   a.phase.c_str(), static_cast<unsigned long long>(a.bad()));
    }
    correct = correct && a.balanced() && a.bad() == 0;
    if (a.phase == "measured") measured = &a;
  }
  if (measured == nullptr) correct = false;
  if (!report.valid) {
    std::fprintf(stderr, "perfbench: run invalid, not scored: %s\n",
                 report.invalid_reason.c_str());
  }
  for (const auto& [key, value] : report.notes) {
    std::printf("note: %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("metric: %-40s %16s %-8s samples=%zu\n", name.c_str(),
                fmt(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  if (opt.trace) {
    for (const auto& [name, v] : tracer.self_time_ms()) {
      std::printf("self_time: %-24s %14s ms over %zu spans\n", name.c_str(),
                  fmt(v.first).c_str(), v.second);
    }
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + "-spans.json";
      if (tracer.write_json(path)) {
        std::printf("spans: %s (%zu spans)\n", path.c_str(),
                    tracer.spans().size());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }

  // ---- contract line ----
  const std::uint64_t attempted = measured ? measured->sent : 0;
  std::uint64_t failed = 0;
  if (measured != nullptr) {
    const std::uint64_t resolved = measured->succeeded + measured->bad();
    failed = measured->bad() +
             (measured->sent > resolved ? measured->sent - resolved : 0);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted < 1 ? 1 : attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
