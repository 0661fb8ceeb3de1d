// perfbench: the repository benchmark program.
//
//   perfbench --workload <classify_mt|session_rank|cold_boot> --seed N
//             --seconds S --trace <0|1> --work-dir DIR [--corrupt-reference]
//
// Prints a human-readable report, a stamp line describing the build and
// machine, and, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the spans are written to DIR/spans.json.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "probes.h"
#include "ondevice/kernels.h"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <classify_mt|session_rank|"
               "cold_boot> --seed N --seconds S --trace <0|1> --work-dir DIR "
               "[--corrupt-reference]\n";
  return 2;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || options.work_dir.empty() || !have_seconds ||
      !(options.seconds > 0.0)) {
    return usage();
  }

  try {
    perfbench::fresh_dir(options.work_dir);
    perfbench::Tracer tracer(options.trace);
    perfbench::Outcome out;
    if (options.workload == "classify_mt") {
      out = perfbench::run_classify_mt(options, tracer);
    } else if (options.workload == "session_rank") {
      out = perfbench::run_session_rank(options, tracer);
    } else if (options.workload == "cold_boot") {
      out = perfbench::run_cold_boot(options, tracer);
    } else {
      return usage();
    }
    // Model files are rewritten by every run; only the result and the
    // spans are kept.
    std::filesystem::remove_all(options.work_dir + "/models");
    out.correct = out.correct && out.failed == 0 && out.attempted > 0;
    for (const perfbench::Metric& m : out.metrics) {
      if (!std::isfinite(m.value)) {
        std::cerr << "perfbench: metric " << m.name << " is not finite\n";
        return 1;
      }
    }

    const std::string stamp =
        perfbench::result_stamp(options, memcom::select_kernels().name);
    std::cout << "stamp " << stamp << "\n";
    std::cout << "error_rate "
              << json_number(static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted))
              << " (" << out.failed << " of " << out.attempted << ")\n";
    if (tracer.enabled()) {
      const std::string spans = options.work_dir + "/spans.json";
      tracer.write(spans, 50000);
      std::cout << "spans: " << tracer.size() << " recorded, written to "
                << spans << "\n";
      for (const auto& [name, ms] : tracer.self_ms_by_name()) {
        std::cout << "self_ms " << name << " " << json_number(ms) << "\n";
      }
    }

    std::string json = "{\"correct\": ";
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const perfbench::Metric& m = out.metrics[i];
      json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " +
              json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::ofstream(options.work_dir + "/result.json")
        << "{\"stamp\": " << stamp << ", \"result\": " << json << "}\n";
    std::cout << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
