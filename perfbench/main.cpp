// main.cpp — the benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--spec PATH] [--spans PATH]
//
// Prints the workload-shape record and every metric by name and unit,
// then, as its last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The workload runs on up to 4 threads, never more than the host has.
// Exits 1 when the run cannot complete (no result line is printed then).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "util/args.h"
#include "util/error.h"

namespace {

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const cl::Args args = cl::Args::parse(argc, argv);
    perfbench::RunConfig config;
    config.workload = args.get_or("workload", "");
    config.params.seed =
        static_cast<std::uint64_t>(args.get_int("seed", 1));
    config.seconds = args.get_double("seconds", 10);
    config.trace = args.get_int("trace", 0) != 0;
    config.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    config.params.work_dir =
        args.get_or("work-dir", ".bench_build/perfbench-work");
    config.params.spec_path =
        args.get_or("spec", "perfbench/spec_matrix.json");
    config.spans_path = args.get_or("spans", "");
    if (!args.unused().empty()) {
      throw cl::ParseError("unknown flag --" + args.unused().front());
    }
    if (config.seconds <= 0) {
      throw cl::ParseError("--seconds must be positive");
    }
    std::filesystem::create_directories(config.params.work_dir);

    const perfbench::RunReport report = perfbench::run_benchmark(config);
    for (const std::string& line : report.lines) std::cout << line << "\n";
    std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      const perfbench::Metric& metric = report.metrics[i];
      std::cout << (i ? ", " : "") << "\"" << metric.name
                << "\": {\"value\": " << json_number(metric.value)
                << ", \"unit\": \"" << metric.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
