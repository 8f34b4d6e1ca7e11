// UnSNAP benchmark entry point: one workload per run, printing one JSON result
// line last on stdout. See README.md for the workloads and metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i], value = argv[i + 1];
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = std::stoi(value) != 0;
      else if (key == "--work-dir") options.work_dir = value;
      else return usage(("unknown option " + key).c_str());
    }
  } catch (const std::exception&) {
    return usage("bad option value");
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end())
    return usage("unknown workload");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);

  perfbench::Result result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 1;
  }
  for (const std::string& err : result.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", err.c_str());

  std::string line = "{\"correct\": ";
  line += result.errors.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
