#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // records, library, socket and daemon log
  int nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: operations attempted and failed, every check
/// that did not pass, and the metrics of the run's mode.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed check (`error` empty = passed).
  void check(const std::string& error, const std::string& where) {
    if (!error.empty()) errors.push_back(where + ": " + error);
  }
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fixed-source", "preassembled-high-order", "keff", "serve-mix"};
  return names;
}

[[nodiscard]] Result run_workload(const Options& options);

}  // namespace perfbench
