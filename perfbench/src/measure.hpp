#pragma once

// Timing, statistics and the one measured operation of the solve
// workloads: deck text -> api::read_deck_text -> api::Run (with an
// IterationObserver marking the first outer) -> api::to_json -> file.

#include <chrono>
#include <string>
#include <sys/types.h>
#include <vector>

#include "api/run.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a,
                                     Clock::time_point b);

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Peak resident set (VmHWM) of a process (0 = this one), in MB.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// Per-solve wall time by layer. The benchmark times parse and record
/// from its own calls; the rest comes from the program's spans
/// (run.lower, run.preassembly, run.solve, solver.sweep, source.*,
/// gmres.apply) when the tracer is on, and stays zero otherwise.
struct Phases {
  double parse_s = 0.0;
  double lower_s = 0.0;
  double preassembly_s = 0.0;
  double solve_s = 0.0;
  double sweep_s = 0.0;
  double source_s = 0.0;
  double apply_s = 0.0;
  double record_s = 0.0;
  long sweep_count = 0;
  double sweep_p50_s = 0.0;
  double preassembly_mb = 0.0;
  double record_kb = 0.0;
  /// element x direction x group visits over all sweeps (grind basis).
  double visits = 0.0;

  Phases& operator+=(const Phases& o);
};

struct SolveOutcome {
  unsnap::api::RunRecord record;
  double wall_s = 0.0;     // deck text in -> RunRecord JSON written
  double latency_s = 0.0;  // deck text in -> RunRecord returned
  double setup_s = 0.0;    // deck text in -> first on_outer_begin
  Phases phases;
};

/// One in-process solve of `deck_text`; the record JSON goes to
/// `json_path`. Throws what the program throws.
[[nodiscard]] SolveOutcome solve_deck(const std::string& deck_text,
                                      const std::string& json_path);

}  // namespace perfbench
