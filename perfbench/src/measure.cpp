#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {
namespace {

/// Marks the first outer iteration: the end of parse + lower +
/// preassembly as the solver sees it.
class FirstOuter : public unsnap::core::IterationObserver {
 public:
  void on_outer_begin(int) override {
    if (at == Clock::time_point{}) at = Clock::now();
  }
  Clock::time_point at{};
};

const unsnap::obs::PhaseSummary* phase(const unsnap::obs::TraceSummary& s,
                                       const std::string& name) {
  for (const unsnap::obs::PhaseSummary& p : s.phases)
    if (p.name == name) return &p;
  return nullptr;
}

double total(const unsnap::obs::TraceSummary& s, const std::string& name) {
  const unsnap::obs::PhaseSummary* p = phase(s, name);
  return p != nullptr ? p->total_seconds : 0.0;
}

double sweep_visits(const unsnap::api::RunRecord& r) {
  const double per_group =
      static_cast<double>(r.config.elements) * r.config.directions;
  if (r.keff) {
    double visits = 0.0;
    for (std::size_t s = 0; s < r.keff->groupsets.size(); ++s)
      visits += static_cast<double>(r.keff->groupset_sweeps[s]) *
                (r.keff->groupsets[s][1] - r.keff->groupsets[s][0] + 1) *
                per_group;
    return visits;
  }
  return r.iteration ? r.iteration->sweeps * per_group * r.config.ng : 0.0;
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  throw std::runtime_error("no VmHWM for pid " + std::to_string(pid));
}

Phases& Phases::operator+=(const Phases& o) {
  parse_s += o.parse_s;
  lower_s += o.lower_s;
  preassembly_s += o.preassembly_s;
  solve_s += o.solve_s;
  sweep_s += o.sweep_s;
  source_s += o.source_s;
  apply_s += o.apply_s;
  record_s += o.record_s;
  sweep_count += o.sweep_count;
  sweep_p50_s += o.sweep_p50_s;
  preassembly_mb += o.preassembly_mb;
  record_kb += o.record_kb;
  visits += o.visits;
  return *this;
}

SolveOutcome solve_deck(const std::string& deck_text,
                        const std::string& json_path) {
  unsnap::obs::Tracer& tracer = unsnap::obs::Tracer::instance();
  tracer.clear();
  SolveOutcome out;
  const Clock::time_point t0 = Clock::now();
  unsnap::api::RunConfig config =
      unsnap::api::read_deck_text(deck_text, "perfbench.inp");
  const Clock::time_point t_parsed = Clock::now();
  FirstOuter first;
  unsnap::api::Run run(std::move(config));
  run.set_observer(&first);
  out.record = run.execute();
  const Clock::time_point t_record = Clock::now();
  const std::string json = unsnap::api::to_json(out.record);
  {
    std::ofstream file(json_path, std::ios::trunc);
    file << json << "\n";
    if (!file) throw std::runtime_error("cannot write " + json_path);
  }
  const Clock::time_point t_written = Clock::now();

  out.wall_s = seconds_between(t0, t_written);
  out.latency_s = seconds_between(t0, t_record);
  out.setup_s = seconds_between(t0, first.at);
  Phases& p = out.phases;
  p.parse_s = seconds_between(t0, t_parsed);
  p.record_s = seconds_between(t_record, t_written);
  p.record_kb = static_cast<double>(json.size()) / 1024.0;
  p.preassembly_mb =
      static_cast<double>(out.record.config.preassembly_bytes) / 1e6;
  p.visits = sweep_visits(out.record);
  if (out.record.observability) {
    const unsnap::obs::TraceSummary& s = *out.record.observability;
    p.lower_s = total(s, "run.lower");
    p.preassembly_s = total(s, "run.preassembly");
    p.solve_s = total(s, "run.solve");
    p.sweep_s = total(s, "solver.sweep");
    p.source_s = total(s, "source.outer") + total(s, "source.inner");
    p.apply_s = total(s, "gmres.apply");
    if (const unsnap::obs::PhaseSummary* sw = phase(s, "solver.sweep")) {
      p.sweep_count = sw->count;
      p.sweep_p50_s = sw->p50_seconds;
    }
  }
  return out;
}

}  // namespace perfbench
