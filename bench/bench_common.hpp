#pragma once

// Shared plumbing for the UnSNAP benchmark harness binaries.

#include <omp.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/transport_solver.hpp"
#include "snap/input.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace unsnap::bench {

/// Parse "1,2,4,8" into integers, clipping to the available hardware.
inline std::vector<int> parse_thread_list(const std::string& spec) {
  std::vector<int> threads;
  std::stringstream ss(spec);
  std::string item;
  const int max_threads = omp_get_num_procs();
  while (std::getline(ss, item, ',')) {
    const int t = std::stoi(item);
    if (t >= 1 && t <= max_threads) threads.push_back(t);
  }
  require(!threads.empty(), "no usable thread counts in list: " + spec);
  return threads;
}

/// Default thread axis: powers of two up to the core count, plus the core
/// count itself (the paper uses 1,2,4,8,14,28,56 on its 56-core node).
inline std::vector<int> default_thread_list() {
  std::vector<int> threads;
  const int max_threads = omp_get_num_procs();
  for (int t = 1; t < max_threads; t *= 2) threads.push_back(t);
  threads.push_back(max_threads);
  return threads;
}

/// The six loop-order/threading schemes of Figures 3 and 4: {data layout}
/// x {which loops are threaded}. Labels follow the paper's legend with the
/// threaded loops marked in brackets. elements-groups threads whole
/// directions where the paper collapsed the element and group loops.
struct FigureScheme {
  const char* label;
  snap::FluxLayout layout;
  snap::ConcurrencyScheme scheme;
};

inline const std::vector<FigureScheme>& figure_schemes() {
  static const std::vector<FigureScheme> schemes = {
      {"angle/[element]/group", snap::FluxLayout::AngleElementGroup,
       snap::ConcurrencyScheme::Elements},
      {"[angle]/element/group", snap::FluxLayout::AngleElementGroup,
       snap::ConcurrencyScheme::ElementsGroups},
      {"angle/element/[group]", snap::FluxLayout::AngleElementGroup,
       snap::ConcurrencyScheme::Groups},
      {"angle/group/[element]", snap::FluxLayout::AngleGroupElement,
       snap::ConcurrencyScheme::Elements},
      {"[angle]/group/element", snap::FluxLayout::AngleGroupElement,
       snap::ConcurrencyScheme::ElementsGroups},
      {"angle/[group]/element", snap::FluxLayout::AngleGroupElement,
       snap::ConcurrencyScheme::Groups},
  };
  return schemes;
}

/// Run the configured problem and return the accumulated assemble/solve
/// wall time over all sweeps.
inline double run_assemble_solve(
    std::shared_ptr<const core::Discretization> disc,
    const snap::Input& input) {
  core::TransportSolver solver(std::move(disc), input);
  const core::IterationResult result = solver.run();
  return result.assemble_solve_seconds;
}

inline void print_problem(const snap::Input& input, const char* title) {
  std::printf(
      "%s\n  mesh %dx%dx%d, order %d, %d angles/octant, %d groups, "
      "twist %.4g rad, %d inners x %d outers, solver %s\n",
      title, input.dims[0], input.dims[1], input.dims[2], input.order,
      input.nang, input.ng, input.twist, input.iitm, input.oitm,
      linalg::to_string(input.solver).c_str());
  std::fflush(stdout);
}

}  // namespace unsnap::bench
