// Ablation for §IV-A-3 of the paper: threading over angles within the
// octant forces the scalar-flux reduction to be atomic, and the paper
// reports that runtime *increases* with thread count. This bench pits the
// angle-threaded atomic scheme against the default elements-groups scheme
// (all directions concurrent, phi reduced afterwards in a fixed order, no
// atomics) on the same problem.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_atomic_angles",
          "abl. §IV-A-3: angle threading with atomic scalar flux update");
  cli.option("nx", "8", "elements per dimension");
  cli.option("nang", "12", "angles per octant (the parallelism available)");
  cli.option("ng", "16", "energy groups");
  cli.option("inners", "3", "inner iterations");
  cli.option("threads", "", "comma-separated thread counts");
  cli.option("csv", "", "also write results to this CSV file");
  if (!cli.parse(argc, argv)) return 0;

  snap::Input input;
  const int nx = cli.get_int("nx");
  input.dims = {nx, nx, nx};
  input.nang = cli.get_int("nang");
  input.ng = cli.get_int("ng");
  input.order = 1;
  input.twist = 0.001;
  input.shuffle_seed = 1;
  input.iitm = cli.get_int("inners");
  input.oitm = 1;
  input.fixed_iterations = true;

  const std::vector<int> threads = cli.get("threads").empty()
                                       ? default_thread_list()
                                       : parse_thread_list(cli.get("threads"));

  print_problem(input, "Atomic angle-threading ablation");
  const auto disc = std::make_shared<const core::Discretization>(input);

  Table table({"threads", "angles-atomic (s)", "elements+groups (s)"});
  for (const int t : threads) {
    snap::Input atomic = input;
    atomic.num_threads = t;
    atomic.scheme = snap::ConcurrencyScheme::AnglesAtomic;
    snap::Input best = input;
    best.num_threads = t;
    best.scheme = snap::ConcurrencyScheme::ElementsGroups;
    const double t_atomic = run_assemble_solve(disc, atomic);
    const double t_best = run_assemble_solve(disc, best);
    std::printf("  threads=%-3d atomic %.3f s, elements+groups %.3f s\n", t,
                t_atomic, t_best);
    std::fflush(stdout);
    table.add_row({static_cast<long>(t), t_atomic, t_best});
  }
  table.print("Angle threading (atomic phi) vs elements-groups");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape (paper §IV-A-3): the atomic scheme does not scale —\n"
      "runtime flat or increasing with threads — while elements-groups,\n"
      "which defers the sum to a fixed-order reduction, keeps improving.\n");
  return 0;
}
