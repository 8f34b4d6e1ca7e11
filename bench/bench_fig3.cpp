// Reproduces Figure 3 of the paper: assemble/solve wall time of the sweep
// against thread count for the six loop-order/threading schemes, with
// LINEAR finite elements. Default problem is scaled to fit a laptop-class
// node; pass --paper for the paper's 16^3 / 36 angles / 64 groups setup
// (needs ~5 GB and substantially more time).

#include <cstdio>
#include <memory>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace unsnap;
  using namespace unsnap::bench;

  Cli cli("bench_fig3",
          "Figure 3: thread scaling of the sweep schemes, linear elements");
  cli.option("nx", "12", "elements per dimension");
  cli.option("nang", "8", "angles per octant");
  cli.option("ng", "16", "energy groups");
  cli.option("inners", "5", "inner iterations");
  cli.option("threads", "", "comma-separated thread counts (default: 1,2,4,...)");
  cli.option("csv", "", "also write results to this CSV file");
  cli.flag("paper", "run the paper-size problem (16^3, 36 angles, 64 groups)");
  if (!cli.parse(argc, argv)) return 0;

  snap::Input input;
  const bool paper = cli.get_flag("paper");
  const int nx = paper ? 16 : cli.get_int("nx");
  input.dims = {nx, nx, nx};
  input.nang = paper ? 36 : cli.get_int("nang");
  input.ng = paper ? 64 : cli.get_int("ng");
  input.order = 1;
  input.twist = 0.001;
  input.shuffle_seed = 1;
  input.mat_opt = 1;
  input.src_opt = 1;
  input.iitm = cli.get_int("inners");
  input.oitm = 1;
  input.fixed_iterations = true;

  const std::vector<int> threads = cli.get("threads").empty()
                                       ? default_thread_list()
                                       : parse_thread_list(cli.get("threads"));

  print_problem(input, "Figure 3: parallel sweep schemes, linear elements");
  const auto disc = std::make_shared<const core::Discretization>(input);
  std::printf("  schedules: %d unique across %d directions\n",
              disc->schedules().unique_count(),
              angular::kOctants * input.nang);

  std::vector<std::string> columns{"threads"};
  for (const auto& scheme : figure_schemes()) columns.push_back(scheme.label);
  Table table(columns);

  for (const int t : threads) {
    std::vector<Table::Cell> row{static_cast<long>(t)};
    for (const auto& scheme : figure_schemes()) {
      snap::Input config = input;
      config.num_threads = t;
      config.layout = scheme.layout;
      config.scheme = scheme.scheme;
      const double seconds = run_assemble_solve(disc, config);
      std::printf("  threads=%-3d %-26s %.3f s\n", t, scheme.label, seconds);
      std::fflush(stdout);
      row.push_back(seconds);
    }
    table.add_row(std::move(row));
  }
  table.print("Figure 3: assemble/solve time (s) vs threads");
  if (!cli.get("csv").empty()) table.write_csv(cli.get("csv"));

  std::printf(
      "\nExpected shape (paper Fig. 3): the paper's collapsed\n"
      "angle/[element]/[group] was fastest at full thread count; here the\n"
      "direction-threaded [angle]/element/group arm stands in for it.\n"
      "angle/group/element layouts slower, especially element-threaded at\n"
      "high thread counts.\n");
  return 0;
}
