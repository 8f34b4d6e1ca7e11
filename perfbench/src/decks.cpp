#include "decks.hpp"

#include <cstdio>

namespace perfbench {

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // A shuffle seed of 0 keeps structured numbering; stay off it.
  return (z >> 1) | 1;
}

std::string render(const DeckSpec& s) {
  char buf[2048];
  std::string materials = s.materials;
  if (materials.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "ng = %d\nmat_opt = %d\nscattering_ratio = %.17g\n", s.ng,
                  s.mode == "mms" ? 0 : 1, s.c);
    materials = buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "[run]\ntitle = %s\nmode = %s\n\n"
      "[mesh]\ndims = %d %d %d\nextent = %.17g %.17g %.17g\n"
      "twist = %.17g\nshuffle_seed = %llu\norder = %d\n\n"
      "[angular]\nnang = %d\nquadrature = snap\n\n",
      s.title.c_str(), s.mode.c_str(), s.dims, s.dims, s.dims, s.extent,
      s.extent, s.extent, s.twist,
      static_cast<unsigned long long>(s.shuffle), s.order, s.nang);
  std::string text = buf;
  text += "[materials]\n" + materials + "\n";
  if (!s.xs.empty()) text += "[xs]\n" + s.xs + "\n";
  std::snprintf(
      buf, sizeof(buf),
      "[source]\nsrc_opt = %d\n\n[boundary]\nall = %s\n\n"
      "[iteration]\nepsi = %.17g\niitm = %d\noitm = %d\n"
      "fixed_iterations = %s\nscheme = %s\n\n"
      "[execution]\nthreads = %d\npreassembly = %s\n\n"
      "[output]\nreport = false\n",
      s.src_opt, s.boundary.c_str(), s.epsi, s.iitm, s.oitm,
      s.fixed_iterations ? "true" : "false", s.inners.c_str(), s.threads,
      s.preassembly.c_str());
  return text + buf;
}

DeckSpec fixed_source(std::uint64_t seed) {
  DeckSpec s;
  s.title = "perfbench fixed-source";
  s.dims = 12;
  s.shuffle = mix(seed, 1);
  s.nang = 6;
  s.ng = 4;
  s.c = 0.5;
  s.epsi = 1e-5;
  return s;
}

DeckSpec high_order(std::uint64_t seed) {
  DeckSpec s;
  s.title = "perfbench preassembled-high-order";
  s.dims = 8;
  s.shuffle = mix(seed, 2);
  s.order = 2;
  s.nang = 4;
  s.ng = 2;
  s.c = 0.95;
  s.epsi = 1e-6;
  s.oitm = 10;
  s.inners = "gmres";
  s.preassembly = "explicit-inverse";
  return s;
}

DeckSpec criticality(std::uint64_t seed, const std::string& library_path) {
  DeckSpec s;
  s.title = "perfbench keff";
  s.mode = "keff";
  s.dims = 6;
  s.extent = 4.0;
  s.shuffle = mix(seed, 3);
  s.nang = 2;
  s.ng = 2;
  s.materials =
      "ng = 2\nmaterial = fuel water\ndefault_material = 1\n"
      "region = 0 0.5 3.5 0.5 3.5 0.5 3.5\n";
  s.xs = "file = " + library_path +
         "\nk_tol = 1e-7\nfission_tol = 1e-6\nmax_outers = 100\n";
  s.src_opt = 0;
  s.epsi = 1e-6;
  s.iitm = 20;
  s.oitm = 3;
  s.fixed_iterations = true;  // as shipped: 60 sweeps per groupset solve
  return s;
}

DeckSpec criticality_infinite(const std::string& library_path) {
  DeckSpec s = criticality(0, library_path);
  s.title = "perfbench keff infinite medium";
  s.dims = 2;
  s.twist = 0.0;  // reflective sides must be planar
  s.shuffle = 1;
  s.materials = "ng = 2\nmaterial = fuel\ndefault_material = 0\n";
  s.xs = "file = " + library_path +
         "\nk_tol = 1e-10\nfission_tol = 1e-9\nmax_outers = 100\n";
  s.boundary = "reflective";
  s.epsi = 1e-10;
  return s;
}

namespace {

/// A few milliseconds of work at one thread.
DeckSpec small_solve(std::uint64_t shuffle) {
  DeckSpec s;
  s.title = "perfbench served solve";
  s.dims = 3;
  s.shuffle = shuffle;
  s.nang = 2;
  s.ng = 1;
  s.epsi = 1e-4;
  return s;
}

DeckSpec mms(std::uint64_t seed, int dims) {
  DeckSpec s;
  s.title = "perfbench served mms";
  s.mode = "mms";
  s.dims = dims;
  s.twist = 0.01;
  s.shuffle = mix(seed, 5);
  s.order = kMmsOrder;
  s.nang = 3;
  s.ng = 1;
  s.c = 0.0;
  s.src_opt = 0;
  s.iitm = 1;
  s.oitm = 1;
  s.fixed_iterations = true;
  return s;
}

}  // namespace

std::vector<DeckSpec> repeat_decks(std::uint64_t seed) {
  DeckSpec solve = small_solve(mix(seed, 4));
  solve.epsi = 1e-5;
  DeckSpec gmres = small_solve(mix(seed, 6));
  gmres.title = "perfbench served preassembled gmres";
  gmres.dims = 4;
  // About 40 ms a run: these two submissions of twenty hold the served
  // p99 inside await_terminal's 64 ms poll step, not on its 32 ms edge.
  gmres.nang = 3;
  gmres.order = 2;
  gmres.c = 0.9;
  gmres.oitm = 10;
  gmres.inners = "gmres";
  gmres.preassembly = "explicit-inverse";
  return {solve, mms(seed, 2), mms(seed, 4), gmres};
}

int repeat_slot(long index) {
  // Per round: 8 small solves, 2 + 4 MMS runs, 2 GMRES runs, 4 unique
  // decks, interleaved so that every client sees the whole mix.
  static constexpr int kPattern[kRoundSize] = {0, 1, 0, -1, 2, 0, 3,
                                               -1, 0, 2, 0, 1, 0, -1,
                                               2, 0, 3, -1, 0, 2};
  return kPattern[index % kRoundSize];
}

DeckSpec unique_deck(std::uint64_t seed, long index) {
  return small_solve(mix(seed, 1000 + static_cast<std::uint64_t>(index)));
}

}  // namespace perfbench
