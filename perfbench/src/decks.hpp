#pragma once

// Deck text for every workload, generated from the run's --seed. The seed
// only renumbers elements (the mesh's shuffle_seed) and picks the unique
// decks of serve-mix, so a workload's cost and iteration counts do not
// depend on it; the program only ever sees the generated text.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64 of (seed, salt): independent, reproducible shuffle seeds.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t salt);

/// One deck's knobs; render() writes the deck text.
struct DeckSpec {
  std::string title;
  std::string mode = "solve";
  int dims = 8;
  double extent = 1.0;
  double twist = 0.001;
  std::uint64_t shuffle = 1;
  int order = 1;
  int nang = 4;
  int ng = 2;
  /// [materials] body; empty = SNAP's generated mat_opt 1 at `c`.
  std::string materials;
  double c = 0.5;
  int src_opt = 1;
  std::string boundary = "vacuum";
  std::string xs;  // [xs] body; empty = no library
  double epsi = 1e-5;
  int iitm = 100;
  int oitm = 20;
  bool fixed_iterations = false;
  std::string inners = "source-iteration";
  std::string preassembly = "none";
  int threads = 0;  // 0 = OpenMP default (all of nproc in-process)
};

[[nodiscard]] std::string render(const DeckSpec& spec);

/// fixed-source: order-1 SI on a twisted, shuffled 12^3 brick, 48
/// directions, 4 groups, assembly inside the sweep.
[[nodiscard]] DeckSpec fixed_source(std::uint64_t seed);

/// preassembled-high-order: order 2 on 8^3, explicit-inverse operators,
/// GMRES inners at c = 0.95.
[[nodiscard]] DeckSpec high_order(std::uint64_t seed);

/// keff: the shipped two-group fuel-in-water criticality problem
/// (decks/criticality.inp's values, with a seeded shuffle_seed) against
/// the library at `library_path`.
[[nodiscard]] DeckSpec criticality(std::uint64_t seed,
                                   const std::string& library_path);

/// All-fuel, all-reflective variant of the criticality problem: its k
/// is the fuel's closed-form k_inf.
[[nodiscard]] DeckSpec criticality_infinite(const std::string& library_path);

/// The shipped criticality library, relative to the repository root:
/// fuel with k_inf exactly 1, and water.
inline constexpr const char* kCriticalityLibrary = "decks/xs/criticality.xs";

/// serve-mix: rounds of kRoundSize submissions. Sixteen per round repeat
/// four decks (a small fixed-source solve, MMS order 2 at 2^3 and 4^3, a
/// small preassembled GMRES solve); four are decks no earlier round used.
inline constexpr int kRoundSize = 20;
inline constexpr int kRepeatDecks = 4;
inline constexpr int kMmsCoarse = 1, kMmsFine = 2;  // repeat indices
inline constexpr int kMmsOrder = 2;
[[nodiscard]] std::vector<DeckSpec> repeat_decks(std::uint64_t seed);
/// The repeat index of submission `index` (-1 = a unique deck).
[[nodiscard]] int repeat_slot(long index);
/// The unique deck of submission `index` (repeat_slot(index) == -1).
[[nodiscard]] DeckSpec unique_deck(std::uint64_t seed, long index);

}  // namespace perfbench
