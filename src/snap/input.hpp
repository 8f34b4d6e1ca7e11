#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "angular/quadrature.hpp"
#include "linalg/solver.hpp"
#include "sweep/scc.hpp"

namespace unsnap::snap {

/// Storage layout of the big solution arrays (paper §IV-A): the order of
/// the array extents follows the loop order name, element nodes always
/// innermost/contiguous.
enum class FluxLayout {
  AngleElementGroup,  // psi[octant][angle][element][group][node]
  AngleGroupElement,  // psi[octant][angle][group][element][node]
};

/// On-node concurrency scheme for following the sweep schedule — the six
/// legend entries of Figures 3/4 are {layout} x {which loops are threaded},
/// plus the angle-threaded scheme discussed (and dismissed) in §IV-A-3 and
/// a serial reference.
enum class ConcurrencyScheme {
  Serial,
  Elements,          // thread elements within the bucket
  ElementsGroups,    // directions concurrent, fixed-order phi reduction
  Groups,            // thread energy groups, elements serial
  AnglesAtomic,      // thread angles in the octant; scalar flux via atomics
  /// Batch the angles that share a schedule (ScheduleSet signature dedup)
  /// and walk the shared bucket list once: threads own elements, angles
  /// and groups run serially inside the owning thread. Fewer bucket
  /// barriers and (batch x groups) work per element — the wide-bucket
  /// remedy for thread starvation on small buckets.
  AngleBatch,
};

/// Halo-exchange discipline of the distributed (simulated-MPI) sweep
/// drivers in src/comm/. BlockJacobi is the paper's global schedule: every
/// rank sweeps immediately on previous-iteration boundary data, so
/// convergence degrades with the rank count (the Garrett observation).
/// Pipelined stages each octant through the rank-level dependency DAG —
/// ranks consume same-iteration upstream traces, making the distributed
/// sweep an exact global transport sweep with single-domain iteration
/// counts (Vermaak et al.) at the price of pipeline fill/drain idling.
enum class SweepExchange {
  BlockJacobi,
  Pipelined,
};

/// Pre-assembled operator mode (paper §IV-B-1): the per-(angle, element,
/// group) system matrices depend only on the discretisation and cross
/// sections, so they can be factored (or explicitly inverted) once up
/// front and reused every sweep. FactoredLu stores LU factors + pivots
/// (apply = two triangular solves); ExplicitInverse stores A^{-1} (apply
/// = one matvec) — faster per solve, but numerically a different rounding
/// path and double the setup cost. Both trade a large memory footprint
/// (octants x nang x elements x ng dense matrices) for per-sweep speed.
enum class PreassemblyMode {
  None,
  FactoredLu,
  ExplicitInverse,
};

/// Within-group (inner) iteration scheme. Source iteration is SNAP's
/// plain fixed-point sweep loop; its error contracts by the scattering
/// ratio c per sweep, so it stalls on diffusive problems (c -> 1). Gmres
/// wraps the very same sweep as a matrix-free operator inside restarted
/// GMRES (src/accel/), which stays fast as c -> 1.
enum class IterationScheme {
  SourceIteration,
  Gmres,
};

[[nodiscard]] std::string to_string(FluxLayout layout);
[[nodiscard]] std::string to_string(ConcurrencyScheme scheme);
[[nodiscard]] std::string to_string(IterationScheme scheme);
[[nodiscard]] std::string to_string(SweepExchange exchange);
[[nodiscard]] std::string to_string(PreassemblyMode mode);
[[nodiscard]] FluxLayout layout_from_string(const std::string& name);
[[nodiscard]] ConcurrencyScheme scheme_from_string(const std::string& name);
/// Accepts "none", "factored-lu" and "explicit-inverse".
[[nodiscard]] PreassemblyMode preassembly_from_string(
    const std::string& name);
/// Accepts "source-iteration" (alias "si") and "gmres".
[[nodiscard]] IterationScheme iteration_scheme_from_string(
    const std::string& name);
/// Accepts "jacobi" (alias "block-jacobi") and "pipelined".
[[nodiscard]] SweepExchange sweep_exchange_from_string(
    const std::string& name);

/// Problem definition mirroring SNAP's input deck, extended with the
/// UnSNAP-specific controls (element order, twist, layout/scheme/solver).
struct Input {
  // Spatial mesh.
  std::array<int, 3> dims{8, 8, 8};
  std::array<double, 3> extent{1.0, 1.0, 1.0};
  double twist = 0.001;          // radians, paper's default stress
  std::uint64_t shuffle_seed = 1; // 0 keeps structured numbering
  int order = 1;                  // finite element order (1..5 in Table I)

  // Angle and energy.
  int nang = 8;   // angles per octant
  int ng = 4;     // energy groups
  /// Legendre scattering orders (SNAP's nmom, 1..4 typical): 1 = isotropic;
  /// higher values carry (nmom)^2 spherical-harmonic flux moments and an
  /// anisotropic scattering source.
  int nmom = 1;
  angular::QuadratureKind quadrature = angular::QuadratureKind::SnapLike;

  // Materials and source (SNAP-style options; see data.hpp).
  int mat_opt = 1;
  int src_opt = 1;
  double scattering_ratio = 0.5;  // c = sigs/sigt of material 1

  /// Boundary condition per domain side (indexed like local faces:
  /// 0:-x 1:+x 2:-y 3:+y 4:-z 5:+z). Vacuum is SNAP's default; reflective
  /// sides mirror the outgoing angular flux into the sign-flipped octant
  /// with a one-iteration lag (specular w.r.t. the untwisted planes, so
  /// only meaningful for small twists).
  enum class Bc { Vacuum, Reflective };
  std::array<Bc, 6> boundary{Bc::Vacuum, Bc::Vacuum, Bc::Vacuum,
                             Bc::Vacuum, Bc::Vacuum, Bc::Vacuum};
  [[nodiscard]] bool any_reflective() const {
    for (const Bc b : boundary)
      if (b == Bc::Reflective) return true;
    return false;
  }

  // Iteration control (SNAP: epsi, iitm inners per outer, oitm outers).
  double epsi = 1e-4;
  int iitm = 5;
  int oitm = 1;
  /// true reproduces the paper's timing setup: run exactly iitm x oitm
  /// iterations regardless of convergence, so every configuration does
  /// identical work.
  bool fixed_iterations = true;
  /// Inner iteration scheme: plain source iteration (SNAP's loop) or
  /// sweep-preconditioned matrix-free GMRES (src/accel/). Under gmres,
  /// iitm caps the *sweeps* per outer so the two schemes share one work
  /// budget (floored so every inner solve gets the seed, two Krylov
  /// applies and the closing sweep — up to 4 sweeps even when iitm < 4);
  /// with fixed_iterations the Krylov loop ignores the convergence tests
  /// and runs the budget out deterministically.
  IterationScheme iteration_scheme = IterationScheme::SourceIteration;
  /// Halo-exchange discipline when the deck is run through the distributed
  /// drivers in src/comm/ (ignored by the single-domain solver): the
  /// paper's stale-halo block Jacobi schedule, or the pipelined exchange
  /// that reproduces single-domain iteration counts.
  SweepExchange sweep_exchange = SweepExchange::BlockJacobi;
  /// GMRES restart length (Arnoldi vectors kept per cycle).
  int gmres_restart = 20;
  /// Max Krylov iterations (operator applies inside Arnoldi) per inner
  /// solve, across restarts.
  int gmres_max_iters = 100;

  // Execution configuration.
  FluxLayout layout = FluxLayout::AngleElementGroup;
  ConcurrencyScheme scheme = ConcurrencyScheme::ElementsGroups;
  linalg::SolverKind solver = linalg::SolverKind::GaussianElimination;
  int num_threads = 0;       // 0 = OpenMP default
  /// Sweep cycle handling on strongly twisted meshes: abort (the paper's
  /// behaviour), lag-greedy (legacy stall-time heuristic) or lag-scc
  /// (Tarjan SCC condensation with per-component feedback-arc breaking).
  sweep::CycleStrategy cycle_strategy = sweep::CycleStrategy::Abort;
  /// Pre-assembled operator mode for the sweep kernel. Consumed by the
  /// api::Run facade (and explicit TransportSolver::enable_preassembly
  /// callers); the TransportSolver constructor itself leaves the kernel
  /// on the assemble-and-solve path so a prebuilt operator can be
  /// injected (the daemon's lowering cache) without a wasted build.
  PreassemblyMode preassembly = PreassemblyMode::None;
  bool validate_mesh = false;
  /// Record pure-solve time inside the kernel (Table II's "% in solve").
  /// Off by default: the per-solve timer calls perturb the measurement,
  /// as the paper notes in §IV-B-1.
  bool time_solve = false;

  /// Throws InvalidInput if any field is out of range.
  void validate() const;
};

}  // namespace unsnap::snap
