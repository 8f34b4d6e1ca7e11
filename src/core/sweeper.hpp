#pragma once

#include <vector>

#include "core/assembler.hpp"

namespace unsnap::core {

using snap::ConcurrencyScheme;

/// Execution configuration of one sweep (the experiment axes of
/// Figures 3/4 and Table II).
struct SweepConfig {
  ConcurrencyScheme scheme = ConcurrencyScheme::ElementsGroups;
  linalg::SolverKind solver = linalg::SolverKind::GaussianElimination;
  /// Element/group loop order of the serial scheme; matches the flux
  /// layout for the paper's matched loop-order/data-layout runs.
  FluxLayout loop_order = FluxLayout::AngleElementGroup;
  bool time_solve = false;
  int ng = 1;
  /// Legendre scattering orders; > 1 enables the moment machinery.
  int nmom = 1;
};

/// Executes full transport sweeps: all octants, all angles following each
/// angle's bucketed schedule, threading the configured loops. Owns the
/// per-thread assembly scratch.
///
/// The default elements-groups scheme runs a sweep's directions
/// concurrently in one parallel region: threads claim whole (octant, angle)
/// directions, walk each direction's buckets serially storing psi only,
/// and after the barrier reduce phi per element, adding the directions in
/// (octant, angle) order. That is the order the serial scheme accumulates
/// in, so phi is bitwise equal to serial at any thread count, without
/// atomics. Threads beyond the 8 * nang directions of a sweep (nang per
/// sweep_octant call) idle until the reduction.
class Sweeper {
 public:
  Sweeper(const Assembler& assembler, SweepConfig config);

  /// One full sweep: zeroes phi, solves every (octant, angle, element,
  /// group), leaves psi and the accumulated phi in `state`.
  void sweep(SweepState& state);

  /// Split sweep for drivers that interleave work between octants (the
  /// pipelined halo exchange): begin zeroes the accumulators, each
  /// sweep_octant solves one octant's angles, end folds up the timers.
  /// sweep() is begin + the eight octants in order + end (elements-groups
  /// runs the eight octants as one executor call, which adds phi in the
  /// same order), so the split path is bitwise-identical to the
  /// monolithic one.
  void sweep_begin(SweepState& state);
  void sweep_octant(SweepState& state, int oct);
  void sweep_end();

  /// Wall time of the last sweep's assemble/solve region.
  [[nodiscard]] double last_sweep_seconds() const { return sweep_seconds_; }
  /// Sum of per-thread pure-solve time in the last sweep (valid when
  /// config.time_solve). Reported as thread-summed CPU seconds, matching
  /// the paper's "% of runtime in the solve" accounting.
  [[nodiscard]] double last_solve_seconds() const { return solve_seconds_; }

  [[nodiscard]] const SweepConfig& config() const { return config_; }

 private:
  /// Everything the kernel needs per direction, precomputed outside the
  /// parallel region: the direction's SweepState (schedule + ylm rows
  /// bound), its unit vector and quadrature weight.
  struct Direction {
    SweepState state;
    Vec3 omega{};
    double weight = 0.0;
    int oct = 0;
    int a = 0;
  };

  const Assembler* assembler_;
  SweepConfig config_;
  std::vector<AssemblyContext> contexts_;  // one per OpenMP thread
  /// Per-call direction table (AngleBatch: one batch; ElementsGroups: the
  /// octants being swept).
  std::vector<Direction> directions_;
  double sweep_seconds_ = 0.0;
  double solve_seconds_ = 0.0;
  /// Spherical-harmonic coefficient tables per (octant, angle):
  /// accumulation row Y_lm(omega) and source row (2l+1) Y_lm(omega).
  NDArray<double, 3> ylm_acc_;
  NDArray<double, 3> ylm_src_;

  [[nodiscard]] Direction direction(const SweepState& state, int oct,
                                    int a) const;
  void sweep_angle(const SweepState& state, int oct, int a);
  void sweep_octant_angles_atomic(const SweepState& state, int oct);
  void sweep_octant_batched(const SweepState& state, int oct);
  /// The elements-groups executor over octants [oct_begin, oct_end).
  void sweep_directions(const SweepState& state, int oct_begin,
                        int oct_end);
  /// Grow the per-thread scratch if the OpenMP thread count was raised
  /// after construction (contexts_[omp_get_thread_num()] must never be
  /// out of bounds).
  void ensure_contexts();
};

}  // namespace unsnap::core
