#pragma once

#include <vector>

#include "core/discretization.hpp"
#include "core/flux_storage.hpp"
#include "core/problem_data.hpp"
#include "linalg/solver.hpp"
#include "util/timer.hpp"

namespace unsnap::core {

class PreassembledOperator;

/// Per-thread scratch for the assemble/solve kernel; allocated once per
/// sweep thread so the hot loop never touches the allocator.
struct AssemblyContext {
  linalg::Matrix a;                  // n x n system matrix
  AlignedVector<double> rhs;         // n
  AlignedVector<double> upwind;      // nf gathered neighbour trace
  AlignedVector<double> qtmp;        // n source staging (angular source)
  linalg::SolveWorkspace workspace;
  double solve_seconds = 0.0;        // accumulated when timing is enabled
  Stopwatch solve_watch;

  void resize(int n, int nf);
};

/// Compact previous-iterate storage for cycle-broken (lagged) faces: one
/// face trace (nodes-per-face values, pre-gathered into the downstream
/// element's face-node order) per lagged face of each angle's schedule,
/// per group. The transport solver captures it at sweep start and the
/// assembly kernel reads it instead of the neighbour's live psi, so
/// lagged faces have deterministic previous-iterate semantics at the
/// cost of a few hundred doubles instead of a full psi copy.
class LagSnapshot {
 public:
  LagSnapshot() = default;
  /// Size from the schedule set's lagged faces; empty (inactive) when no
  /// schedule broke a cycle.
  LagSnapshot(const sweep::ScheduleSet& schedules, int ng, int nf);

  [[nodiscard]] bool active() const { return !data_.empty(); }
  [[nodiscard]] double* row(int oct, int a, int slot, int g) {
    return data_.data() + offset(oct, a, slot, g);
  }
  [[nodiscard]] const double* row(int oct, int a, int slot, int g) const {
    return data_.data() + offset(oct, a, slot, g);
  }

 private:
  [[nodiscard]] std::size_t offset(int oct, int a, int slot, int g) const {
    return base_[static_cast<std::size_t>(oct) * nang_ + a] +
           (static_cast<std::size_t>(slot) * ng_ + g) * nf_;
  }
  std::size_t nang_ = 0, ng_ = 0, nf_ = 0;
  std::vector<std::size_t> base_;  // per (octant, angle)
  std::vector<double> data_;
};

/// References to the solution state one sweep works on. qang (per-angle
/// source) and bc (prescribed boundary flux) are optional; pre switches the
/// kernel to the pre-assembled operator path (no matrix assembly/solve).
///
/// Anisotropic scattering (nmom > 1) adds the higher flux/source moment
/// fields and per-ordinate spherical-harmonic coefficient tables; the
/// sweeper points ylm_acc/ylm_src at the current angle's row before each
/// bucket. Moment index m here is the flat (l, m) index minus one (the
/// l = 0 moment is phi/qin themselves).
struct SweepState {
  AngularFlux* psi = nullptr;
  NodalField* phi = nullptr;
  /// Schedule of the ordinate currently being swept (set per angle by the
  /// sweeper). Together with lag it gives cycle-broken (lagged) faces
  /// well-defined previous-iterate semantics: without the snapshot a
  /// lagged read would return whatever the neighbour holds right now —
  /// racy under element threading when both ends share a bucket, and
  /// schedule-order dependent even serially.
  const sweep::SweepSchedule* schedule = nullptr;
  /// Previous-iterate traces for lagged-face reads (null when the
  /// schedule set broke no cycles; lagged faces then never occur).
  const LagSnapshot* lag = nullptr;
  const NodalField* qin = nullptr;
  const AngularFlux* qang = nullptr;
  const BoundaryAngularFlux* bc = nullptr;
  const PreassembledOperator* pre = nullptr;
  std::vector<NodalField>* phi_hi = nullptr;        // count-1 fields
  const std::vector<NodalField>* qmom_hi = nullptr; // count-1 fields
  const double* ylm_acc = nullptr;  // Y_lm(omega), count entries
  const double* ylm_src = nullptr;  // (2l+1) Y_lm(omega), count entries
  int moment_count = 1;
};

/// How Assembler::process folds its solution into the scalar flux.
/// Plain adds into phi (callers that give each (element, group) row to one
/// thread at a time); Atomic adds with atomics (angle-threaded scheme);
/// None stores psi only and leaves the sum to a later reduction.
enum class PhiUpdate { Plain, Atomic, None };

/// phi(e, g) += weight * psi and, when the state carries higher moments,
/// phi_m(e, g) += (weight * Y_m) * psi: one direction's contribution to the
/// scalar flux. process() and the sweeper's fixed-order reduction share
/// this, so both round identically.
void accumulate_flux(const SweepState& state, int e, int g, int n,
                     const double* psi, double weight);

/// The central computation of the paper (Fig. 2): for one
/// (octant, angle, element, group), build the small dense system
///   A = sigma_t M - Omega . G + sum_{outflow f} Omega . F_f
///   b = M (q_in + q_ang) - sum_{inflow f} Omega . F_f psi_upwind
/// solve A psi = b, store psi and accumulate the scalar flux.
class Assembler {
 public:
  Assembler(const Discretization& disc, const ProblemData& problem)
      : disc_(&disc), problem_(&problem) {}

  /// Assemble the matrix only (shared with the pre-assembly engine and the
  /// assembly-cost benchmarks). `a` must hold n*n doubles.
  void assemble_matrix(double* a, int e, int g, const Vec3& omega) const;

  /// Assemble the right-hand side only into ctx.rhs.
  void assemble_rhs(AssemblyContext& ctx, const SweepState& state, int oct,
                    int a, int e, int g, const Vec3& omega) const;

  /// Full kernel: assemble, solve (or apply the pre-assembled inverse),
  /// scatter psi, accumulate phi with quadrature weight `weight` as
  /// `phi_update` says; time_solve accumulates pure solve time into
  /// ctx.solve_seconds.
  void process(AssemblyContext& ctx, const SweepState& state, int oct, int a,
               int e, int g, const Vec3& omega, double weight,
               linalg::SolverKind solver, PhiUpdate phi_update,
               bool time_solve) const;

  [[nodiscard]] const Discretization& discretization() const { return *disc_; }
  [[nodiscard]] const ProblemData& problem() const { return *problem_; }

 private:
  const Discretization* disc_;
  const ProblemData* problem_;
};

}  // namespace unsnap::core
