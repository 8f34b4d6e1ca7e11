#include "core/sweeper.hpp"

#include <omp.h>

#include <algorithm>

#include "angular/harmonics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"

namespace unsnap::core {

Sweeper::Sweeper(const Assembler& assembler, SweepConfig config)
    : assembler_(&assembler), config_(config) {
  require(config_.ng >= 1, "SweepConfig: ng must be positive");
  require(config_.nmom >= 1, "SweepConfig: nmom must be positive");
  const int n = assembler.discretization().num_nodes();
  const int nf = assembler.discretization().nodes_per_face();
  // Size the per-thread scratch from a stable upper bound, not just the
  // current omp_get_max_threads(): callers may raise the OpenMP thread
  // count after construction, and contexts_[omp_get_thread_num()] must
  // never index out of bounds (ensure_contexts() re-checks per sweep as a
  // backstop for counts above even the hardware concurrency).
  contexts_.resize(static_cast<std::size_t>(
      std::max(omp_get_max_threads(), util::hardware_threads())));
  for (auto& ctx : contexts_) ctx.resize(n, nf);

  if (config_.nmom > 1) {
    const angular::SphericalHarmonics sh(config_.nmom - 1);
    const angular::QuadratureSet& quad =
        assembler.discretization().quadrature();
    const auto count = static_cast<std::size_t>(sh.count());
    const auto nang = static_cast<std::size_t>(quad.per_octant());
    ylm_acc_.resize({angular::kOctants, nang, count});
    ylm_src_.resize({angular::kOctants, nang, count});
    for (int oct = 0; oct < angular::kOctants; ++oct)
      for (int a = 0; a < quad.per_octant(); ++a) {
        sh.evaluate(quad.direction(oct, a), &ylm_acc_(oct, a, 0));
        for (int m = 0; m < sh.count(); ++m)
          ylm_src_(oct, a, m) =
              (2 * sh.l_of(m) + 1) * ylm_acc_(oct, a, m);
      }
  }
}

Sweeper::Direction Sweeper::direction(const SweepState& state, int oct,
                                      int a) const {
  const Discretization& disc = assembler_->discretization();
  Direction d;
  d.state = state;
  d.state.schedule = &disc.schedules().get(oct, a);
  if (config_.nmom > 1) {
    d.state.moment_count = config_.nmom * config_.nmom;
    d.state.ylm_acc = &ylm_acc_(oct, a, 0);
    d.state.ylm_src = &ylm_src_(oct, a, 0);
  }
  d.omega = disc.quadrature().direction(oct, a);
  d.weight = disc.quadrature().weight(a);
  d.oct = oct;
  d.a = a;
  return d;
}

void Sweeper::sweep_angle(const SweepState& state, int oct, int a) {
  const Direction d = direction(state, oct, a);
  const sweep::SweepSchedule& schedule = *d.state.schedule;
  const int ng = config_.ng;
  const auto solver = config_.solver;
  const bool time_solve = config_.time_solve;
  const Assembler& assembler = *assembler_;
  constexpr PhiUpdate plain = PhiUpdate::Plain;

  for (int b = 0; b < schedule.num_buckets(); ++b) {
    const std::span<const int> bucket = schedule.bucket(b);
    const int nb = static_cast<int>(bucket.size());

    switch (config_.scheme) {
      case ConcurrencyScheme::Serial:
        // Loop order follows the configured layout for cache coherence.
        if (config_.loop_order == FluxLayout::AngleElementGroup) {
          for (int i = 0; i < nb; ++i)
            for (int g = 0; g < ng; ++g)
              assembler.process(contexts_[0], d.state, oct, a, bucket[i], g,
                                d.omega, d.weight, solver, plain,
                                time_solve);
        } else {
          for (int g = 0; g < ng; ++g)
            for (int i = 0; i < nb; ++i)
              assembler.process(contexts_[0], d.state, oct, a, bucket[i], g,
                                d.omega, d.weight, solver, plain,
                                time_solve);
        }
        break;

      case ConcurrencyScheme::Elements:
        // Thread the independent elements of the bucket; groups serial
        // inside each thread ("angle/element/group" with elements bold).
#pragma omp parallel for schedule(static)
        for (int i = 0; i < nb; ++i) {
          AssemblyContext& ctx = contexts_[omp_get_thread_num()];
          for (int g = 0; g < ng; ++g)
            assembler.process(ctx, d.state, oct, a, bucket[i], g, d.omega,
                              d.weight, solver, plain, time_solve);
        }
        break;

      case ConcurrencyScheme::Groups:
        // Thread energy groups; elements serial inside each thread.
#pragma omp parallel for schedule(static)
        for (int g = 0; g < ng; ++g) {
          AssemblyContext& ctx = contexts_[omp_get_thread_num()];
          for (int i = 0; i < nb; ++i)
            assembler.process(ctx, d.state, oct, a, bucket[i], g, d.omega,
                              d.weight, solver, plain, time_solve);
        }
        break;

      case ConcurrencyScheme::ElementsGroups:
      case ConcurrencyScheme::AnglesAtomic:
      case ConcurrencyScheme::AngleBatch:
        UNSNAP_ASSERT(false);  // handled at octant level
        break;
    }
  }
}

void Sweeper::sweep_directions(const SweepState& state, int oct_begin,
                               int oct_end) {
  // Within a sweep, directions are coupled only through the scalar-flux
  // sum: upwind reads stay inside one direction's psi, lagged faces read
  // the snapshot taken before the sweep, reflective inflow is refreshed
  // after it and preassembled operators are read-only. So every direction
  // can run at once, each on one thread walking its schedule serially and
  // storing psi only; the sum is deferred to a reduction that adds the
  // directions in (octant, angle) order, exactly as the serial scheme does.
  Stopwatch watch;
  watch.start();
  const Discretization& disc = assembler_->discretization();
  const int ne = disc.num_elements();
  const int n = disc.num_nodes();
  const int ng = config_.ng;
  const auto solver = config_.solver;
  const bool time_solve = config_.time_solve;
  const Assembler& assembler = *assembler_;

  directions_.clear();
  for (int oct = oct_begin; oct < oct_end; ++oct)
    for (int a = 0; a < disc.nang(); ++a)
      directions_.push_back(direction(state, oct, a));
  const int nd = static_cast<int>(directions_.size());

#pragma omp parallel
  {
    AssemblyContext& ctx = contexts_[omp_get_thread_num()];
#pragma omp for schedule(dynamic, 1)
    for (int k = 0; k < nd; ++k) {
      const Direction& d = directions_[static_cast<std::size_t>(k)];
      OBS_SPAN("sweep.direction", "oct", d.oct, "a", d.a);
      const sweep::SweepSchedule& schedule = *d.state.schedule;
      for (int b = 0; b < schedule.num_buckets(); ++b)
        for (const int e : schedule.bucket(b))
          for (int g = 0; g < ng; ++g)
            assembler.process(ctx, d.state, d.oct, d.a, e, g, d.omega,
                              d.weight, solver, PhiUpdate::None, time_solve);
    }
    OBS_SPAN("sweep.reduce", "elements", ne);
#pragma omp for schedule(static)
    for (int e = 0; e < ne; ++e)
      for (const Direction& d : directions_)
        for (int g = 0; g < ng; ++g)
          accumulate_flux(d.state, e, g, n, state.psi->at(d.oct, d.a, e, g),
                          d.weight);
  }
  sweep_seconds_ += watch.stop();
}

void Sweeper::sweep_octant_batched(const SweepState& state, int oct) {
  // Angle batching over same-signature schedules: angles sharing a
  // dependency signature share a bucket list, so one walk of that list
  // serves the whole batch. Threads own elements — each thread solves its
  // element for every batched angle and group, so the scalar-flux row of
  // an element is only ever touched by one thread (no atomics) and every
  // bucket exposes |bucket| x |batch| x ng work units behind a single
  // barrier instead of |bucket| x ng behind |batch| barriers.
  const Discretization& disc = assembler_->discretization();
  const sweep::ScheduleSet& schedules = disc.schedules();
  const int ng = config_.ng;
  const auto solver = config_.solver;
  const bool time_solve = config_.time_solve;
  const Assembler& assembler = *assembler_;

  for (const std::vector<int>& batch : schedules.batches(oct)) {
    const sweep::SweepSchedule& schedule = schedules.get(oct, batch[0]);
    const int na = static_cast<int>(batch.size());
    // Build the per-angle table once per batch: the SweepState copy (with
    // schedule and ylm rows bound), direction and weight of every batched
    // angle. The hot element loop below then just walks the table —
    // without this, each of the |bucket| x |batch| inner iterations
    // re-copied the SweepState and re-derived the quadrature lookups.
    directions_.clear();
    for (int k = 0; k < na; ++k) {
      directions_.push_back(direction(state, oct, batch[k]));
      directions_.back().state.schedule = &schedule;
    }
    for (int b = 0; b < schedule.num_buckets(); ++b) {
      const std::span<const int> bucket = schedule.bucket(b);
      const int nb = static_cast<int>(bucket.size());
      // Explicit parallel region (not `parallel for`) so every worker can
      // open its own "sweep.batch" span — the per-thread timeline is the
      // whole point of the trace. The `for schedule(static)` inside hands
      // out the identical iteration blocks a combined `parallel for
      // schedule(static)` would, so flux accumulation order (and thus the
      // golden digests) is unchanged.
#pragma omp parallel
      {
        OBS_SPAN("sweep.batch", "bucket", b, "elements", nb);
        AssemblyContext& ctx = contexts_[omp_get_thread_num()];
#pragma omp for schedule(static)
        for (int i = 0; i < nb; ++i) {
          const int e = bucket[i];
          for (const Direction& d : directions_) {
            for (int g = 0; g < ng; ++g)
              assembler.process(ctx, d.state, oct, d.a, e, g, d.omega,
                                d.weight, solver, PhiUpdate::Plain,
                                time_solve);
          }
        }
      }
    }
  }
}

void Sweeper::sweep_octant_angles_atomic(const SweepState& state, int oct) {
  // Thread over the independent angles of the octant (paper §IV-A-3).
  // Every thread walks its own angle's schedule serially; the shared
  // scalar-flux reduction forces atomic accumulation, which is exactly the
  // non-scaling behaviour the paper reports.
  const Discretization& disc = assembler_->discretization();
  const int nang = disc.nang();
  const int ng = config_.ng;

#pragma omp parallel for schedule(dynamic, 1)
  for (int a = 0; a < nang; ++a) {
    AssemblyContext& ctx = contexts_[omp_get_thread_num()];
    const Direction d = direction(state, oct, a);
    const sweep::SweepSchedule& schedule = *d.state.schedule;
    for (int b = 0; b < schedule.num_buckets(); ++b) {
      for (const int e : schedule.bucket(b))
        for (int g = 0; g < ng; ++g)
          assembler_->process(ctx, d.state, oct, a, e, g, d.omega, d.weight,
                              config_.solver, PhiUpdate::Atomic,
                              config_.time_solve);
    }
  }
}

void Sweeper::ensure_contexts() {
  const auto needed = static_cast<std::size_t>(omp_get_max_threads());
  if (needed <= contexts_.size()) return;
  const int n = assembler_->discretization().num_nodes();
  const int nf = assembler_->discretization().nodes_per_face();
  contexts_.resize(needed);
  for (auto& ctx : contexts_)
    if (ctx.rhs.size() != static_cast<std::size_t>(n)) ctx.resize(n, nf);
}

void Sweeper::sweep_begin(SweepState& state) {
  UNSNAP_ASSERT(state.psi != nullptr && state.phi != nullptr &&
                state.qin != nullptr);
  ensure_contexts();
  state.phi->fill(0.0);
  if (state.phi_hi != nullptr)
    for (auto& field : *state.phi_hi) field.fill(0.0);
  for (auto& ctx : contexts_) ctx.solve_seconds = 0.0;
  sweep_seconds_ = 0.0;
}

void Sweeper::sweep_octant(SweepState& state, int oct) {
  if (config_.scheme == ConcurrencyScheme::ElementsGroups) {
    sweep_directions(state, oct, oct + 1);
    return;
  }
  OBS_SPAN("sweep.octant", "oct", oct, "elements",
           assembler_->discretization().num_elements());
  Stopwatch watch;
  watch.start();
  const int nang = assembler_->discretization().nang();
  if (config_.scheme == ConcurrencyScheme::AnglesAtomic) {
    sweep_octant_angles_atomic(state, oct);
  } else if (config_.scheme == ConcurrencyScheme::AngleBatch) {
    sweep_octant_batched(state, oct);
  } else {
    for (int a = 0; a < nang; ++a) sweep_angle(state, oct, a);
  }
  sweep_seconds_ += watch.stop();
}

void Sweeper::sweep_end() {
  solve_seconds_ = 0.0;
  for (const auto& ctx : contexts_) solve_seconds_ += ctx.solve_seconds;
}

void Sweeper::sweep(SweepState& state) {
  sweep_begin(state);
  if (config_.scheme == ConcurrencyScheme::ElementsGroups) {
    sweep_directions(state, 0, angular::kOctants);
  } else {
    for (int oct = 0; oct < angular::kOctants; ++oct)
      sweep_octant(state, oct);
  }
  sweep_end();
}

}  // namespace unsnap::core
