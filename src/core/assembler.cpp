#include "core/assembler.hpp"

#include "core/preassembly.hpp"

namespace unsnap::core {

LagSnapshot::LagSnapshot(const sweep::ScheduleSet& schedules, int ng,
                         int nf)
    : nang_(static_cast<std::size_t>(schedules.per_octant())),
      ng_(static_cast<std::size_t>(ng)),
      nf_(static_cast<std::size_t>(nf)) {
  base_.reserve(static_cast<std::size_t>(angular::kOctants) * nang_);
  std::size_t total = 0;
  for (int oct = 0; oct < angular::kOctants; ++oct)
    for (int a = 0; a < schedules.per_octant(); ++a) {
      base_.push_back(total);
      total += schedules.get(oct, a).lagged_faces().size() * ng_ * nf_;
    }
  data_.assign(total, 0.0);
}

void AssemblyContext::resize(int n, int nf) {
  a = linalg::Matrix(n, n);
  rhs.assign(static_cast<std::size_t>(n), 0.0);
  upwind.assign(static_cast<std::size_t>(nf), 0.0);
  qtmp.assign(static_cast<std::size_t>(n), 0.0);
  workspace.reserve(n);
}

void Assembler::assemble_matrix(double* a, int e, int g,
                                const Vec3& omega) const {
  const ElementIntegrals& ints = disc_->integrals();
  const int n = ints.num_nodes();
  const int nf = ints.nodes_per_face();
  const double wx = omega[0], wy = omega[1], wz = omega[2];
  const double st = problem_->sigt_eg(e, g);

  const double* m = ints.mass(e);
  const double* gx = ints.grad(e, 0);
  const double* gy = ints.grad(e, 1);
  const double* gz = ints.grad(e, 2);
  const int nn = n * n;
#pragma omp simd
  for (int idx = 0; idx < nn; ++idx)
    a[idx] = st * m[idx] - (wx * gx[idx] + wy * gy[idx] + wz * gz[idx]);

  // Outflow faces contribute Omega . F to the matrix; inflow faces go to
  // the right-hand side (the paper's data-dependent branch).
  for (int f = 0; f < fem::kFacesPerHex; ++f) {
    const Vec3 nrm = ints.face_normal(e, f);
    if (nrm[0] * wx + nrm[1] * wy + nrm[2] * wz < 0.0) continue;
    const double* fx = ints.face(e, f, 0);
    const double* fy = ints.face(e, f, 1);
    const double* fz = ints.face(e, f, 2);
    const int* fn = ints.face_nodes(f);
    for (int i = 0; i < nf; ++i) {
      double* arow = a + static_cast<std::size_t>(fn[i]) * n;
      const double* fxi = fx + static_cast<std::size_t>(i) * nf;
      const double* fyi = fy + static_cast<std::size_t>(i) * nf;
      const double* fzi = fz + static_cast<std::size_t>(i) * nf;
      for (int j = 0; j < nf; ++j)
        arow[fn[j]] += wx * fxi[j] + wy * fyi[j] + wz * fzi[j];
    }
  }
}

void Assembler::assemble_rhs(AssemblyContext& ctx, const SweepState& state,
                             int oct, int a, int e, int g,
                             const Vec3& omega) const {
  const ElementIntegrals& ints = disc_->integrals();
  const mesh::HexMesh& mesh = disc_->mesh();
  const int n = ints.num_nodes();
  const int nf = ints.nodes_per_face();
  const double wx = omega[0], wy = omega[1], wz = omega[2];

  // b = M * (q_in + q_ang + anisotropic moment expansion).
  const double* q = state.qin->at(e, g);
  if (state.qang != nullptr || state.qmom_hi != nullptr) {
    double* qt = ctx.qtmp.data();
#pragma omp simd
    for (int j = 0; j < n; ++j) qt[j] = q[j];
    if (state.qang != nullptr) {
      const double* qa = state.qang->at(oct, a, e, g);
#pragma omp simd
      for (int j = 0; j < n; ++j) qt[j] += qa[j];
    }
    if (state.qmom_hi != nullptr) {
      for (int m = 1; m < state.moment_count; ++m) {
        const double c = state.ylm_src[m];
        const double* qm = (*state.qmom_hi)[m - 1].at(e, g);
#pragma omp simd
        for (int j = 0; j < n; ++j) qt[j] += c * qm[j];
      }
    }
    q = qt;
  }
  const double* m = ints.mass(e);
  double* rhs = ctx.rhs.data();
  for (int i = 0; i < n; ++i) {
    const double* mrow = m + static_cast<std::size_t>(i) * n;
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (int j = 0; j < n; ++j) acc += mrow[j] * q[j];
    rhs[i] = acc;
  }

  // Inflow faces: subtract Omega . F times the upwind trace. The upwind
  // values come from the neighbour's current flux (already updated this
  // sweep for faces the schedule respects, previous-iterate for lagged
  // cycle-broken faces) or from prescribed boundary data; vacuum
  // boundaries contribute nothing.
  for (int f = 0; f < fem::kFacesPerHex; ++f) {
    const Vec3 nrm = ints.face_normal(e, f);
    if (nrm[0] * wx + nrm[1] * wy + nrm[2] * wz >= 0.0) continue;

    const double* vals = nullptr;
    const int nbr = mesh.neighbor(e, f);
    if (nbr != mesh::kNoNeighbor) {
      // Grazing faces incoming on both sides are outside the dependency
      // graph (~zero flow): read vacuum rather than racing on a
      // neighbour that may share this bucket.
      if (state.schedule != nullptr && state.schedule->face_is_phantom(e, f))
        continue;
      if (state.lag != nullptr && state.schedule != nullptr &&
          state.schedule->face_is_lagged(e, f)) {
        // Lagged (cycle-broken) faces read the pre-gathered
        // previous-iterate trace captured at sweep start.
        vals = state.lag->row(oct, a, state.schedule->lag_slot(e, f), g);
      } else {
        // Every other interior face reads the neighbour's flux as updated
        // this sweep.
        const double* pn = state.psi->at(oct, a, nbr, g);
        const int* perm = ints.neighbor_perm(e, f);
        double* uv = ctx.upwind.data();
        for (int j = 0; j < nf; ++j) uv[j] = pn[perm[j]];
        vals = uv;
      }
    } else if (state.bc != nullptr && state.bc->active()) {
      vals = state.bc->at(mesh.boundary_face_id(e, f), oct, a, g);
    } else {
      continue;  // vacuum
    }

    const double* fx = ints.face(e, f, 0);
    const double* fy = ints.face(e, f, 1);
    const double* fz = ints.face(e, f, 2);
    const int* fn = ints.face_nodes(f);
    for (int i = 0; i < nf; ++i) {
      const double* fxi = fx + static_cast<std::size_t>(i) * nf;
      const double* fyi = fy + static_cast<std::size_t>(i) * nf;
      const double* fzi = fz + static_cast<std::size_t>(i) * nf;
      double acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (int j = 0; j < nf; ++j)
        acc += (wx * fxi[j] + wy * fyi[j] + wz * fzi[j]) * vals[j];
      rhs[fn[i]] -= acc;
    }
  }
}

void accumulate_flux(const SweepState& state, int e, int g, int n,
                     const double* psi, double weight) {
  double* ph = state.phi->at(e, g);
#pragma omp simd
  for (int i = 0; i < n; ++i) ph[i] += weight * psi[i];
  if (state.phi_hi != nullptr) {
    for (int m = 1; m < state.moment_count; ++m) {
      const double c = weight * state.ylm_acc[m];
      double* pm = (*state.phi_hi)[m - 1].at(e, g);
#pragma omp simd
      for (int i = 0; i < n; ++i) pm[i] += c * psi[i];
    }
  }
}

void Assembler::process(AssemblyContext& ctx, const SweepState& state,
                        int oct, int a, int e, int g, const Vec3& omega,
                        double weight, linalg::SolverKind solver,
                        PhiUpdate phi_update, bool time_solve) const {
  const int n = disc_->num_nodes();
  assemble_rhs(ctx, state, oct, a, e, g, omega);

  const double* psi;
  if (state.pre != nullptr) {
    psi = state.pre->apply(ctx, oct, a, e, g);
  } else {
    double* rhs = ctx.rhs.data();
    assemble_matrix(ctx.a.data(), e, g, omega);
    if (time_solve) ctx.solve_watch.start();
    linalg::solve_in_place(solver, ctx.a.view(), {rhs, ctx.rhs.size()},
                           ctx.workspace);
    if (time_solve) ctx.solve_seconds += ctx.solve_watch.peek();
    psi = rhs;
  }

  double* out = state.psi->at(oct, a, e, g);
#pragma omp simd
  for (int i = 0; i < n; ++i) out[i] = psi[i];

  if (phi_update == PhiUpdate::Plain) {
    accumulate_flux(state, e, g, n, psi, weight);
  } else if (phi_update == PhiUpdate::Atomic) {
    double* ph = state.phi->at(e, g);
    for (int i = 0; i < n; ++i) {
#pragma omp atomic
      ph[i] += weight * psi[i];
    }
    if (state.phi_hi != nullptr) {
      for (int m = 1; m < state.moment_count; ++m) {
        const double c = weight * state.ylm_acc[m];
        double* pm = (*state.phi_hi)[m - 1].at(e, g);
        for (int i = 0; i < n; ++i) {
#pragma omp atomic
          pm[i] += c * psi[i];
        }
      }
    }
  }
}

}  // namespace unsnap::core
