#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <vector>

#include "core/preassembly.hpp"
#include "core/transport_solver.hpp"

namespace unsnap::core {
namespace {

snap::Input base_input() {
  snap::Input input;
  input.dims = {4, 4, 4};
  input.extent = {1.0, 1.0, 1.0};
  input.order = 2;
  input.nang = 3;
  input.ng = 3;
  input.twist = 0.001;
  input.shuffle_seed = 31;
  input.mat_opt = 1;
  input.src_opt = 1;
  input.scattering_ratio = 0.5;
  input.iitm = 3;
  input.oitm = 1;
  input.num_threads = 4;
  return input;
}

// Extract phi, then any higher flux moments, into a canonical (element,
// group, node) ordering regardless of the storage layout.
std::vector<double> canonical_phi(const TransportSolver& solver) {
  const Discretization& disc = solver.discretization();
  const int ng = solver.problem().xs.ng;
  const int n = disc.num_nodes();
  std::vector<const NodalField*> fields{&solver.scalar_flux()};
  for (const NodalField& moment : solver.flux_moments())
    fields.push_back(&moment);
  std::vector<double> out;
  out.reserve(fields.size() * disc.num_elements() * ng * n);
  for (const NodalField* field : fields)
    for (int e = 0; e < disc.num_elements(); ++e)
      for (int g = 0; g < ng; ++g) {
        const double* ph = field->at(e, g);
        out.insert(out.end(), ph, ph + n);
      }
  return out;
}

std::vector<double> solve_with(const snap::Input& input,
                               bool explicit_inverse = false) {
  TransportSolver solver(input);
  if (explicit_inverse)
    solver.enable_preassembly(PreassembledOperator::Mode::ExplicitInverse);
  solver.run();
  return canonical_phi(solver);
}

// The base deck plus the inputs that reach the scalar-flux sum by other
// paths: higher flux moments (nmom > 1), reflective inflow refreshed
// between sweeps, and stored explicit-inverse operators.
struct Variant {
  const char* name;
  snap::Input input;
  bool explicit_inverse = false;
};

std::vector<Variant> variants() {
  snap::Input moments = base_input();
  moments.nmom = 2;
  snap::Input reflective = base_input();
  reflective.twist = 0.0;  // reflection is specular w.r.t. untwisted planes
  using Bc = snap::Input::Bc;
  reflective.boundary = {Bc::Reflective, Bc::Vacuum, Bc::Reflective,
                         Bc::Vacuum,     Bc::Reflective, Bc::Vacuum};
  return {{"base", base_input()},
          {"nmom 2", moments},
          {"reflective", reflective},
          {"explicit-inverse", base_input(), true}};
}

double max_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::fabs(a[i] - b[i]));
  return worst;
}

struct SchemeCase {
  snap::ConcurrencyScheme scheme;
  snap::FluxLayout layout;
};

class SchemeInvariance : public ::testing::TestWithParam<SchemeCase> {};

// The paper's whole Figure 3/4 sweep varies loop order, threading and data
// layout; none of it may change the numbers. Every scheme/layout pairing
// must reproduce the serial reference solution essentially bitwise (the
// sum order inside one (element, group) solve is identical; the
// atomic-angle and angle-batch schemes reorder the scalar-flux reduction
// across angles, so they get a looser rounding allowance). elements-groups
// adds the directions in the serial order after the sweep, so it must
// match exactly.
TEST_P(SchemeInvariance, MatchesSerialReference) {
  for (const Variant& variant : variants()) {
    snap::Input reference = variant.input;
    reference.scheme = snap::ConcurrencyScheme::Serial;
    reference.layout = snap::FluxLayout::AngleElementGroup;
    const std::vector<double> phi_ref =
        solve_with(reference, variant.explicit_inverse);

    snap::Input candidate = variant.input;
    candidate.scheme = GetParam().scheme;
    candidate.layout = GetParam().layout;
    const std::vector<double> phi =
        solve_with(candidate, variant.explicit_inverse);

    switch (GetParam().scheme) {
      case snap::ConcurrencyScheme::ElementsGroups:
        EXPECT_EQ(phi_ref, phi) << variant.name;
        break;
      case snap::ConcurrencyScheme::AnglesAtomic:
      case snap::ConcurrencyScheme::AngleBatch:
        EXPECT_LT(max_diff(phi_ref, phi), 1e-11) << variant.name;
        break;
      default:
        EXPECT_LT(max_diff(phi_ref, phi), 1e-13) << variant.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariance,
    ::testing::Values(
        SchemeCase{snap::ConcurrencyScheme::Serial,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::Elements,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::Elements,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::Groups,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::Groups,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::ElementsGroups,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::ElementsGroups,
                   snap::FluxLayout::AngleGroupElement},
        SchemeCase{snap::ConcurrencyScheme::AnglesAtomic,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::AngleBatch,
                   snap::FluxLayout::AngleElementGroup},
        SchemeCase{snap::ConcurrencyScheme::AngleBatch,
                   snap::FluxLayout::AngleGroupElement}));

class SolverInvariance
    : public ::testing::TestWithParam<linalg::SolverKind> {};

TEST_P(SolverInvariance, MatchesGaussianElimination) {
  snap::Input reference = base_input();
  reference.solver = linalg::SolverKind::GaussianElimination;
  const std::vector<double> phi_ref = solve_with(reference);

  snap::Input candidate = base_input();
  candidate.solver = GetParam();
  const std::vector<double> phi = solve_with(candidate);
  // Different elimination orders differ only by rounding.
  EXPECT_LT(max_diff(phi_ref, phi), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, SolverInvariance,
    ::testing::Values(linalg::SolverKind::GaussianEliminationNoPivot,
                      linalg::SolverKind::LapackLu));

// The default scheme at any thread count, including more threads than the
// sweep has directions (nang 1: 8 directions on 12 threads), must equal
// the serial single-thread reference bitwise.
TEST(ThreadInvariance, ThreadCountDoesNotChangeResults) {
  std::vector<Variant> cases = variants();
  snap::Input one_angle = base_input();
  one_angle.nang = 1;
  cases.push_back({"nang 1", one_angle});
  for (const Variant& variant : cases) {
    snap::Input serial = variant.input;
    serial.scheme = snap::ConcurrencyScheme::Serial;
    serial.num_threads = 1;
    const std::vector<double> reference =
        solve_with(serial, variant.explicit_inverse);
    for (const int threads : {1, 2, 8, 12}) {
      snap::Input input = variant.input;
      input.scheme = snap::ConcurrencyScheme::ElementsGroups;
      input.num_threads = threads;
      EXPECT_EQ(reference, solve_with(input, variant.explicit_inverse))
          << variant.name << " at " << threads << " threads";
    }
  }
}

// ---- element-renumbering invariance -------------------------------------

// Solve the same physical problem under two different element numberings
// (shuffle seeds) and compare flux element-by-element via centroids. The
// mesh geometry, materials and sources are all centroid-derived, so the
// physical problem is identical; only ids and schedule order change.
std::vector<std::array<double, 3>> centroids(const TransportSolver& solver) {
  const Discretization& disc = solver.discretization();
  std::vector<std::array<double, 3>> out(
      static_cast<std::size_t>(disc.num_elements()));
  for (int e = 0; e < disc.num_elements(); ++e) {
    const auto c = disc.mesh().centroid(e);
    out[static_cast<std::size_t>(e)] = {c[0], c[1], c[2]};
  }
  return out;
}

// Max abs difference between the two solutions with element ids matched by
// centroid (exact double equality: both numberings compute centroids from
// bit-identical corner coordinates).
double renumbered_diff(const TransportSolver& a, const TransportSolver& b) {
  const int ng = a.problem().xs.ng;
  const int n = a.discretization().num_nodes();
  const auto ca = centroids(a);
  const auto cb = centroids(b);
  std::map<std::array<double, 3>, int> b_of;
  for (int e = 0; e < b.discretization().num_elements(); ++e)
    b_of[cb[static_cast<std::size_t>(e)]] = e;

  double worst = 0.0;
  for (int ea = 0; ea < a.discretization().num_elements(); ++ea) {
    const auto it = b_of.find(ca[static_cast<std::size_t>(ea)]);
    EXPECT_NE(it, b_of.end()) << "no centroid match for element " << ea;
    if (it == b_of.end()) continue;
    for (int g = 0; g < ng; ++g) {
      const double* pa = a.scalar_flux().at(ea, g);
      const double* pb = b.scalar_flux().at(it->second, g);
      for (int i = 0; i < n; ++i)
        worst = std::max(worst, std::fabs(pa[i] - pb[i]));
    }
  }
  return worst;
}

TEST(RenumberingInvariance, ShuffleSeedDoesNotChangeTheFlux) {
  // Acyclic case: every element sees bit-identical inputs under both
  // numberings, so the solutions agree to rounding.
  snap::Input a = base_input();
  a.shuffle_seed = 31;
  snap::Input b = base_input();
  b.shuffle_seed = 77;
  TransportSolver solver_a(a), solver_b(b);
  solver_a.run();
  solver_b.run();
  EXPECT_LT(renumbered_diff(solver_a, solver_b), 1e-13);
}

TEST(RenumberingInvariance, HoldsUnderSccCycleBreaking) {
  // Cyclic case: the lagged-face tie-break keys on element ids, so the two
  // numberings may lag *different* faces — the iteration path differs but
  // the converged fixed point must not. Compare at the iteration
  // tolerance, not at rounding.
  snap::Input a;
  a.dims = {6, 6, 3};
  a.twist = 2.5;
  a.quadrature = angular::QuadratureKind::Product;
  a.nang = 9;
  a.ng = 1;
  a.mat_opt = 0;
  a.src_opt = 1;
  a.scattering_ratio = 0.0;
  a.cycle_strategy = sweep::CycleStrategy::LagScc;
  a.fixed_iterations = false;
  a.epsi = 1e-10;
  a.iitm = 80;
  a.oitm = 3;
  a.shuffle_seed = 5;
  snap::Input b = a;
  b.shuffle_seed = 444;

  TransportSolver solver_a(a), solver_b(b);
  // The deck must actually exercise the cycle breaker.
  ASSERT_GT(sweep::schedule_set_stats(solver_a.discretization().schedules(), 1)
                .total_lagged,
            0);

  ASSERT_TRUE(solver_a.run().converged);
  ASSERT_TRUE(solver_b.run().converged);
  EXPECT_LT(renumbered_diff(solver_a, solver_b), 1e-6);
}

// With the previous-iterate psi snapshot, lagged faces read well-defined
// data even when both ends of a lagged edge share a bucket — so scheme
// and thread count must not change a cycle-broken sweep's numbers at all.
TEST(TwistedLagInvariance, SchemesAndThreadsBitwiseEqualUnderLagging) {
  snap::Input reference;
  reference.dims = {6, 6, 3};
  reference.twist = 2.5;
  reference.quadrature = angular::QuadratureKind::Product;
  reference.nang = 9;
  reference.ng = 2;
  reference.mat_opt = 0;
  reference.src_opt = 1;
  reference.scattering_ratio = 0.3;
  reference.cycle_strategy = sweep::CycleStrategy::LagScc;
  reference.iitm = 4;
  reference.oitm = 1;
  reference.scheme = snap::ConcurrencyScheme::Serial;
  reference.num_threads = 1;
  const std::vector<double> phi_ref = solve_with(reference);

  for (const snap::ConcurrencyScheme scheme :
       {snap::ConcurrencyScheme::Elements,
        snap::ConcurrencyScheme::ElementsGroups}) {
    for (const int threads : {2, 8}) {
      snap::Input candidate = reference;
      candidate.scheme = scheme;
      candidate.num_threads = threads;
      const std::vector<double> phi = solve_with(candidate);
      if (scheme == snap::ConcurrencyScheme::ElementsGroups)
        EXPECT_EQ(phi_ref, phi) << threads << " threads";
      else
        EXPECT_LT(max_diff(phi_ref, phi), 1e-13)
            << snap::to_string(scheme) << " x " << threads << " threads";
    }
  }

  // AngleBatch is the twisted scenario's default scheme, so its lagged
  // reads must be covered too: bitwise thread-invariant against itself,
  // and equal to serial up to the angle-accumulation reorder batching
  // introduces.
  snap::Input batched = reference;
  batched.scheme = snap::ConcurrencyScheme::AngleBatch;
  batched.num_threads = 2;
  const std::vector<double> phi_batch = solve_with(batched);
  batched.num_threads = 8;
  EXPECT_LT(max_diff(phi_batch, solve_with(batched)), 1e-13)
      << "angle-batch not thread-invariant under lagging";
  EXPECT_LT(max_diff(phi_ref, phi_batch), 1e-11);
}

TEST(QuadratureInvariance, ProductQuadratureAlsoConsistent) {
  // Not equality across quadratures (different ordinates), but each
  // quadrature must itself be scheme-invariant.
  snap::Input a = base_input();
  a.quadrature = angular::QuadratureKind::Product;
  a.nang = 4;
  a.scheme = snap::ConcurrencyScheme::Serial;
  snap::Input b = a;
  b.scheme = snap::ConcurrencyScheme::ElementsGroups;
  b.layout = snap::FluxLayout::AngleGroupElement;
  EXPECT_LT(max_diff(solve_with(a), solve_with(b)), 1e-13);
}

}  // namespace
}  // namespace unsnap::core
