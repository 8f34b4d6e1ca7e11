#include "checks.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace perfbench {
namespace {

std::string format(const char* fmt, double a, double b, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string bucket_sum(const char* name, const std::vector<double>& groups,
                       double total, double scale) {
  if (groups.empty()) return "";
  const double sum = std::accumulate(groups.begin(), groups.end(), 0.0);
  if (std::abs(sum - total) <= 1e-10 * scale) return "";
  return std::string("balance: group ") + name +
         format(" buckets sum to %.17g, total is %.17g", sum, total);
}

}  // namespace

std::string check_balance(const unsnap::core::BalanceReport& b, double epsi) {
  const double production = b.source + b.inflow + b.fission;
  if (!(production > 0.0)) return "balance: no production in the ledger";
  const double residual =
      b.source + b.inflow + b.fission - b.absorption - b.leakage;
  const double relative = residual / production;
  if (!(std::abs(relative) <= kBalanceFactor * epsi))
    return format("balance: relative residual %.3e exceeds %.3e", relative,
                  kBalanceFactor * epsi);
  for (const std::string& err :
       {bucket_sum("source", b.group_source, b.source, production),
        bucket_sum("inflow", b.group_inflow, b.inflow, production),
        bucket_sum("fission", b.group_fission, b.fission, production),
        bucket_sum("absorption", b.group_absorption, b.absorption,
                   production),
        bucket_sum("leakage", b.group_leakage, b.leakage, production)})
    if (!err.empty()) return err;
  return "";
}

std::string check_digest_equal(const Digest& a, const Digest& b) {
  if (a.group_averages.size() != b.group_averages.size())
    return "digest: group counts differ";
  for (std::size_t g = 0; g < a.group_averages.size(); ++g)
    if (!same_bits(a.group_averages[g], b.group_averages[g]))
      return format("digest: group %.0f average %.17g != %.17g",
                    static_cast<double>(g), a.group_averages[g],
                    b.group_averages[g]);
  if (!same_bits(a.min, b.min))
    return format("digest: min %.17g != %.17g", a.min, b.min);
  if (!same_bits(a.max, b.max))
    return format("digest: max %.17g != %.17g", a.max, b.max);
  if (!same_bits(a.total, b.total))
    return format("digest: total %.17g != %.17g", a.total, b.total);
  return "";
}

std::string check_digest_close(const Digest& a, const Digest& b, double tol) {
  if (a.group_averages.size() != b.group_averages.size())
    return "digest: group counts differ";
  std::vector<double> va = a.group_averages, vb = b.group_averages;
  va.insert(va.end(), {a.min, a.max, a.total});
  vb.insert(vb.end(), {b.min, b.max, b.total});
  for (std::size_t i = 0; i < va.size(); ++i) {
    const double scale = std::max(std::abs(va[i]), std::abs(vb[i]));
    if (!(std::abs(va[i] - vb[i]) <= tol * scale))
      return format("digest: %.17g and %.17g differ by more than %.1e",
                    va[i], vb[i], tol);
  }
  return "";
}

std::string check_k_history_equal(const std::vector<double>& a,
                                  const std::vector<double>& b) {
  if (a.size() != b.size())
    return format("k history: %.0f outers vs %.0f",
                  static_cast<double>(a.size()),
                  static_cast<double>(b.size()));
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i]))
      return format("k history: outer %.0f k %.17g != %.17g",
                    static_cast<double>(i), a[i], b[i]);
  return "";
}

double closed_form_k_inf(const unsnap::xs::Library& lib,
                         const std::string& material) {
  const int idx = lib.index_of(material);
  if (idx < 0) throw std::runtime_error("k_inf: no material " + material);
  const unsnap::xs::Material& m =
      lib.materials[static_cast<std::size_t>(idx)];
  if (!m.fissile()) throw std::runtime_error("k_inf: " + material +
                                             " is not fissile");
  const int ng = lib.ng;
  const auto n = static_cast<std::size_t>(ng);
  // Row g of (T - S0) phi = chi: sigt_g phi_g - sum_g' s(g' -> g) phi_g'.
  std::vector<double> a(n * n, 0.0), phi(m.chi.begin(), m.chi.end());
  for (int g = 0; g < ng; ++g) {
    a[static_cast<std::size_t>(g) * n + static_cast<std::size_t>(g)] +=
        m.sigt[static_cast<std::size_t>(g)];
    for (int gp = 0; gp < ng; ++gp)
      a[static_cast<std::size_t>(g) * n + static_cast<std::size_t>(gp)] -=
          m.sigs(0, gp, g);
  }
  // Gaussian elimination with partial pivoting (ng is a handful).
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < n; ++r)
      if (std::abs(a[r * n + c]) > std::abs(a[p * n + c])) p = r;
    if (a[p * n + c] == 0.0)
      throw std::runtime_error("k_inf: singular removal matrix");
    for (std::size_t j = 0; j < n; ++j) std::swap(a[c * n + j], a[p * n + j]);
    std::swap(phi[c], phi[p]);
    for (std::size_t r = c + 1; r < n; ++r) {
      const double f = a[r * n + c] / a[c * n + c];
      for (std::size_t j = c; j < n; ++j) a[r * n + j] -= f * a[c * n + j];
      phi[r] -= f * phi[c];
    }
  }
  for (std::size_t c = n; c-- > 0;) {
    for (std::size_t j = c + 1; j < n; ++j) phi[c] -= a[c * n + j] * phi[j];
    phi[c] /= a[c * n + c];
  }
  double k = 0.0;
  for (std::size_t g = 0; g < n; ++g) k += m.nu_sigf[g] * phi[g];
  return k;
}

std::string check_k(double k, double expected) {
  if (std::abs(k - expected) <= kKTolerance) return "";
  return format("k: %.17g differs from the closed form %.17g", k, expected);
}

std::string check_mms_order(double coarse_error, double fine_error,
                            int order) {
  const double bound = kMmsSlack * std::pow(2.0, order + 1);
  if (!(coarse_error > 0.0 && fine_error > 0.0))
    return "mms: non-positive L2 error";
  const double ratio = coarse_error / fine_error;
  if (ratio >= bound) return "";
  return format("mms: error ratio %.3f below the order-%.0f bound %.3f",
                ratio, static_cast<double>(order), bound);
}

Digest digest_from_json(const unsnap::util::JsonValue& flux) {
  Digest d;
  for (const unsnap::util::JsonValue& v : flux.at("group_averages").items())
    d.group_averages.push_back(v.as_number());
  d.min = flux.get_number("min");
  d.max = flux.get_number("max");
  d.total = flux.get_number("total");
  return d;
}

}  // namespace perfbench
