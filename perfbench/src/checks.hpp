#pragma once

// Correctness checks of the benchmark. Each takes plain program outputs
// and returns an empty string when they pass, otherwise a one-line reason.
// They compare against properties of the method (balance, convergence
// order, closed forms) or against an independent second computation, never
// against stored copies of an earlier output. selftest/selftest.cpp feeds
// each one a wrong output to show it can fail.

#include <string>
#include <vector>

#include "api/run.hpp"
#include "util/json_parse.hpp"
#include "xs/library.hpp"

namespace perfbench {

using Digest = unsnap::api::RunRecord::FluxDigest;

/// Particle balance recomputed from the ledger terms: source + inflow +
/// fission - absorption - leakage, relative to production, within
/// kBalanceFactor * epsi; every per-group bucket list sums to its total.
inline constexpr double kBalanceFactor = 10.0;
[[nodiscard]] std::string check_balance(const unsnap::core::BalanceReport& b,
                                        double epsi);

/// Bitwise equality of two flux digests (thread ladder, served vs
/// in-process, repeated solves of one deck).
[[nodiscard]] std::string check_digest_equal(const Digest& a,
                                             const Digest& b);

/// Digest agreement within a relative tolerance (cross-solver paths).
[[nodiscard]] std::string check_digest_close(const Digest& a,
                                             const Digest& b, double tol);

/// Bitwise equality of two k histories.
[[nodiscard]] std::string check_k_history_equal(const std::vector<double>& a,
                                                const std::vector<double>& b);

/// Infinite-medium eigenvalue of one library material from its own
/// numbers: k_inf = nu_sigf . (T - S0)^-1 chi, with T the diagonal of
/// totals and S0 the l = 0 group-to-group transfer matrix.
[[nodiscard]] double closed_form_k_inf(const unsnap::xs::Library& lib,
                                       const std::string& material);

/// |k - expected| <= kKTolerance.
inline constexpr double kKTolerance = 1e-8;
[[nodiscard]] std::string check_k(double k, double expected);

/// Manufactured-solution convergence: halving h must cut the L2 error by
/// at least kMmsSlack * 2^(order + 1).
inline constexpr double kMmsSlack = 0.9;
[[nodiscard]] std::string check_mms_order(double coarse_error,
                                          double fine_error, int order);

/// The `flux` block of a served RunRecord JSON as a digest (the record
/// prints doubles with %.17g, so the parse is exact).
[[nodiscard]] Digest digest_from_json(const unsnap::util::JsonValue& flux);

}  // namespace perfbench
