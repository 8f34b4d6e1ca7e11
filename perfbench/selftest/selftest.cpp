// Shows that every correctness check of the benchmark can fail: each is
// fed one right output, which must pass, and one wrong output, which must
// be rejected. Exit status 0 only when all of them behave.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "decks.hpp"

namespace {

int failures = 0;

void expect(const char* what, const std::string& right,
            const std::string& wrong) {
  const bool ok = right.empty() && !wrong.empty();
  std::printf("%-40s %s  (wrong output: %s)\n", what, ok ? "ok" : "FAIL",
              wrong.empty() ? "accepted" : wrong.c_str());
  if (!right.empty()) std::printf("  right output rejected: %s\n", right.c_str());
  failures += ok ? 0 : 1;
}

unsnap::core::BalanceReport closed_ledger() {
  unsnap::core::BalanceReport b;
  b.source = 1.0;
  b.inflow = 0.25;
  b.absorption = 0.75;
  b.leakage = 0.5;
  b.group_source = {0.5, 0.5};
  b.group_inflow = {0.125, 0.125};
  b.group_fission = {0.0, 0.0};
  b.group_absorption = {0.25, 0.5};
  b.group_leakage = {0.375, 0.125};
  return b;
}

}  // namespace

int main() {
  using namespace perfbench;
  const double epsi = 1e-5;

  unsnap::core::BalanceReport perturbed = closed_ledger();
  perturbed.absorption *= 1.0 + 1e-3;
  expect("balance: one term perturbed by 1e-3",
         check_balance(closed_ledger(), epsi),
         check_balance(perturbed, epsi));

  unsnap::core::BalanceReport bucket = closed_ledger();
  bucket.group_leakage[1] *= 1.0 + 1e-6;
  expect("balance: one group bucket off",
         check_balance(closed_ledger(), epsi), check_balance(bucket, epsi));

  Digest digest{{0.027640569518416, 0.011667542448896168},
                4.956382972539617e-05, 0.14195407285397918,
                2.5157191542611135};
  Digest ulp = digest;
  ulp.total = std::nextafter(ulp.total, 1.0e300);
  expect("digest: total one ulp off", check_digest_equal(digest, digest),
         check_digest_equal(digest, ulp));
  Digest group_ulp = digest;
  group_ulp.group_averages[1] = std::nextafter(group_ulp.group_averages[1], 0.0);
  expect("digest: group average one ulp off",
         check_digest_equal(digest, digest),
         check_digest_equal(digest, group_ulp));

  Digest far = digest;
  far.max *= 1.0 + 1e-6;
  expect("digest: cross-path 1e-6 apart at 1e-9",
         check_digest_close(digest, ulp, 1e-9),
         check_digest_close(digest, far, 1e-9));

  const std::vector<double> history = {0.97, 0.9812, 0.6803343345298424};
  std::vector<double> history_ulp = history;
  history_ulp.back() = std::nextafter(history_ulp.back(), 1.0);
  expect("k history: last k one ulp off",
         check_k_history_equal(history, history),
         check_k_history_equal(history, history_ulp));

  const double k_inf = closed_form_k_inf(
      unsnap::xs::read_library_file(kCriticalityLibrary), "fuel");
  std::printf("closed-form k_inf of the fuel: %.17g\n", k_inf);
  expect("k: off by 1e-6 from the closed form",
         check_k(0.9999999999832095, k_inf), check_k(k_inf + 1e-6, k_inf));

  // Order-2 MMS errors measured on 2^3 and 4^3, and a pair that only
  // converges at first order.
  expect("mms: ratio below the order bound",
         check_mms_order(0.006159582207784024, 0.0006940873665583644, 2),
         check_mms_order(0.006159582207784024, 0.0015, 2));

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
