// Section 1/2 claim: "Such specifications are practically impossible to
// verify through straightforward simulation because of the extremely long
// sequence that would need to be simulated in order to get meaningful error
// statistics."
//
// Sweeps the eye-opening jitter from a heavily closed eye (events frequent:
// simulation and analysis agree) down to the design operating point (the
// analysis reports BERs far below anything a fixed simulation budget can
// even bound), and reports the trial counts straightforward Monte Carlo
// would need.
#include <cstdio>

#include "common.hpp"
#include "sim/cdr_sim.hpp"

int main() {
  using namespace stocdr;
  std::printf("=== Monte-Carlo simulation vs Markov-chain analysis ===\n\n");
  constexpr std::uint64_t kBudget = 2'000'000;  // simulated bits per point
  std::printf("simulation budget: %llu bits per operating point\n\n",
              static_cast<unsigned long long>(kBudget));

  TextTable table({"STDnw", "analytic BER", "MC BER", "MC 95% interval",
                   "errors", "trials needed (10% rel.err)"});
  for (const double sigma : {0.20, 0.15, 0.12, 0.08, 0.05, 0.03, 0.012}) {
    cdr::CdrConfig config = bench::paper_baseline();
    config.phase_points = 256;  // faster; BER shape unchanged
    config.sigma_nw = sigma;
    const bench::SolvedCase solved(config);

    sim::CdrSimulator simulator(solved.model, 20260706);
    const auto mc = simulator.run(kBudget, 50'000);
    const auto ci = mc.ber();
    char interval[64];
    std::snprintf(interval, sizeof interval, "[%s, %s]",
                  sci(ci.lower, 1).c_str(), sci(ci.upper, 1).c_str());
    table.add_row(
        {sci(sigma, 1), sci(solved.ber, 2), sci(ci.estimate, 2), interval,
         std::to_string(mc.bit_errors),
         solved.ber > 0.0 ? sci(sim::required_trials(solved.ber), 1)
                          : "n/a"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nreading: where events are frequent the Wilson interval brackets\n"
      "the analytic value (cross-validation); at the design operating point\n"
      "the simulator sees zero errors while the analysis still resolves the\n"
      "BER — verifying a 1e-12 spec by simulation would need ~1e14 bits.\n");
  return 0;
}
