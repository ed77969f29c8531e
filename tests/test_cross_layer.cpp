// Cross-layer integration checks: pieces from different subsystems composed
// the way a downstream user would combine them.
#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "analysis/autocorrelation.hpp"
#include "analysis/eigen.hpp"
#include "cdr/measures.hpp"
#include "cdr/model.hpp"
#include "markov/classify.hpp"
#include "markov/ctmc.hpp"
#include "solvers/aggregation.hpp"
#include "solvers/stationary.hpp"

namespace stocdr {
namespace {

TEST(CrossLayerTest, CtmcUniformizationSolvedByMultilevel) {
  // A 512-state birth-death CTMC (M/M/1/K-like), uniformized and handed to
  // the multigrid stationary solver with a grid hierarchy: the result must
  // match the closed-form geometric distribution of the embedded rates.
  const std::size_t n = 512;
  std::vector<std::tuple<std::size_t, std::size_t, double>> rates;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rates.emplace_back(i, i + 1, 2.0);
    rates.emplace_back(i + 1, i, 2.2);
  }
  const markov::Ctmc ctmc = markov::Ctmc::from_rates(n, rates);
  const markov::MarkovChain chain = ctmc.uniformize();

  std::vector<std::uint32_t> grid(n), label(n, 0);
  for (std::size_t i = 0; i < n; ++i) grid[i] = static_cast<std::uint32_t>(i);
  const auto hierarchy = solvers::build_grid_pair_hierarchy(grid, label, 8);
  solvers::MultilevelOptions options;
  options.tolerance = 1e-12;
  options.coarsest_size = 8;
  const auto result =
      solvers::solve_stationary_multilevel(chain, hierarchy, options);
  EXPECT_TRUE(result.stats.converged);

  // Stationary: geometric with ratio lambda/mu = 2.0/2.2.
  const double r = 2.0 / 2.2;
  EXPECT_NEAR(result.distribution[1] / result.distribution[0], r, 1e-9);
  EXPECT_NEAR(result.distribution[100] / result.distribution[99], r, 1e-9);
}

TEST(CrossLayerTest, SaturatingCdrChainRecurrentClassIsSolvable) {
  // With a saturating boundary and a drift, some reachable lock-in states
  // can be transient; classify + restrict_to_recurrent must produce a
  // proper stochastic chain whose stationary distribution matches solving
  // the full reachable chain.
  cdr::CdrConfig config;
  config.phase_points = 64;
  config.vco_phases = 8;
  config.counter_length = 3;
  config.sigma_nw = 0.05;
  config.nr_mean = 0.01;
  config.nr_max = 0.03;
  config.max_run_length = 3;
  config.boundary = cdr::BoundaryMode::kSaturate;
  const cdr::CdrModel model(config);
  const cdr::CdrChain chain = model.build();

  const markov::ChainStructure structure = markov::classify(chain.chain());
  ASSERT_EQ(structure.num_recurrent_classes, 1u);
  const markov::RestrictedChain recurrent =
      markov::restrict_to_recurrent(chain.chain());
  const markov::MarkovChain closed(recurrent.qt);
  EXPECT_LT(closed.stochasticity_defect(), 1e-12);

  // Solve both; the full chain's stationary mass lives entirely on the
  // recurrent class and agrees state-by-state.
  const auto eta_full = cdr::solve_stationary(chain).distribution;
  const auto eta_rec = solvers::solve_stationary_power(
                           closed, {.tolerance = 1e-12,
                                    .max_iterations = 500000,
                                    .relaxation = 1.0})
                           .distribution;
  double l1 = 0.0;
  for (std::size_t i = 0; i < recurrent.to_parent.size(); ++i) {
    l1 += std::abs(eta_full[recurrent.to_parent[i]] - eta_rec[i]);
  }
  EXPECT_LT(l1, 1e-8);
  // Transient states carry no stationary mass.
  for (std::size_t i = 0; i < chain.num_states(); ++i) {
    if (!structure.recurrent[i]) {
      EXPECT_LT(eta_full[i], 1e-10);
    }
  }
}

TEST(CrossLayerTest, MixingStepsConsistentWithLambda2) {
  // The subdominant eigenvalue's implied memory and the empirical slip of
  // the autocovariance must agree in order of magnitude on a CDR chain.
  cdr::CdrConfig config;
  config.phase_points = 64;
  config.vco_phases = 8;
  config.counter_length = 4;
  config.sigma_nw = 0.08;
  config.nr_mean = 0.005;
  config.nr_max = 0.015;
  config.max_run_length = 3;
  const cdr::CdrModel model(config);
  const cdr::CdrChain chain = model.build();
  const auto eta = cdr::solve_stationary(chain).distribution;

  // Near-degenerate |lambda_2| ~ |lambda_3| pairs make the magnitude
  // estimate beat slowly; a modest tolerance converges robustly.
  const auto lambda2 = analysis::subdominant_eigenvalue(
      chain.chain(), eta, 1e-5, 200000);
  ASSERT_TRUE(lambda2.converged);
  ASSERT_GT(lambda2.magnitude, 0.0);
  ASSERT_LT(lambda2.magnitude, 1.0);

  std::vector<double> f(chain.num_states());
  for (std::size_t i = 0; i < f.size(); ++i) {
    f[i] = model.grid().value(chain.phase_coordinate()[i]);
  }
  const auto cov =
      analysis::autocovariance(chain.chain(), eta, f, 200);
  // Asymptotically the autocovariance decays at |lambda_2|^k; compare the
  // decay over lags 100 -> 150 (deep enough for the dominant mode).
  ASSERT_GT(cov[100], 0.0);
  ASSERT_GT(cov[150], 0.0);
  const double measured = std::pow(cov[150] / cov[100], 1.0 / 50.0);
  EXPECT_NEAR(measured, lambda2.magnitude, 0.05);
}

}  // namespace
}  // namespace stocdr
