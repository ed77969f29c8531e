// Property sweeps over the CDR configuration space: invariants that must
// hold for *every* valid configuration, exercised with parameterized tests.
#include <cmath>
#include <numeric>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "cdr/measures.hpp"
#include "cdr/model.hpp"
#include "markov/classify.hpp"
#include "support/math.hpp"

namespace stocdr::cdr {
namespace {

struct Sweep {
  std::size_t phase_points;
  std::size_t vco_phases;
  std::size_t counter_length;
  FilterType filter;
  double sigma_nw;
  double drift;
  double dead_zone;
};

std::string sweep_label(const Sweep& s) {
  std::string name = "M" + std::to_string(s.phase_points) + "_V" +
                     std::to_string(s.vco_phases) + "_N" +
                     std::to_string(s.counter_length) +
                     (s.filter == FilterType::kUpDownCounter ? "_ctr" : "_vote");
  name += "_s" + std::to_string(static_cast<int>(s.sigma_nw * 1000));
  name += "_d" + std::to_string(static_cast<int>(s.drift * 1000));
  if (s.dead_zone > 0) {
    name += "_dz" + std::to_string(static_cast<int>(s.dead_zone * 1000));
  }
  return name;
}

std::string sweep_name(const ::testing::TestParamInfo<Sweep>& info) {
  return sweep_label(info.param);
}

/// gtest puts the parameter into the test name; without this it would
/// print the struct's raw bytes, padding included.
void PrintTo(const Sweep& sweep, std::ostream* os) {
  *os << sweep_label(sweep);
}

class CdrPropertyTest : public ::testing::TestWithParam<Sweep> {
 protected:
  CdrConfig make_config() const {
    const Sweep& s = GetParam();
    CdrConfig config;
    config.phase_points = s.phase_points;
    config.vco_phases = s.vco_phases;
    config.counter_length = s.counter_length;
    config.filter_type = s.filter;
    config.sigma_nw = s.sigma_nw;
    config.nr_mean = s.drift;
    config.nr_max = 3.0 * s.drift;
    config.nr_atoms = 5;
    config.max_run_length = 4;
    config.pd_dead_zone = s.dead_zone;
    return config;
  }
};

TEST_P(CdrPropertyTest, InvariantsHold) {
  const CdrConfig config = make_config();
  const CdrModel model(config);
  const CdrChain chain = model.build();

  // 1. The TPM is properly stochastic over the reachable set.
  EXPECT_LT(chain.chain().stochasticity_defect(), 1e-9);

  // 2. The reachable chain has exactly one recurrent class (the loop always
  //    settles into a single stochastic steady state).
  const markov::ChainStructure structure = markov::classify(chain.chain());
  EXPECT_EQ(structure.num_recurrent_classes, 1u);

  // 3. The multilevel solver converges and produces a distribution.
  solvers::MultilevelOptions options;
  options.tolerance = 1e-10;
  const auto result = solve_stationary(chain, options);
  EXPECT_TRUE(result.stats.converged);
  double total = 0.0;
  for (const double v : result.distribution) {
    EXPECT_GE(v, -1e-15);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);

  // 4. Measures are finite, bounded, and mutually consistent.
  const double ber = bit_error_rate(model, chain, result.distribution);
  EXPECT_GE(ber, 0.0);
  EXPECT_LE(ber, 1.0);
  const SlipStats slips = slip_stats(model, chain, result.distribution);
  EXPECT_GE(slips.rate_up, 0.0);
  EXPECT_GE(slips.rate_down, 0.0);
  EXPECT_LE(slips.rate(), 1.0);
  const auto moments = phase_error_moments(model, chain, result.distribution);
  EXPECT_LE(std::abs(moments.mean), 0.5);
  EXPECT_LE(moments.rms, 0.5);
  EXPECT_GE(moments.rms, std::abs(moments.mean) - 1e-12);

  // 5. The marginal respects the grid size and sums to 1.
  const auto marginal = phase_marginal(chain, result.distribution);
  EXPECT_LE(marginal.size(), model.grid().size());
  EXPECT_NEAR(std::accumulate(marginal.begin(), marginal.end(), 0.0), 1.0,
              1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSpace, CdrPropertyTest,
    ::testing::Values(
        Sweep{64, 8, 2, FilterType::kUpDownCounter, 0.05, 0.01, 0.0},
        Sweep{64, 8, 4, FilterType::kUpDownCounter, 0.12, 0.01, 0.0},
        Sweep{64, 16, 3, FilterType::kUpDownCounter, 0.05, 0.01, 0.0},
        Sweep{128, 8, 3, FilterType::kUpDownCounter, 0.03, 0.005, 0.0},
        Sweep{64, 8, 3, FilterType::kMajorityVote, 0.05, 0.01, 0.0},
        Sweep{64, 8, 5, FilterType::kMajorityVote, 0.1, 0.01, 0.0},
        Sweep{64, 8, 3, FilterType::kUpDownCounter, 0.05, 0.01, 0.05},
        Sweep{64, 8, 1, FilterType::kUpDownCounter, 0.08, 0.02, 0.0},
        // Drift-free loop (pure n_w hunting).
        Sweep{64, 8, 3, FilterType::kUpDownCounter, 0.06, 0.01, 0.02}),
    sweep_name);

TEST(SlipDirectionTest, FollowsDriftSign) {
  CdrConfig config;
  config.phase_points = 64;
  config.vco_phases = 8;
  config.counter_length = 6;
  config.sigma_nw = 0.08;
  config.nr_mean = 0.02;  // strong positive drift
  config.nr_max = 0.06;
  config.max_run_length = 3;
  const CdrModel model(config);
  const CdrChain chain = model.build();
  const auto eta = solve_stationary(chain).distribution;
  const SlipDirection direction =
      slip_direction_probability(model, chain, eta, 0.4);
  EXPECT_TRUE(direction.stats.converged);
  // Positive drift: the loop almost always loses bits across +1/2 UI.
  EXPECT_GT(direction.probability_up, 0.9);

  CdrConfig negative = config;
  negative.nr_mean = -config.nr_mean;
  const CdrModel model_n(negative);
  const CdrChain chain_n = model_n.build();
  const auto eta_n = solve_stationary(chain_n).distribution;
  const SlipDirection direction_n =
      slip_direction_probability(model_n, chain_n, eta_n, 0.4);
  EXPECT_LT(direction_n.probability_up, 0.1);
}

TEST(SlipDirectionTest, ConsistentWithFluxRatio) {
  CdrConfig config;
  config.phase_points = 64;
  config.vco_phases = 8;
  config.counter_length = 8;
  config.sigma_nw = 0.1;
  config.nr_mean = 0.015;
  config.nr_max = 0.045;
  config.max_run_length = 3;
  const CdrModel model(config);
  const CdrChain chain = model.build();
  const auto eta = solve_stationary(chain).distribution;
  const SlipStats flux = slip_stats(model, chain, eta);
  ASSERT_GT(flux.rate(), 1e-12);
  const SlipDirection direction =
      slip_direction_probability(model, chain, eta, 0.45);
  // Both views must agree on the dominant direction.
  EXPECT_EQ(flux.rate_up > flux.rate_down,
            direction.probability_up > 0.5);
}

}  // namespace
}  // namespace stocdr::cdr
