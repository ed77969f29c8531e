// Property sweeps over the CDR configuration space: invariants that must
// hold for *every* valid configuration, exercised with parameterized tests.
#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "cdr/kron_model.hpp"
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
  const auto milli = [](double v) {
    return std::to_string(static_cast<int>(v * 1000));
  };
  std::string name = "M";
  name += std::to_string(s.phase_points);
  name += "_V";
  name += std::to_string(s.vco_phases);
  name += "_N";
  name += std::to_string(s.counter_length);
  name += s.filter == FilterType::kUpDownCounter ? "_ctr" : "_vote";
  name += "_s";
  name += milli(s.sigma_nw);
  name += "_d";
  name += milli(s.drift);
  if (s.dead_zone > 0) {
    name += "_dz";
    name += milli(s.dead_zone);
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

// --- mirror relation ---------------------------------------------------------
//
// The model is symmetric under Phi -> -Phi once the drift changes sign: the
// data, the phase detector, the filter and n_w are all symmetric about 0.
// Negating nr_mean must therefore leave BER and the rms phase error
// unchanged, negate the static phase offset, and swap the slip fluxes up and
// down.  A discretization that keeps this relation (n_r quantization among
// them) keeps these checks green.

/// A tail measure is resolvable only above this multiple of the larger L1
/// residual of the two solves compared: both stationary vectors are within
/// about (mixing time) x residual of the exact one in L1.  The same
/// resolution floor as perfbench's differential oracle.
constexpr double kFloorFactor = 1e5;
/// Solved past the default 1e-12 so the floor sits well below the BER.
constexpr double kTolerance = 1e-14;

enum class Representation { kExplicit, kKronecker };

struct MirrorCase {
  Representation representation;
  std::size_t phase_points;
  double drift;
};

std::string mirror_label(const MirrorCase& c) {
  std::string drift = std::to_string(c.drift).substr(0, 5);  // "0.003"
  std::replace(drift.begin(), drift.end(), '.', '_');
  return std::string(c.representation == Representation::kExplicit
                         ? "explicit"
                         : "kronecker") +
         "_M" + std::to_string(c.phase_points) + "_drift" + drift;
}

void PrintTo(const MirrorCase& c, std::ostream* os) { *os << mirror_label(c); }

struct MirrorMeasures {
  double ber = 0.0;
  double mean = 0.0;
  double rms = 0.0;
  double up = 0.0;
  double down = 0.0;
  double residual = 0.0;
};

MirrorMeasures solve_measures(Representation representation,
                              const CdrConfig& config) {
  const CdrModel model(config);
  MirrorMeasures out;
  if (representation == Representation::kExplicit) {
    const CdrChain chain = model.build();
    solvers::MultilevelOptions options;
    options.tolerance = kTolerance;
    const solvers::StationaryResult result = solve_stationary(chain, options);
    EXPECT_TRUE(result.stats.converged) << config.summary();
    const std::vector<double>& eta = result.distribution;
    const PhaseErrorMoments moments = phase_error_moments(model, chain, eta);
    const SlipStats slips = slip_stats(model, chain, eta);
    out = {bit_error_rate(model, chain, eta), moments.mean, moments.rms,
           slips.rate_up, slips.rate_down, result.stats.residual};
  } else {
    const KroneckerCdrModel kron(model);
    robust::RobustOptions options;
    options.tolerance = kTolerance;
    const robust::RobustResult result = solve_stationary_robust(kron, options);
    EXPECT_TRUE(result.report.converged) << config.summary();
    const std::vector<double>& eta = result.distribution;
    const PhaseErrorMoments moments = kron.phase_error_moments(eta);
    const SlipStats slips = kron.slip_stats(eta);
    out = {kron.bit_error_rate(eta), moments.mean, moments.rms,
           slips.rate_up, slips.rate_down, result.report.residual};
  }
  return out;
}

class MirrorTest : public ::testing::TestWithParam<MirrorCase> {};

TEST_P(MirrorTest, NegatedDriftMirrorsTheMeasures) {
  const MirrorCase& c = GetParam();
  CdrConfig config;
  config.phase_points = c.phase_points;
  config.counter_length = 4;
  config.sigma_nw = 0.08;
  config.nr_mean = c.drift;
  CdrConfig mirrored = config;
  mirrored.nr_mean = -c.drift;

  const MirrorMeasures pos = solve_measures(c.representation, config);
  const MirrorMeasures neg = solve_measures(c.representation, mirrored);
  const double floor = kFloorFactor * std::max(pos.residual, neg.residual);
  SCOPED_TRACE("resolution floor " + std::to_string(floor));

  // The relation below is only a check where the measures are resolved.
  ASSERT_GT(pos.ber, floor);
  ASSERT_GT(std::abs(pos.mean), floor);

  EXPECT_NEAR(pos.ber, neg.ber, floor);
  EXPECT_NEAR(pos.rms, neg.rms, floor);
  EXPECT_NEAR(pos.mean, -neg.mean, floor);
  // Slip flux swaps direction.  A flux below the floor is unresolved, so
  // there only the larger direction must flip.
  if (std::max(pos.up, neg.down) > floor) {
    EXPECT_NEAR(pos.up, neg.down, floor);
  }
  if (std::max(pos.down, neg.up) > floor) {
    EXPECT_NEAR(pos.down, neg.up, floor);
  }
  EXPECT_NE(pos.up, pos.down);
  EXPECT_EQ(pos.up > pos.down, neg.down > neg.up)
      << "up:down " << pos.up << ":" << pos.down << " vs mirrored "
      << neg.up << ":" << neg.down;
}

INSTANTIATE_TEST_SUITE_P(
    DriftSign, MirrorTest,
    ::testing::Values(MirrorCase{Representation::kExplicit, 256, 0.003},
                      MirrorCase{Representation::kExplicit, 256, 0.005},
                      MirrorCase{Representation::kExplicit, 512, 0.003},
                      MirrorCase{Representation::kExplicit, 512, 0.005},
                      MirrorCase{Representation::kKronecker, 256, 0.003},
                      MirrorCase{Representation::kKronecker, 256, 0.005}),
    [](const ::testing::TestParamInfo<MirrorCase>& info) {
      return mirror_label(info.param);
    });

}  // namespace
}  // namespace stocdr::cdr
