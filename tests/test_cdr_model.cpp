#include "cdr/model.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "markov/reachability.hpp"
#include "solvers/stationary.hpp"
#include "support/error.hpp"

namespace stocdr::cdr {
namespace {

CdrConfig small_config() {
  CdrConfig config;
  config.phase_points = 64;
  config.vco_phases = 8;
  config.counter_length = 3;
  config.sigma_nw = 0.05;
  config.nr_mean = 0.01;
  config.nr_max = 0.03;
  config.nr_atoms = 5;
  config.max_run_length = 3;
  return config;
}

TEST(CdrModelTest, NetworkShape) {
  const CdrModel model(small_config());
  EXPECT_EQ(model.network().num_components(), 5u);
  EXPECT_EQ(model.network().component(model.data_index()).name(), "data");
  EXPECT_EQ(model.network().component(model.phase_index()).name(), "phase");
  EXPECT_EQ(model.network().component(model.counter_index()).name(),
            "counter");
  EXPECT_THROW((void)model.nw_source_index(), PreconditionError);  // exact mode
}

TEST(CdrModelTest, BuildProducesValidChain) {
  const CdrModel model(small_config());
  const CdrChain chain = model.build();
  EXPECT_GT(chain.num_states(), 100u);
  EXPECT_LT(chain.chain().stochasticity_defect(), 1e-9);
  EXPECT_GE(chain.form_seconds(), 0.0);
  // Annotations cover every state and the label ids are gap-free.
  std::set<std::uint32_t> labels(chain.other_label().begin(),
                                 chain.other_label().end());
  EXPECT_EQ(*labels.rbegin() + 1, labels.size());
  // Phase coordinates agree with the composed bookkeeping.
  for (std::size_t i = 0; i < chain.num_states(); i += 37) {
    EXPECT_EQ(chain.phase_coordinate()[i],
              chain.composed().coordinate(i, model.phase_index()));
  }
}

TEST(CdrModelTest, ChainIsIrreducible) {
  const CdrModel model(small_config());
  const CdrChain chain = model.build();
  EXPECT_TRUE(markov::is_irreducible(chain.chain()));
}

TEST(CdrModelTest, HierarchyMatchesChain) {
  const CdrModel model(small_config());
  const CdrChain chain = model.build();
  const auto hierarchy = chain.hierarchy(100);
  ASSERT_FALSE(hierarchy.empty());
  EXPECT_EQ(hierarchy[0].num_states(), chain.num_states());
  for (std::size_t l = 1; l < hierarchy.size(); ++l) {
    EXPECT_EQ(hierarchy[l].num_states(), hierarchy[l - 1].num_groups());
    EXPECT_LT(hierarchy[l].num_groups(), hierarchy[l].num_states());
  }
}

TEST(CdrModelTest, SolveStationaryConverges) {
  const CdrModel model(small_config());
  const CdrChain chain = model.build();
  const auto result = solve_stationary(chain);
  EXPECT_TRUE(result.stats.converged);
  double sum = 0.0;
  for (const double v : result.distribution) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Agreement with the generic power method.
  solvers::SolverOptions popts;
  popts.tolerance = 1e-12;
  popts.max_iterations = 500000;
  const auto power = solvers::solve_stationary_power(chain.chain(), popts);
  double dist = 0.0;
  for (std::size_t i = 0; i < result.distribution.size(); ++i) {
    dist += std::abs(result.distribution[i] - power.distribution[i]);
  }
  EXPECT_LT(dist, 1e-8);
}

TEST(CdrModelTest, DiscretizedModeBuilds) {
  CdrConfig config = small_config();
  config.pd_noise_mode = PdNoiseMode::kDiscretized;
  config.nw_atoms = 9;
  const CdrModel model(config);
  EXPECT_EQ(model.network().num_components(), 6u);
  std::size_t nw_index = 0;
  EXPECT_NO_THROW(nw_index = model.nw_source_index());
  EXPECT_LT(nw_index, model.network().num_components());
  EXPECT_EQ(model.nw_values().size(), 9u);
  const CdrChain chain = model.build();
  EXPECT_LT(chain.chain().stochasticity_defect(), 1e-9);
}

TEST(CdrModelTest, NrNoiseQuantizedOntoGrid) {
  const CdrModel model(small_config());
  const auto& noise = model.nr_noise();
  ASSERT_FALSE(noise.offsets.empty());
  double total = 0.0;
  for (const double p : noise.probabilities) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // Offsets are within the configured bound (in cells).
  const double cell = model.grid().step();
  for (const std::int32_t off : noise.offsets) {
    EXPECT_LE(std::abs(off) * cell,
              std::abs(small_config().nr_mean) + small_config().nr_max +
                  cell);
  }
}

TEST(CdrModelTest, ZeroDriftStillBuilds) {
  CdrConfig config = small_config();
  config.nr_mean = 0.0;
  config.nr_max = 0.0;
  const CdrModel model(config);
  const auto& noise = model.nr_noise();
  ASSERT_EQ(noise.offsets.size(), 1u);
  EXPECT_EQ(noise.offsets[0], 0);
  const CdrChain chain = model.build();
  EXPECT_GT(chain.num_states(), 0u);
}

TEST(CdrModelTest, SaturatingBoundaryReachesFewerStates) {
  CdrConfig wrap = small_config();
  CdrConfig sat = small_config();
  sat.boundary = BoundaryMode::kSaturate;
  const auto nw = CdrModel(wrap).build().num_states();
  const auto ns = CdrModel(sat).build().num_states();
  EXPECT_GT(nw, 0u);
  EXPECT_GT(ns, 0u);
  // Saturation keeps the walk inside the pull-in range: it can only reach
  // at most as many states as the wrapping model.
  EXPECT_LE(ns, nw);
}

}  // namespace
}  // namespace stocdr::cdr
