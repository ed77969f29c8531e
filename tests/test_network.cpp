#include "fsm/network.hpp"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "solvers/stationary.hpp"
#include "support/error.hpp"

namespace stocdr::fsm {
namespace {

std::unique_ptr<MarkovSource> two_state_source(const std::string& name,
                                               double a, double b) {
  return std::make_unique<MarkovSource>(
      name, std::vector<std::vector<double>>{{1 - a, a}, {b, 1 - b}});
}

/// A deterministic XOR of two inputs feeding its own state.
class XorAccumulator final : public DeterministicComponent {
 public:
  XorAccumulator() : DeterministicComponent("xor") {}
  [[nodiscard]] std::size_t num_states() const override { return 2; }
  [[nodiscard]] std::uint32_t initial_state() const override { return 0; }
  [[nodiscard]] std::size_t num_input_ports() const override { return 2; }
  [[nodiscard]] std::size_t num_output_ports() const override { return 0; }
  [[nodiscard]] std::uint32_t next_state(
      std::uint32_t state, std::span<const std::uint32_t> in) const override {
    return state ^ in[0] ^ in[1];
  }
};

TEST(NetworkTest, WiringValidation) {
  Network net;
  const std::size_t src = net.add_component(two_state_source("s", 0.5, 0.5));
  const std::size_t acc =
      net.add_component(std::make_unique<XorAccumulator>());
  // Unwired inputs detected.
  EXPECT_THROW(net.validate(), PreconditionError);
  net.connect({src, 0}, acc, 0);
  net.connect({src, 0}, acc, 1);
  EXPECT_NO_THROW(net.validate());
  // Double wiring rejected.
  EXPECT_THROW(net.connect({src, 0}, acc, 0), PreconditionError);
  // Out-of-range references rejected.
  EXPECT_THROW(net.connect({5, 0}, acc, 0), PreconditionError);
  EXPECT_THROW(net.connect({src, 3}, acc, 0), PreconditionError);
}

TEST(NetworkTest, ComponentLookupByName) {
  Network net;
  net.add_component(two_state_source("alpha", 0.5, 0.5));
  net.add_component(two_state_source("beta", 0.5, 0.5));
  EXPECT_EQ(net.component_index("beta"), 1u);
  EXPECT_EQ(net.component(0).name(), "alpha");
  EXPECT_THROW((void)net.component_index("gamma"), PreconditionError);
}

/// A Mealy pass-through used to build combinational cycles.
class PassThrough final : public DeterministicComponent {
 public:
  explicit PassThrough(std::string name)
      : DeterministicComponent(std::move(name)) {}
  [[nodiscard]] std::size_t num_states() const override { return 1; }
  [[nodiscard]] std::uint32_t initial_state() const override { return 0; }
  [[nodiscard]] std::size_t num_input_ports() const override { return 1; }
  [[nodiscard]] std::size_t num_output_ports() const override { return 1; }
  [[nodiscard]] std::uint32_t next_state(
      std::uint32_t, std::span<const std::uint32_t>) const override {
    return 0;
  }
  void outputs(std::uint32_t, std::span<const std::uint32_t> in,
               std::span<std::uint32_t> out) const override {
    out[0] = in[0];
  }
};

TEST(NetworkTest, CombinationalCycleRejected) {
  Network net;
  const std::size_t a = net.add_component(std::make_unique<PassThrough>("a"));
  const std::size_t b = net.add_component(std::make_unique<PassThrough>("b"));
  net.connect({a, 0}, b, 0);
  net.connect({b, 0}, a, 0);
  EXPECT_THROW(net.validate(), PreconditionError);
}

TEST(NetworkTest, MooreComponentBreaksCycle) {
  // Same loop but with a Moore machine in it: legal.
  Network net;
  const std::size_t moore = net.add_component(std::make_unique<MarkovSource>(
      "m", std::vector<std::vector<double>>{{1.0}}));
  const std::size_t pass =
      net.add_component(std::make_unique<PassThrough>("p"));
  net.connect({moore, 0}, pass, 0);
  // The Moore machine has no inputs here, so wire pass's output nowhere;
  // the loop case is covered by the CDR model itself.  Just validate.
  EXPECT_NO_THROW(net.validate());
}

TEST(ComposeTest, IndependentSourcesGiveProductChain) {
  Network net;
  net.add_component(two_state_source("a", 0.3, 0.2));
  net.add_component(two_state_source("b", 0.4, 0.1));
  const ComposedChain composed = net.compose();
  EXPECT_EQ(composed.num_states(), 4u);
  // Transition probability factorizes.
  const auto& chain = composed.chain();
  const std::size_t s00 = *composed.dense_index(composed.space().encode(
      {0, 0}));
  const std::size_t s11 = *composed.dense_index(composed.space().encode(
      {1, 1}));
  EXPECT_NEAR(chain.probability(s00, s11), 0.3 * 0.4, 1e-14);
  // Stationary distribution is the product of the component stationaries:
  // pi_a = (b, a)/(a+b) = (0.4, 0.6), pi_b = (0.2, 0.8).
  const auto eta = solvers::solve_stationary_direct(chain).distribution;
  EXPECT_NEAR(eta[s00], 0.4 * 0.2, 1e-12);
  EXPECT_NEAR(eta[s11], 0.6 * 0.8, 1e-12);
}

TEST(ComposeTest, OnlyReachableStatesKept) {
  // XOR of two copies of the same source value is always 0 -> the xor
  // state 1 with even parity combinations is unreachable... in fact
  // in0 == in1 always, so xor never flips: states with xor=1 unreachable.
  Network net;
  const std::size_t src = net.add_component(two_state_source("s", 0.5, 0.5));
  const std::size_t acc =
      net.add_component(std::make_unique<XorAccumulator>());
  net.connect({src, 0}, acc, 0);
  net.connect({src, 0}, acc, 1);
  const ComposedChain composed = net.compose();
  EXPECT_EQ(composed.num_states(), 2u);  // full space is 4
  for (std::size_t i = 0; i < composed.num_states(); ++i) {
    EXPECT_EQ(composed.coordinate(i, 1), 0u);  // xor stays 0
  }
}

TEST(ComposeTest, ProbabilitySumsValidated) {
  Network net;
  net.add_component(two_state_source("s", 0.3, 0.3));
  EXPECT_NO_THROW(net.compose());
}

TEST(ComposeTest, MaxStatesGuard) {
  Network net;
  for (int i = 0; i < 4; ++i) {
    std::string name = "s";
    name += std::to_string(i);
    net.add_component(two_state_source(name, 0.5, 0.5));
  }
  ComposeOptions options;
  options.max_states = 8;  // 16 reachable
  EXPECT_THROW(net.compose(options), PreconditionError);
}

TEST(ComposeTest, DescribeAndIndexing) {
  Network net;
  net.add_component(two_state_source("a", 0.5, 0.5));
  net.add_component(two_state_source("b", 0.5, 0.5));
  const ComposedChain composed = net.compose();
  const auto idx = composed.dense_index(composed.space().encode({1, 0}));
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(composed.describe(*idx), "a=1 b=0");
  EXPECT_EQ(composed.coordinates(*idx), (std::vector<std::uint32_t>{1, 0}));
  EXPECT_EQ(composed.full_index(*idx), composed.space().encode({1, 0}));
}

TEST(SimulatorTest, EmpiricalDistributionMatchesStationary) {
  Network net;
  net.add_component(two_state_source("a", 0.3, 0.2));
  net.add_component(two_state_source("b", 0.4, 0.1));
  const ComposedChain composed = net.compose();
  const auto eta = solvers::solve_stationary_direct(composed.chain())
                       .distribution;

  NetworkSimulator sim(net);
  Rng rng(2024);
  std::vector<double> occupancy(composed.num_states(), 0.0);
  const int burn = 1000, steps = 400000;
  for (int i = 0; i < burn; ++i) sim.step(rng);
  for (int i = 0; i < steps; ++i) {
    sim.step(rng);
    const auto s = sim.states();
    const auto idx = composed.dense_index(
        composed.space().encode({s[0], s[1]}));
    ASSERT_TRUE(idx.has_value());
    occupancy[*idx] += 1.0 / steps;
  }
  EXPECT_LT(test::l1(occupancy, eta), 0.01);
}

TEST(ComposeTest, DelayLineGivesJointLagDistribution) {
  // A Markov source feeding a depth-1 delay line: the composite stationary
  // distribution of (source_now = j, delayed = i) is eta_i p_ij — the
  // stationary edge-flow of the source chain.  Closed-form check of the
  // Moore-delay semantics ("Prev Data D" in the paper's Figure 2).
  const double a = 0.3, b = 0.2;  // toggle rates
  Network net;
  const std::size_t src = net.add_component(two_state_source("s", a, b));
  const std::size_t dly = net.add_component(
      std::make_unique<DelayLine>("prev", 2, 1, 0));
  net.connect({src, 0}, dly, 0);
  const ComposedChain composed = net.compose();
  const auto eta =
      solvers::solve_stationary_direct(composed.chain()).distribution;

  const std::vector<double> pi{b / (a + b), a / (a + b)};
  const double p[2][2] = {{1 - a, a}, {b, 1 - b}};
  for (std::uint32_t j = 0; j < 2; ++j) {
    for (std::uint32_t i = 0; i < 2; ++i) {
      const auto idx = composed.dense_index(composed.space().encode({j, i}));
      ASSERT_TRUE(idx.has_value());
      EXPECT_NEAR(eta[*idx], pi[i] * p[i][j], 1e-12)
          << "source=" << j << " prev=" << i;
    }
  }
}

TEST(SimulatorTest, OutputsVisibleAfterStep) {
  Network net;
  const std::size_t src = net.add_component(two_state_source("s", 0.5, 0.5));
  NetworkSimulator sim(net);
  Rng rng(7);
  sim.step(rng);
  // Moore output equals the pre-step state (initial state 0).
  EXPECT_EQ(sim.output(src, 0), 0u);
  EXPECT_THROW((void)sim.output(src, 1), PreconditionError);
  EXPECT_THROW((void)sim.output(9, 0), PreconditionError);
}

TEST(SimulatorTest, SetStatesAndReset) {
  Network net;
  net.add_component(two_state_source("s", 0.0, 0.0));  // frozen chain
  NetworkSimulator sim(net);
  const std::vector<std::uint32_t> target{1};
  sim.set_states(target);
  EXPECT_EQ(sim.states()[0], 1u);
  Rng rng(3);
  sim.step(rng);
  EXPECT_EQ(sim.states()[0], 1u);  // frozen: stays
  sim.reset();
  EXPECT_EQ(sim.states()[0], 0u);
  EXPECT_THROW(sim.set_states(std::vector<std::uint32_t>{7}),
               PreconditionError);
}

}  // namespace
}  // namespace stocdr::fsm
