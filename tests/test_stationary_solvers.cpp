#include "solvers/stationary.hpp"

#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"

namespace stocdr::solvers {
namespace {

using markov::MarkovChain;

/// All four iterative solvers, exercised identically.
using SolverFn = StationaryResult (*)(const MarkovChain&,
                                      const SolverOptions&,
                                      std::span<const double>);

/// Power and Jacobi take any StepOperator; this adapts them to SolverFn.
template <auto Solve>
StationaryResult on_chain(const MarkovChain& chain,
                          const SolverOptions& options,
                          std::span<const double> initial) {
  return Solve(chain, options, initial);
}

struct NamedSolver {
  const char* name;
  SolverFn solve;
  double relaxation;
  /// Relaxation used on the birth-death chain: undamped Jacobi oscillates
  /// on near-bipartite structures (period-2 iteration modes), which is
  /// expected behaviour, so those entries damp there.
  double birth_death_relaxation;
};

/// gtest puts the parameter into the test name; without this it would
/// print the struct's raw bytes, function-pointer addresses included.
void PrintTo(const NamedSolver& solver, std::ostream* os) {
  *os << solver.name;
}

class IterativeSolverTest : public ::testing::TestWithParam<NamedSolver> {};

TEST_P(IterativeSolverTest, MatchesGthOnRandomDenseChains) {
  const NamedSolver& solver = GetParam();
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const MarkovChain chain(test::random_dense_stochastic_pt(25, seed));
    const auto oracle = solve_stationary_direct(chain);
    SolverOptions options;
    options.tolerance = 1e-13;
    options.relaxation = solver.relaxation;
    const auto result = solver.solve(chain, options, {});
    EXPECT_TRUE(result.stats.converged) << solver.name;
    EXPECT_LT(test::l1(result.distribution, oracle.distribution), 1e-9)
        << solver.name << " seed " << seed;
  }
}

TEST_P(IterativeSolverTest, MatchesClosedFormOnBirthDeath) {
  const NamedSolver& solver = GetParam();
  const MarkovChain chain(test::birth_death_pt(20, 0.25, 0.35));
  const auto expected = test::birth_death_stationary(20, 0.25, 0.35);
  SolverOptions options;
  options.tolerance = 1e-13;
  options.max_iterations = 500000;
  options.relaxation = solver.birth_death_relaxation;
  const auto result = solver.solve(chain, options, {});
  EXPECT_TRUE(result.stats.converged) << solver.name;
  EXPECT_LT(test::l1(result.distribution, expected), 1e-8) << solver.name;
}

TEST_P(IterativeSolverTest, RespectsInitialGuess) {
  const NamedSolver& solver = GetParam();
  const MarkovChain chain(test::random_dense_stochastic_pt(10, 44));
  const auto oracle = solve_stationary_direct(chain);
  SolverOptions options;
  options.tolerance = 1e-13;
  options.relaxation = solver.relaxation;
  // Starting from the exact answer must converge immediately (few sweeps).
  const auto result = solver.solve(chain, options, oracle.distribution);
  EXPECT_TRUE(result.stats.converged);
  EXPECT_LE(result.stats.iterations, 3u) << solver.name;
}

TEST_P(IterativeSolverTest, IterationCapReported) {
  const NamedSolver& solver = GetParam();
  const MarkovChain chain(test::random_dense_stochastic_pt(30, 5));
  SolverOptions options;
  options.tolerance = 1e-30;  // unreachable
  options.max_iterations = 5;
  options.relaxation = solver.relaxation;
  const auto result = solver.solve(chain, options, {});
  EXPECT_FALSE(result.stats.converged);
  EXPECT_EQ(result.stats.iterations, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, IterativeSolverTest,
    ::testing::Values(
        NamedSolver{"power", &on_chain<solve_stationary_power>, 1.0, 1.0},
        NamedSolver{"power-damped", &on_chain<solve_stationary_power>, 0.8,
                    0.8},
        NamedSolver{"jacobi", &on_chain<solve_stationary_jacobi>, 1.0, 0.9},
        NamedSolver{"jacobi-damped", &on_chain<solve_stationary_jacobi>, 0.7,
                    0.7},
        NamedSolver{"gauss-seidel", &solve_stationary_gauss_seidel, 1.0, 1.0},
        NamedSolver{"sor", &solve_stationary_sor, 1.2, 1.2}),
    [](const ::testing::TestParamInfo<NamedSolver>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PowerIterationTest, DampingHandlesPeriodicChain) {
  // 2-cycle: undamped power iteration oscillates forever; damping fixes it.
  sparse::CooBuilder b(2, 2);
  b.add(1, 0, 1.0);
  b.add(0, 1, 1.0);
  const MarkovChain chain(b.to_csr());
  SolverOptions undamped;
  undamped.max_iterations = 1000;
  std::vector<double> skew{0.9, 0.1};
  const auto fail = solve_stationary_power(chain, undamped, skew);
  EXPECT_FALSE(fail.stats.converged);

  SolverOptions damped = undamped;
  damped.relaxation = 0.5;
  const auto ok = solve_stationary_power(chain, damped, skew);
  EXPECT_TRUE(ok.stats.converged);
  EXPECT_NEAR(ok.distribution[0], 0.5, 1e-9);
}

TEST(RelaxationSolverTest, AbsorbingDiagonalThrows) {
  sparse::CooBuilder b(2, 2);
  b.add(0, 0, 1.0);  // absorbing
  b.add(0, 1, 0.5);
  b.add(1, 1, 0.5);
  const MarkovChain chain(b.to_csr());
  EXPECT_THROW((void)solve_stationary_jacobi(chain), NumericalError);
}

TEST(SolverOptionsTest, InvalidRelaxationRejected) {
  const MarkovChain chain(test::birth_death_pt(4, 0.3, 0.3));
  SolverOptions bad;
  bad.relaxation = 0.0;
  EXPECT_THROW((void)solve_stationary_power(chain, bad), PreconditionError);
  bad.relaxation = 1.5;
  EXPECT_THROW((void)solve_stationary_jacobi(chain, bad), PreconditionError);
  bad.relaxation = 2.5;
  EXPECT_THROW((void)solve_stationary_sor(chain, bad), PreconditionError);
}

TEST(DirectSolverTest, ReportsZeroResidual) {
  const MarkovChain chain(test::random_dense_stochastic_pt(12, 3));
  const auto result = solve_stationary_direct(chain);
  EXPECT_TRUE(result.stats.converged);
  EXPECT_LT(result.stats.residual, 1e-13);
  EXPECT_EQ(result.stats.method, "gth-direct");
}

TEST(ResidualTest, ZeroAtFixedPoint) {
  const MarkovChain chain(test::birth_death_pt(8, 0.2, 0.4));
  const auto eta = test::birth_death_stationary(8, 0.2, 0.4);
  EXPECT_LT(stationary_residual(chain, eta), 1e-14);
  const auto uniform = chain.uniform_distribution();
  EXPECT_GT(stationary_residual(chain, uniform), 1e-3);
}

}  // namespace
}  // namespace stocdr::solvers
