#include "solvers/passage.hpp"

#include <cmath>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"

namespace stocdr::solvers {
namespace {

using markov::MarkovChain;

/// Symmetric random walk on {0..n-1} with reflecting stay at 0 and target n-1.
/// For the *simple* walk absorbed at both ends the gambler's-ruin duration
/// is k(n-k); here we check against an independently computed dense solve.
MarkovChain lazy_walk(std::size_t n, double p, double q) {
  return MarkovChain(test::birth_death_pt(n, p, q));
}

/// Reference hitting times via dense Gaussian elimination on (I-Q) t = 1.
std::vector<double> dense_hitting_reference(const MarkovChain& chain,
                                            const std::vector<bool>& target) {
  const std::size_t n = chain.num_states();
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < n; ++i) {
    if (!target[i]) kept.push_back(i);
  }
  const std::size_t m = kept.size();
  // Build I - Q densely (row-major).
  std::vector<double> a(m * m, 0.0);
  const auto at = [&a, m](std::size_t r, std::size_t c) -> double& {
    return a[r * m + c];
  };
  for (std::size_t r = 0; r < m; ++r) at(r, r) = 1.0;
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) {
      at(r, c) -= chain.probability(kept[r], kept[c]);
    }
  }
  std::vector<double> t(m, 1.0);
  // Naive Gaussian elimination (fine for test sizes).
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t r = k + 1; r < m; ++r) {
      const double f = at(r, k) / at(k, k);
      for (std::size_t c = k; c < m; ++c) at(r, c) -= f * at(k, c);
      t[r] -= f * t[k];
    }
  }
  for (std::size_t k = m; k-- > 0;) {
    for (std::size_t c = k + 1; c < m; ++c) t[k] -= at(k, c) * t[c];
    t[k] /= at(k, k);
  }
  std::vector<double> full(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) full[kept[r]] = t[r];
  return full;
}

const char* method_name(PassageMethod method) {
  switch (method) {
    case PassageMethod::kGmres: return "gmres";
    case PassageMethod::kGmresMultilevel: return "gmres_multilevel";
    case PassageMethod::kJacobi: return "jacobi";
  }
  return "unknown";
}

}  // namespace

/// gtest puts the parameter into the test name; without this the enum
/// prints as raw bytes.  It lives outside the anonymous namespace so that
/// argument-dependent lookup finds it next to PassageMethod.
void PrintTo(PassageMethod method, std::ostream* os) {
  *os << method_name(method);
}

namespace {

class PassageMethodTest : public ::testing::TestWithParam<PassageMethod> {};

TEST_P(PassageMethodTest, MatchesDenseReference) {
  const MarkovChain chain = lazy_walk(30, 0.3, 0.25);
  std::vector<bool> target(30, false);
  target[29] = true;
  PassageOptions options;
  options.method = GetParam();
  options.linear.tolerance = 1e-12;
  options.linear.max_iterations =
      GetParam() == PassageMethod::kJacobi ? 2000000 : 500;
  const auto result = mean_hitting_times(chain, target, options);
  EXPECT_TRUE(result.stats.converged);
  const auto reference = dense_hitting_reference(chain, target);
  for (std::size_t i = 0; i < 29; ++i) {  // 29 is the target itself
    EXPECT_NEAR(result.mean_steps[i] / reference[i], 1.0, 1e-6)
        << "state " << i;
  }
  EXPECT_DOUBLE_EQ(result.mean_steps[29], 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PassageMethodTest,
                         ::testing::Values(PassageMethod::kGmres,
                                           PassageMethod::kGmresMultilevel,
                                           PassageMethod::kJacobi),
                         [](const auto& info) {
                           return method_name(info.param);
                         });

TEST(HittingTimeTest, MonotoneInDistanceToTarget) {
  const MarkovChain chain = lazy_walk(20, 0.25, 0.25);
  std::vector<bool> target(20, false);
  target[19] = true;
  const auto result = mean_hitting_times(chain, target);
  for (std::size_t i = 1; i < 19; ++i) {
    EXPECT_GT(result.mean_steps[i - 1], result.mean_steps[i]) << i;
  }
}

TEST(HittingTimeTest, EmptyTargetRejected) {
  const MarkovChain chain = lazy_walk(5, 0.3, 0.3);
  EXPECT_THROW((void)mean_hitting_times(chain, std::vector<bool>(5, false)),
               PreconditionError);
}

TEST(HittingTimeTest, AllTargetTrivial) {
  const MarkovChain chain = lazy_walk(5, 0.3, 0.3);
  const auto result = mean_hitting_times(chain, std::vector<bool>(5, true));
  EXPECT_TRUE(result.stats.converged);
  for (const double t : result.mean_steps) EXPECT_DOUBLE_EQ(t, 0.0);
}

TEST(HittingTimeTest, StructuralHierarchyOption) {
  const std::size_t n = 64;
  const MarkovChain chain = lazy_walk(n, 0.3, 0.295);
  std::vector<bool> target(n, false);
  target[n - 1] = true;
  PassageOptions options;
  options.method = PassageMethod::kGmresMultilevel;
  std::vector<std::uint32_t> grid(n), label(n, 0);
  for (std::size_t i = 0; i < n; ++i) grid[i] = static_cast<std::uint32_t>(i);
  options.grid_coordinate = grid;
  options.other_label = label;
  const auto result = mean_hitting_times(chain, target, options);
  EXPECT_TRUE(result.stats.converged);
  const auto reference = dense_hitting_reference(chain, target);
  EXPECT_NEAR(result.mean_steps[0] / reference[0], 1.0, 1e-7);
}

TEST(HittingProbabilityTest, GamblersRuinClosedForm) {
  // Simple symmetric walk absorbed at 0 and n-1: P(hit n-1 before 0 | start
  // k) = k / (n-1).
  const std::size_t n = 11;
  sparse::CooBuilder b(n, n);
  b.add(0, 0, 1.0);
  b.add(n - 1, n - 1, 1.0);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    b.add(i - 1, i, 0.5);
    b.add(i + 1, i, 0.5);
  }
  const MarkovChain chain(b.to_csr());
  std::vector<bool> a(n, false), z(n, false);
  a[n - 1] = true;
  z[0] = true;
  PassageOptions options;
  options.method = PassageMethod::kGmres;
  options.linear.tolerance = 1e-13;
  const auto result = hitting_probability(chain, a, z, options);
  EXPECT_TRUE(result.stats.converged);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(result.probability[k],
                static_cast<double>(k) / static_cast<double>(n - 1), 1e-9)
        << k;
  }
}

TEST(HittingProbabilityTest, BiasedWalkFavoursDriftDirection) {
  const std::size_t n = 15;
  sparse::CooBuilder b(n, n);
  b.add(0, 0, 1.0);
  b.add(n - 1, n - 1, 1.0);
  for (std::size_t i = 1; i + 1 < n; ++i) {
    b.add(i - 1, i, 0.3);
    b.add(i + 1, i, 0.7);
  }
  const MarkovChain chain(b.to_csr());
  std::vector<bool> top(n, false), bottom(n, false);
  top[n - 1] = true;
  bottom[0] = true;
  const auto result = hitting_probability(chain, top, bottom);
  // From the middle, the upward drift dominates.
  EXPECT_GT(result.probability[n / 2], 0.9);
  EXPECT_DOUBLE_EQ(result.probability[0], 0.0);
  EXPECT_DOUBLE_EQ(result.probability[n - 1], 1.0);
}

TEST(HittingProbabilityTest, OverlappingTargetsRejected) {
  const MarkovChain chain = lazy_walk(5, 0.3, 0.3);
  std::vector<bool> a(5, false), b(5, false);
  a[2] = b[2] = true;
  EXPECT_THROW((void)hitting_probability(chain, a, b), PreconditionError);
}

}  // namespace
}  // namespace stocdr::solvers
