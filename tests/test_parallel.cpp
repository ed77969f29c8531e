// Pool mechanics and kernel-level determinism of the parallel subsystem:
// chunk coverage, exception propagation, cooperative cancellation, static
// partitioning, and parallel-vs-serial equivalence of the CSR matvecs and
// reductions.  Solver-level equivalence lives in test_parallel_solvers.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/pool.hpp"
#include "parallel/reduce.hpp"
#include "support/math.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace stocdr {
namespace {

/// Forces the parallel paths on tiny problems; restores the default on
/// teardown so later tests see production thresholds.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { par::set_min_parallel_work(1); }
  void TearDown() override {
    par::set_min_parallel_work(par::kDefaultMinParallelWork);
  }
};

TEST(ParseThreadsSpec, HandlesAllForms) {
  EXPECT_EQ(par::parse_threads_spec(nullptr), 1u);
  EXPECT_EQ(par::parse_threads_spec(""), 1u);
  EXPECT_EQ(par::parse_threads_spec("not-a-number"), 1u);
  EXPECT_EQ(par::parse_threads_spec("-3"), 1u);
  EXPECT_EQ(par::parse_threads_spec("1"), 1u);
  EXPECT_EQ(par::parse_threads_spec("4"), 4u);
  EXPECT_EQ(par::parse_threads_spec("999999999"), par::kMaxThreads);
  // "0" and "auto" resolve to the hardware concurrency (at least 1).
  EXPECT_GE(par::parse_threads_spec("0"), 1u);
  EXPECT_GE(par::parse_threads_spec("auto"), 1u);
  EXPECT_EQ(par::parse_threads_spec("auto"), par::parse_threads_spec("0"));
}

TEST(EvenRange, PartitionsExactly) {
  for (const std::size_t n : {0u, 1u, 5u, 16u, 17u, 1000u}) {
    for (const std::size_t lanes : {1u, 2u, 3u, 7u, 16u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      std::size_t max_size = 0, min_size = n + 1;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const par::Range r = par::even_range(n, lanes, lane);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_LE(r.begin, r.end);
        prev_end = r.end;
        covered += r.end - r.begin;
        max_size = std::max(max_size, r.end - r.begin);
        min_size = std::min(min_size, r.end - r.begin);
      }
      EXPECT_EQ(prev_end, n);
      EXPECT_EQ(covered, n);
      EXPECT_LE(max_size - min_size, 1u);
    }
  }
}

TEST(BalancedBoundaries, BalancesSkewedWeights) {
  // Row i has i nonzeros: the naive even-rows split would give the last
  // lane ~2x the mean weight; the balanced split should stay close to 1.
  const std::size_t rows = 1000;
  std::vector<std::uint32_t> prefix(rows + 1, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    prefix[i + 1] = prefix[i] + static_cast<std::uint32_t>(i);
  }
  const std::size_t lanes = 4;
  const auto bounds = par::balanced_boundaries(prefix, lanes);
  ASSERT_EQ(bounds.size(), lanes + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), rows);
  const double mean =
      static_cast<double>(prefix.back()) / static_cast<double>(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    EXPECT_LE(bounds[lane], bounds[lane + 1]);
    const double weight =
        static_cast<double>(prefix[bounds[lane + 1]] - prefix[bounds[lane]]);
    EXPECT_LT(weight, 1.1 * mean + 1000.0);
  }
  // Deterministic: same inputs, same boundaries.
  EXPECT_EQ(par::balanced_boundaries(prefix, lanes), bounds);
}

TEST_F(ParallelTest, RunLanesExecutesEveryLaneOnce) {
  const par::ThreadScope scope(4);
  const std::size_t lanes = 4;
  std::vector<std::atomic<int>> hits(lanes);
  par::run_lanes(lanes, [&](std::size_t lane) { hits[lane].fetch_add(1); });
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    EXPECT_EQ(hits[lane].load(), 1) << "lane " << lane;
  }
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexOnce) {
  const par::ThreadScope scope(7);
  const std::size_t n = 10001;
  std::vector<std::atomic<int>> hits(n);
  par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST_F(ParallelTest, ExceptionPropagatesAndPoolSurvives) {
  const par::ThreadScope scope(4);
  EXPECT_THROW(par::run_lanes(4,
                              [&](std::size_t lane) {
                                if (lane == 2) {
                                  throw std::runtime_error("lane failure");
                                }
                              }),
               std::runtime_error);
  // The pool must remain usable after a job failed.
  std::atomic<int> ran{0};
  par::run_lanes(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

TEST_F(ParallelTest, CancellationAbortsRunLanes) {
  std::atomic<bool> cancel{true};  // pre-set: no lane should start
  const par::ThreadScope scope(4, &cancel);
  std::atomic<int> ran{0};
  EXPECT_THROW(par::run_lanes(4, [&](std::size_t) { ran.fetch_add(1); }),
               par::CancelledError);
  EXPECT_EQ(ran.load(), 0);
}

TEST_F(ParallelTest, CancellationMidParallelForStopsEarly) {
  std::atomic<bool> cancel{false};
  const par::ThreadScope scope(2, &cancel);
  // Many chunks, each one element: the first chunk sets the flag, so the
  // pool must abandon pending chunks and throw.
  std::atomic<int> ran{0};
  EXPECT_THROW(par::run_lanes(64,
                              [&](std::size_t) {
                                cancel.store(true);
                                ran.fetch_add(1);
                              }),
               par::CancelledError);
  EXPECT_LT(ran.load(), 64);
}

TEST_F(ParallelTest, NestedParallelismRunsSerialAndFinishes) {
  const par::ThreadScope scope(4);
  std::vector<std::atomic<int>> hits(100);
  par::run_lanes(4, [&](std::size_t lane) {
    // Inside a pool worker (or the participating caller) the context is
    // forced serial, so this nested call must not re-enter the pool.
    EXPECT_EQ(par::effective_threads(), 1u);
    const par::Range r = par::even_range(hits.size(), 4, lane);
    par::parallel_for(r.end - r.begin,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          hits[r.begin + i].fetch_add(1);
                        }
                      });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(ParallelTest, ThreadScopeNestsAndInherits) {
  EXPECT_EQ(par::effective_threads(), par::default_threads());
  {
    const par::ThreadScope outer(5);
    EXPECT_EQ(par::effective_threads(), 5u);
    {
      const par::ThreadScope inherit(0);  // 0 keeps the surrounding value
      EXPECT_EQ(par::effective_threads(), 5u);
      const par::ThreadScope inner(2);
      EXPECT_EQ(par::effective_threads(), 2u);
    }
    EXPECT_EQ(par::effective_threads(), 5u);
  }
  EXPECT_EQ(par::effective_threads(), par::default_threads());
}

TEST_F(ParallelTest, GatherMatvecMatchesSerialBitwise) {
  const auto pt = test::random_sparse_stochastic_pt(500, 6, 42);
  Rng rng(7);
  std::vector<double> x(pt.cols());
  for (double& v : x) v = rng.uniform();

  std::vector<double> serial(pt.rows()), parallel(pt.rows());
  {
    const par::ThreadScope scope(1);
    pt.multiply(x, serial);
  }
  {
    const par::ThreadScope scope(7);
    pt.multiply(x, parallel);
  }
  // Gather keeps the serial per-row accumulation order: exact equality.
  EXPECT_EQ(serial, parallel);
}

TEST_F(ParallelTest, ScatterMatvecMatchesSerialToRounding) {
  const auto pt = test::random_sparse_stochastic_pt(500, 6, 43);
  Rng rng(8);
  std::vector<double> x(pt.rows());
  for (double& v : x) v = rng.uniform();

  std::vector<double> serial(pt.cols()), parallel(pt.cols());
  {
    const par::ThreadScope scope(1);
    pt.multiply_transpose(x, serial);
  }
  {
    const par::ThreadScope scope(5);
    pt.multiply_transpose(x, parallel);
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i], parallel[i], 1e-12);
  }
  // Bitwise reproducible at a fixed thread count.
  std::vector<double> again(pt.cols());
  {
    const par::ThreadScope scope(5);
    pt.multiply_transpose(x, again);
  }
  EXPECT_EQ(parallel, again);
}

TEST_F(ParallelTest, ReductionsMatchSerialTwins) {
  Rng rng(11);
  std::vector<double> a(4099), b(4099);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform() - 0.5;
    b[i] = rng.uniform() - 0.5;
  }
  double s_sum, s_l1, s_dist, s_dot, s_l2, s_linf;
  {
    const par::ThreadScope scope(1);
    s_sum = par::sum(a);
    s_l1 = par::l1_norm(a);
    s_dist = par::l1_distance(a, b);
    s_dot = par::dot(a, b);
    s_l2 = par::l2_norm(a);
    s_linf = par::linf_norm(a);
  }
  EXPECT_EQ(s_sum, kahan_sum(a));
  EXPECT_EQ(s_l1, l1_norm(a));
  EXPECT_EQ(s_dist, l1_distance(a, b));
  {
    const par::ThreadScope scope(6);
    EXPECT_NEAR(par::sum(a), s_sum, 1e-12);
    EXPECT_NEAR(par::l1_norm(a), s_l1, 1e-12);
    EXPECT_NEAR(par::l1_distance(a, b), s_dist, 1e-12);
    EXPECT_NEAR(par::dot(a, b), s_dot, 1e-12);
    EXPECT_NEAR(par::l2_norm(a), s_l2, 1e-12);
    EXPECT_EQ(par::linf_norm(a), s_linf);  // max is order-independent
    // Fixed thread count: bitwise reproducible.
    EXPECT_EQ(par::sum(a), par::sum(a));
    EXPECT_EQ(par::dot(a, b), par::dot(a, b));
  }
}

TEST_F(ParallelTest, DotKernelIsAccurateRepeatableAndDocumented) {
  // Lengths 0-9 and 4099 cover every remainder mod 4 on the serial path and
  // ranges shorter than one group of four on the lane paths.
  std::vector<std::size_t> lengths(10);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.push_back(4099);
  Rng rng(14);
  for (const std::size_t n : lengths) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform() - 0.5;
      b[i] = rng.uniform() - 0.5;
    }
    long double exact = 0.0L;
    double magnitude = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      exact += static_cast<long double>(a[i]) * b[i];
      magnitude += std::abs(a[i] * b[i]);
    }
    const double bound =
        static_cast<double>(n) * std::numeric_limits<double>::epsilon() *
        magnitude;
    for (const std::size_t threads : {1u, 3u, 6u}) {
      const par::ThreadScope scope(threads);
      const double d = par::dot(a, b);
      EXPECT_LE(std::abs(static_cast<long double>(d) - exact), bound)
          << "n=" << n << " threads=" << threads;
      const double again = par::dot(a, b);
      EXPECT_EQ(std::memcmp(&d, &again, sizeof d), 0)
          << "n=" << n << " threads=" << threads;
    }
    // One lane is the documented association: four interleaved partial
    // sums, the remainder into s0, then (s0 + s1) + (s2 + s3).
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      for (std::size_t j = 0; j < 4; ++j) s[j] += a[i + j] * b[i + j];
    }
    for (; i < n; ++i) s[0] += a[i] * b[i];
    const par::ThreadScope serial(1);
    EXPECT_EQ(par::dot(a, b), (s[0] + s[1]) + (s[2] + s[3])) << "n=" << n;
  }
}

TEST_F(ParallelTest, NormalizeL1MatchesSerialAndThrowsOnZeroMass) {
  Rng rng(12);
  std::vector<double> v(2048);
  for (double& x : v) x = rng.uniform();
  std::vector<double> serial = v, parallel = v;
  {
    const par::ThreadScope scope(1);
    par::normalize_l1(serial);
  }
  {
    const par::ThreadScope scope(4);
    par::normalize_l1(parallel);
  }
  double mass = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(serial[i], parallel[i], 1e-15);
    mass += parallel[i];
  }
  EXPECT_NEAR(mass, 1.0, 1e-12);

  std::vector<double> zeros(100, 0.0);
  const par::ThreadScope scope(4);
  EXPECT_THROW(par::normalize_l1(zeros), NumericalError);
}

TEST(ThreadPoolLifecycle, ShutdownWithIdleWorkersIsClean) {
  // Construction + destruction without ever running a job must not hang.
  par::ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
}

TEST(ThreadPoolLifecycle, ShutdownAfterExceptionIsClean) {
  par::ThreadPool pool(2);
  const auto fail = [](std::size_t chunk) {
    if (chunk == 1) throw std::runtime_error("chunk failure");
  };
  EXPECT_THROW(pool.run(8, fail), std::runtime_error);
  // Reusable after the failure, then destroyed while workers are parked.
  std::atomic<int> ran{0};
  pool.run(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolLifecycle, GrowsOnDemand) {
  par::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  std::atomic<int> ran{0};
  pool.run(4, [&](std::size_t) { ran.fetch_add(1); });  // inline on caller
  EXPECT_EQ(ran.load(), 4);
  pool.ensure_workers(2);
  EXPECT_EQ(pool.workers(), 2u);
  ran = 0;
  pool.run(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

}  // namespace
}  // namespace stocdr
