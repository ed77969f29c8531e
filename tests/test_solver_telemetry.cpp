// Solver telemetry: residual histories, progress callbacks, trace spans,
// and metrics — the observable surface of every iterative solver.
#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solvers/aggregation.hpp"
#include "solvers/linear.hpp"
#include "solvers/stationary.hpp"
#include "support/error.hpp"

namespace stocdr::solvers {
namespace {

using markov::MarkovChain;

// --- ResidualRecorder unit behaviour ---------------------------------------

TEST(ResidualRecorderTest, ShortRunKeepsEverySample) {
  std::vector<double> history;
  ResidualRecorder recorder(history);
  for (int i = 0; i < 10; ++i) recorder.record(1.0 / (i + 1));
  recorder.finish(0.05);
  ASSERT_EQ(history.size(), 11u);
  EXPECT_EQ(history.front(), 1.0);
  EXPECT_EQ(history.back(), 0.05);
}

TEST(ResidualRecorderTest, LongRunIsCappedAndOrdered) {
  std::vector<double> history;
  ResidualRecorder recorder(history);
  const std::size_t n = 100000;
  for (std::size_t i = 0; i < n; ++i) {
    recorder.record(static_cast<double>(n - i));  // strictly decreasing
  }
  recorder.finish(0.5);
  EXPECT_LE(history.size(), kResidualHistoryCap);
  EXPECT_GE(history.size(), kResidualHistoryCap / 4);
  EXPECT_TRUE(std::is_sorted(history.rbegin(), history.rend()))
      << "decimation must preserve sample order";
  EXPECT_EQ(history.back(), 0.5);
}

TEST(ResidualRecorderTest, FinishDoesNotDuplicateLastSample) {
  std::vector<double> history;
  ResidualRecorder recorder(history);
  recorder.record(1.0);
  recorder.record(0.25);
  recorder.finish(0.25);
  ASSERT_EQ(history.size(), 2u);
}

TEST(ResidualRecorderTest, ExactlyAtCapDecimatesToEveryOtherSample) {
  std::vector<double> history;
  ResidualRecorder recorder(history);
  for (std::size_t i = 1; i <= kResidualHistoryCap; ++i) {
    recorder.record(static_cast<double>(i));
  }
  // The push that fills the buffer immediately decimates to every other
  // sample and doubles the stride: exactly cap/2 entries survive, and they
  // are the even-numbered samples.
  ASSERT_EQ(history.size(), kResidualHistoryCap / 2);
  for (std::size_t k = 0; k < history.size(); ++k) {
    EXPECT_EQ(history[k], static_cast<double>(2 * (k + 1)));
  }
}

TEST(ResidualRecorderTest, StrideDoublesTwiceOnDoubleCapRuns) {
  std::vector<double> history;
  ResidualRecorder recorder(history);
  const std::size_t total = 2 * kResidualHistoryCap;
  for (std::size_t i = 1; i <= total; ++i) {
    recorder.record(static_cast<double>(i));
  }
  // Two decimations: after the second, only every 4th sample survives and
  // the buffer is back to cap/2.
  ASSERT_EQ(history.size(), kResidualHistoryCap / 2);
  for (std::size_t k = 0; k < history.size(); ++k) {
    EXPECT_EQ(history[k], static_cast<double>(4 * (k + 1)));
  }
  recorder.finish(0.5);
  EXPECT_EQ(history.back(), 0.5);
}

// --- residual_history from the real solvers --------------------------------

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
};

/// gtest puts the parameter into the test name; without this it would
/// print the struct's raw bytes, function-pointer addresses included.
void PrintTo(const NamedSolver& solver, std::ostream* os) {
  *os << solver.name;
}

class TelemetrySolverTest : public ::testing::TestWithParam<NamedSolver> {};

TEST_P(TelemetrySolverTest, HistoryEndsAtReportedResidualAndShrinks) {
  const MarkovChain chain(test::random_dense_stochastic_pt(25, 7));
  SolverOptions options;
  options.tolerance = 1e-12;
  options.relaxation = 0.9;
  const auto result = GetParam().solve(chain, options, {});
  const auto& history = result.stats.residual_history;
  ASSERT_FALSE(history.empty()) << GetParam().name;
  EXPECT_LE(history.size(), kResidualHistoryCap);
  EXPECT_EQ(history.back(), result.stats.residual) << GetParam().name;
  // Monotone-ish: a converging solve must end far below where it started.
  EXPECT_LT(history.back(), history.front()) << GetParam().name;
}

TEST_P(TelemetrySolverTest, HistoryStaysCappedOnLongRuns) {
  const MarkovChain chain(test::random_dense_stochastic_pt(30, 9));
  SolverOptions options;
  options.tolerance = 1e-300;  // unreachable: run to the iteration cap
  options.max_iterations = 5000;
  options.relaxation = 0.9;
  const auto result = GetParam().solve(chain, options, {});
  EXPECT_FALSE(result.stats.converged);
  EXPECT_LE(result.stats.residual_history.size(), kResidualHistoryCap);
  EXPECT_EQ(result.stats.residual_history.back(), result.stats.residual);
}

TEST_P(TelemetrySolverTest, ProgressObserverSeesEverySweep) {
  const MarkovChain chain(test::random_dense_stochastic_pt(20, 3));
  std::size_t calls = 0;
  std::size_t last_iteration = 0;
  double last_residual = -1.0;
  auto observer = [&](const obs::ProgressEvent& event) {
    ++calls;
    EXPECT_GT(event.iteration, last_iteration) << "iterations must advance";
    last_iteration = event.iteration;
    last_residual = event.residual;
    EXPECT_STRNE(event.method, "");
    return obs::ProgressAction::kContinue;
  };
  SolverOptions options;
  options.tolerance = 1e-12;
  options.relaxation = 0.9;
  options.progress = obs::ProgressObserver(observer);
  const auto result = GetParam().solve(chain, options, {});
  EXPECT_EQ(calls, result.stats.iterations) << GetParam().name;
  EXPECT_GT(calls, 0u);
  EXPECT_GE(last_residual, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, TelemetrySolverTest,
    ::testing::Values(NamedSolver{"power", on_chain<solve_stationary_power>},
                      NamedSolver{"jacobi", on_chain<solve_stationary_jacobi>},
                      NamedSolver{"gauss-seidel",
                                  solve_stationary_gauss_seidel},
                      NamedSolver{"sor", solve_stationary_sor}),
    [](const auto& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// --- multilevel solver telemetry -------------------------------------------

TEST(MultilevelTelemetryTest, ProgressAndHistoryPerCycle) {
  const MarkovChain chain(test::random_sparse_stochastic_pt(200, 6, 17));
  const auto hierarchy = build_index_pair_hierarchy(chain.num_states(), 20);
  ASSERT_FALSE(hierarchy.empty());
  std::size_t cycles_seen = 0;
  auto observer = [&](const obs::ProgressEvent& event) {
    ++cycles_seen;
    EXPECT_STREQ(event.method, "multilevel");
    EXPECT_GT(event.matvec_count, 0u);
    return obs::ProgressAction::kContinue;
  };
  MultilevelOptions options;
  options.tolerance = 1e-12;
  options.coarsest_size = 20;  // force real multi-level cycles
  options.progress = obs::ProgressObserver(observer);
  const auto result = solve_stationary_multilevel(chain, hierarchy, options);
  EXPECT_TRUE(result.stats.converged);
  EXPECT_EQ(cycles_seen, result.stats.iterations);
  EXPECT_EQ(result.stats.residual_history.back(), result.stats.residual);
}

TEST(MultilevelTelemetryTest, EmitsNestedCycleAndLevelSpans) {
  auto sink = std::make_unique<obs::CollectingSink>(/*keep_records=*/true);
  obs::CollectingSink* collector = sink.get();
  obs::Tracer::install(std::move(sink));

  const MarkovChain chain(test::random_sparse_stochastic_pt(150, 6, 4));
  const auto hierarchy = build_index_pair_hierarchy(chain.num_states(), 20);
  MultilevelOptions options;
  options.coarsest_size = 20;  // force real multi-level cycles
  const auto result = solve_stationary_multilevel(chain, hierarchy, options);
  EXPECT_TRUE(result.stats.converged);

  const auto records = collector->records();
  obs::Tracer::install(nullptr);

  std::uint64_t solve_id = 0;
  std::size_t cycle_spans = 0;
  std::size_t level_spans = 0;
  bool level_has_timings = false;
  for (const auto& record : records) {
    const std::string name = record.name;
    if (name == "solve.multilevel") solve_id = record.id;
    if (name == "mg.cycle") ++cycle_spans;
    if (name == "mg.level") {
      ++level_spans;
      bool has_level = false;
      bool has_pre = false;
      for (const auto& [key, value] : record.attrs) {
        if (key == "level") has_level = true;
        if (key == "pre_smooth_s") has_pre = true;
      }
      level_has_timings = level_has_timings || (has_level && has_pre);
    }
  }
  EXPECT_NE(solve_id, 0u) << "missing solve.multilevel span";
  EXPECT_EQ(cycle_spans, result.stats.iterations);
  EXPECT_GE(level_spans, hierarchy.size());
  EXPECT_TRUE(level_has_timings)
      << "mg.level spans must carry level index and phase timings";

  // Cycle spans nest under the solve span.
  for (const auto& record : records) {
    if (std::string(record.name) == "mg.cycle") {
      EXPECT_EQ(record.parent_id, solve_id);
      EXPECT_EQ(record.depth, 1u);
    }
  }
}

// --- linear solver telemetry -----------------------------------------------

TEST(LinearTelemetryTest, GmresRecordsHistoryAndProgress) {
  // Q = 0.5 * (ring shift): substochastic, so A = I - Q is well conditioned.
  const std::size_t n = 30;
  sparse::CooBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) builder.add((i + 1) % n, i, 0.5);
  const auto qt = builder.to_csr();
  const TransientOperator op(qt);
  std::vector<double> b(n, 1.0);

  std::size_t calls = 0;
  auto observer = [&](const obs::ProgressEvent& event) {
    ++calls;
    EXPECT_STREQ(event.method, "gmres");
    return obs::ProgressAction::kContinue;
  };
  SolverOptions options;
  options.tolerance = 1e-10;
  options.progress = obs::ProgressObserver(observer);
  const auto result = gmres(op, b, options);
  EXPECT_TRUE(result.stats.converged);
  ASSERT_FALSE(result.stats.residual_history.empty());
  EXPECT_EQ(result.stats.residual_history.back(), result.stats.residual);
  // One notification per outer residual check; the converging check is an
  // extra pass on top of the restart cycles counted in stats.iterations.
  EXPECT_EQ(calls, result.stats.iterations + 1);
}

// --- null sink is truly zero-cost ------------------------------------------

TEST(TracerTest, DisabledTracerPerformsNoSinkCalls) {
  // Install a counting sink, then uninstall it: spans opened afterwards
  // must never reach it (the Span constructor caches a null sink pointer).
  auto sink = std::make_unique<obs::CollectingSink>(/*keep_records=*/false);
  obs::CollectingSink* collector = sink.get();
  obs::Tracer::install(std::move(sink));
  { obs::Span span("telemetry.test.enabled"); }
  const std::size_t while_enabled = collector->count();
  EXPECT_EQ(while_enabled, 1u);

  obs::Tracer::install(nullptr);
  EXPECT_FALSE(obs::Tracer::enabled());
  {
    obs::Span span("telemetry.test.disabled");
    EXPECT_FALSE(span.active());
    span.attr("key", std::uint64_t{1});  // all no-ops
    span.attr("res", 0.5);
  }
  const MarkovChain chain(test::random_dense_stochastic_pt(10, 2));
  (void)solve_stationary_power(chain, {}, {});
  EXPECT_EQ(collector->count(), while_enabled)
      << "disabled tracer must not call the sink";
}

TEST(TracerTest, SpansNestViaParentIds) {
  auto sink = std::make_unique<obs::CollectingSink>(/*keep_records=*/true);
  obs::CollectingSink* collector = sink.get();
  obs::Tracer::install(std::move(sink));
  {
    obs::Span outer("telemetry.outer");
    {
      obs::Span inner("telemetry.inner");
      inner.attr("note", std::string_view("nested"));
    }
  }
  const auto records = collector->records();
  obs::Tracer::install(nullptr);
  ASSERT_EQ(records.size(), 2u);
  // Inner ends (and is emitted) first.
  EXPECT_STREQ(records[0].name, "telemetry.inner");
  EXPECT_STREQ(records[1].name, "telemetry.outer");
  EXPECT_EQ(records[0].parent_id, records[1].id);
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[1].parent_id, 0u);
  EXPECT_EQ(records[1].depth, 0u);
  EXPECT_LE(records[1].start_ns, records[0].start_ns);
}

// --- metrics registry -------------------------------------------------------

TEST(MetricsTest, SolversCountMatvecs) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& counter = registry.counter("solver.stationary.matvec");
  const std::uint64_t before = counter.value();
  const MarkovChain chain(test::random_dense_stochastic_pt(15, 21));
  const auto result = solve_stationary_power(chain, {}, {});
  EXPECT_GE(counter.value(), before + result.stats.matvec_count);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  auto& registry = obs::MetricsRegistry::instance();
  auto& a = registry.counter("telemetry.test.counter");
  auto& b = registry.counter("telemetry.test.counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_GE(b.value(), 3u);

  auto& gauge = registry.gauge("telemetry.test.gauge");
  gauge.set(2.5);
  EXPECT_EQ(gauge.value(), 2.5);

  auto& histogram = registry.histogram("telemetry.test.histogram");
  histogram.observe(1.0);
  histogram.observe(3.0);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.min(), 1.0);
  EXPECT_EQ(histogram.max(), 3.0);
  EXPECT_EQ(histogram.sum(), 4.0);
}

TEST(MetricsTest, PeakRssIsPositive) {
  EXPECT_GT(obs::peak_rss_bytes(), 0u);
}

}  // namespace
}  // namespace stocdr::solvers
