// Perf-counter profiling layer: delta/mask algebra, the rusage fallback
// (counters unavailable must never change results or exit paths), kernel
// roofline models, the embedded perf JSON section, and peak_rss_bytes
// monotonicity.
#include "obs/prof/perf.hpp"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../tests/test_util.hpp"
#include "obs/analyze/json_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/prof/roofline.hpp"
#include "obs/trace.hpp"
#include "solvers/stationary.hpp"

namespace stocdr::obs::prof {
namespace {

/// Every test in this file manipulates process-global profiling state, so
/// each one starts and ends from the same clean slate.
class ProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    detail::set_enabled_for_test(false);
    detail::set_force_unavailable_for_test(false);
    reset();
  }
  void TearDown() override {
    detail::set_enabled_for_test(false);
    detail::set_force_unavailable_for_test(false);
    reset();
  }
};

CounterReading make_reading(std::uint64_t mask,
                            std::uint64_t base) {
  CounterReading r;
  r.mask = mask;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    r.values[i] = base + i;
  }
  return r;
}

TEST_F(ProfTest, CounterNamesAreStableJsonKeys) {
  EXPECT_STREQ(counter_name(kCycles), "cycles");
  EXPECT_STREQ(counter_name(kInstructions), "instructions");
  EXPECT_STREQ(counter_name(kCacheReferences), "cache_references");
  EXPECT_STREQ(counter_name(kCacheMisses), "cache_misses");
  EXPECT_STREQ(counter_name(kBranchMisses), "branch_misses");
  EXPECT_STREQ(counter_name(kStalledCyclesBackend), "stalled_cycles_backend");
  EXPECT_STREQ(counter_name(kTaskClockNs), "task_clock_ns");
  EXPECT_STREQ(counter_name(kPageFaults), "page_faults");
}

TEST_F(ProfTest, ReadingDeltaIntersectsMasksAndSaturates) {
  CounterReading start = make_reading(/*mask=*/0b011, /*base=*/100);
  CounterReading end = make_reading(/*mask=*/0b110, /*base=*/150);
  // Slot 0 resets mid-flight: end below start must clamp to 0, not wrap.
  end.values[1] = 10;

  const CounterReading delta = reading_delta(start, end);
  EXPECT_EQ(delta.mask, 0b010u);  // only slots carried by BOTH readings
  EXPECT_TRUE(delta.has(1));
  EXPECT_FALSE(delta.has(0));
  EXPECT_FALSE(delta.has(2));
  EXPECT_EQ(delta.values[1], 0u);  // saturated, 10 - 101 < 0

  end.values[1] = 173;
  const CounterReading forward = reading_delta(start, end);
  EXPECT_EQ(forward.values[1], 72u);  // 173 - 101
}

TEST_F(ProfTest, AccumulateBuildsNamedAndTotalAggregates) {
  CounterReading delta;
  delta.mask = (1u << kInstructions) | (1u << kCycles);
  delta.values[kInstructions] = 2000;
  delta.values[kCycles] = 1000;
  accumulate("solve", delta, /*wall_ns=*/500, /*top_level=*/true);
  accumulate("solve", delta, /*wall_ns=*/700, /*top_level=*/false);

  const std::vector<PerfAggregate> named = snapshot();
  ASSERT_EQ(named.size(), 1u);
  EXPECT_EQ(named[0].name, "solve");
  EXPECT_EQ(named[0].regions, 2u);
  EXPECT_EQ(named[0].wall_ns, 1200u);
  EXPECT_EQ(named[0].values[kInstructions], 4000u);
  EXPECT_DOUBLE_EQ(named[0].ipc(), 2.0);
  EXPECT_DOUBLE_EQ(named[0].cache_miss_rate(), 0.0);  // refs not carried

  // Only the top_level region feeds the process total.
  const PerfAggregate whole = total();
  EXPECT_EQ(whole.regions, 1u);
  EXPECT_EQ(whole.wall_ns, 500u);
  EXPECT_EQ(whole.values[kInstructions], 2000u);
}

TEST_F(ProfTest, AggregateMaskIsIntersectionOfContributions) {
  CounterReading rich;
  rich.mask = (1u << kInstructions) | (1u << kTaskClockNs);
  rich.values[kInstructions] = 10;
  CounterReading poor;
  poor.mask = 1u << kTaskClockNs;
  accumulate("mixed", rich, 1, /*top_level=*/true);
  accumulate("mixed", poor, 1, /*top_level=*/true);

  const std::vector<PerfAggregate> named = snapshot();
  ASSERT_EQ(named.size(), 1u);
  EXPECT_TRUE(named[0].has(kTaskClockNs));
  // Instructions were absent from one contribution, so the aggregate must
  // not report them (a partial sum would look like a real, smaller count).
  EXPECT_FALSE(named[0].has(kInstructions));
}

TEST_F(ProfTest, RusageFallbackStillProducesReadings) {
  detail::set_force_unavailable_for_test(true);
  detail::set_enabled_for_test(true);

  EXPECT_TRUE(enabled());
  EXPECT_EQ(source(), Source::kRusage);
  EXPECT_FALSE(counters_available());

  const CounterReading reading = read_current_thread();
  // rusage carries cpu time and fault counts; the hardware slots must be
  // reported absent, not zero.
  EXPECT_TRUE(reading.has(kTaskClockNs));
  EXPECT_TRUE(reading.has(kPageFaults));
  EXPECT_FALSE(reading.has(kInstructions));
  EXPECT_FALSE(reading.has(kCycles));
}

TEST_F(ProfTest, SolveIsBitIdenticalWithCountersUnavailable) {
  const markov::MarkovChain chain(test::random_dense_stochastic_pt(30, 7));
  solvers::SolverOptions options;
  options.tolerance = 1e-12;

  const auto plain = solvers::solve_stationary_power(chain, options, {});
  ASSERT_TRUE(plain.stats.converged);

  detail::set_force_unavailable_for_test(true);
  detail::set_enabled_for_test(true);
  const auto profiled = solvers::solve_stationary_power(chain, options, {});

  ASSERT_TRUE(profiled.stats.converged);
  EXPECT_EQ(profiled.stats.iterations, plain.stats.iterations);
  ASSERT_EQ(profiled.distribution.size(), plain.distribution.size());
  for (std::size_t i = 0; i < plain.distribution.size(); ++i) {
    // Bit-identical, not approximately equal: profiling must observe the
    // numerics, never perturb them.
    EXPECT_EQ(std::memcmp(&profiled.distribution[i], &plain.distribution[i],
                          sizeof(double)),
              0)
        << "state " << i;
  }
}

TEST_F(ProfTest, SpanAccumulatesUnderFallback) {
  detail::set_force_unavailable_for_test(true);
  detail::set_enabled_for_test(true);
  reset();
  {
    obs::Span span("prof_test_region");
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0 / (i + 1);
  }
  const std::vector<PerfAggregate> named = snapshot();
  ASSERT_EQ(named.size(), 1u);
  EXPECT_EQ(named[0].name, "prof_test_region");
  EXPECT_EQ(named[0].regions, 1u);
  EXPECT_GT(named[0].wall_ns, 0u);
  EXPECT_TRUE(named[0].has(kTaskClockNs));
  EXPECT_FALSE(named[0].has(kInstructions));
  EXPECT_EQ(total().regions, 1u);
}

TEST_F(ProfTest, KernelModelsCountCompulsoryTraffic) {
  // CSR SpMV, 10x10 with 40 entries: values+colidx once, rowptr, x, y.
  EXPECT_EQ(spmv_bytes(10, 10, 40), 40u * 12 + 11 * 4 + 10 * 8 + 10 * 8);
  EXPECT_EQ(spmv_flops(40), 80u);
  EXPECT_EQ(power_update_bytes(10), 320u);
  EXPECT_EQ(power_update_flops(10), 40u);
  EXPECT_EQ(aggregation_bytes(100, 10), 100u * 12 + 10 * 8);
  EXPECT_EQ(aggregation_flops(100), 100u);
}

TEST_F(ProfTest, KernelScopeIsNoOpWhenDisabled) {
  ASSERT_FALSE(enabled());
  { const KernelScope scope("noop_kernel", 100, 100); }
  EXPECT_TRUE(kernel_snapshot().empty());
}

TEST_F(ProfTest, KernelAggregatesDeriveRooflineQuantities) {
  detail::set_enabled_for_test(true);
  record_kernel("k", /*bytes=*/1000, /*flops=*/500, /*seconds=*/1e-6);
  record_kernel("k", /*bytes=*/1000, /*flops=*/500, /*seconds=*/1e-6);

  const std::vector<KernelAggregate> kernels = kernel_snapshot();
  ASSERT_EQ(kernels.size(), 1u);
  EXPECT_EQ(kernels[0].calls, 2u);
  EXPECT_EQ(kernels[0].bytes, 2000u);
  EXPECT_EQ(kernels[0].flops, 1000u);
  EXPECT_DOUBLE_EQ(kernels[0].arithmetic_intensity(), 0.5);
  EXPECT_DOUBLE_EQ(kernels[0].achieved_gbps(), 2000.0 / 2e-6 / 1e9);
  EXPECT_DOUBLE_EQ(kernels[0].gflops(), 1000.0 / 2e-6 / 1e9);
}

TEST_F(ProfTest, PerfSectionJsonCarriesFallbackShape) {
  detail::set_force_unavailable_for_test(true);
  detail::set_enabled_for_test(true);
  reset();
  CounterReading delta;
  delta.mask = 1u << kTaskClockNs;
  delta.values[kTaskClockNs] = 123456;
  accumulate("solve", delta, /*wall_ns=*/200000, /*top_level=*/true);
  record_kernel("spmv", spmv_bytes(100, 100, 400), spmv_flops(400), 1e-5);

  const std::string json = perf_section_json();
  const auto doc = analyze::parse_json(json);
  ASSERT_TRUE(doc.has_value()) << json;

  EXPECT_TRUE(doc->find("enabled")->boolean);
  // Counters unavailable: the section says so instead of faking zeros.
  EXPECT_FALSE(doc->find("available")->boolean);
  EXPECT_EQ(doc->find("source")->string_or(""), "rusage");

  const analyze::JsonValue* total = doc->find("total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->find("regions")->number_or(0), 1.0);
  EXPECT_EQ(total->find("task_clock_ns")->number_or(0), 123456.0);
  EXPECT_EQ(total->find("instructions"), nullptr);  // absent, not zero

  const analyze::JsonValue* spans = doc->find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_NE(spans->find("solve"), nullptr);

  const analyze::JsonValue* kernels = doc->find("kernels");
  ASSERT_NE(kernels, nullptr);
  const analyze::JsonValue* spmv = kernels->find("spmv");
  ASSERT_NE(spmv, nullptr);
  EXPECT_EQ(spmv->find("calls")->number_or(0), 1.0);
  EXPECT_GT(spmv->find("achieved_gbps")->number_or(0), 0.0);
}

TEST_F(ProfTest, PublishToMetricsEmitsGauges) {
  detail::set_force_unavailable_for_test(true);
  detail::set_enabled_for_test(true);
  reset();
  obs::MetricsRegistry::instance().reset_all();
  CounterReading delta;
  delta.mask = 1u << kTaskClockNs;
  delta.values[kTaskClockNs] = 1000000;
  accumulate("solve", delta, 1000000, /*top_level=*/true);
  publish_to_metrics();
  bool found = false;
  for (const MetricSample& sample :
       obs::MetricsRegistry::instance().snapshot()) {
    if (sample.name == "perf.solve.task_clock_seconds") {
      found = true;
      EXPECT_EQ(sample.kind, MetricSample::Kind::kGauge);
      EXPECT_DOUBLE_EQ(sample.value, 1e-3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PeakRssTest, PositiveAndMonotonic) {
  const std::uint64_t before = obs::peak_rss_bytes();
  EXPECT_GT(before, 0u);

  // Touch 32 MiB so the high-water mark provably moves (or at least holds).
  std::vector<char> ballast(32u << 20);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) {
    ballast[i] = static_cast<char>(i);
  }
  const std::uint64_t during = obs::peak_rss_bytes();
  EXPECT_GE(during, before);

  ballast.clear();
  ballast.shrink_to_fit();
  // Peak RSS is a high-water mark: freeing memory must never lower it.
  const std::uint64_t after = obs::peak_rss_bytes();
  EXPECT_GE(after, during);
}

}  // namespace
}  // namespace stocdr::obs::prof
