// The CdrModel -> KroneckerDescriptor builder: exactness against the
// explicit compose path, matrix-free measures, the operator robust ladder's
// skip/admission reporting, and bit-identical solves across thread counts
// and telemetry states.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cdr/kron_model.hpp"
#include "cdr/measures.hpp"
#include "cdr/model.hpp"
#include "kronecker/step_operator.hpp"
#include "obs/mem/mem.hpp"
#include "obs/prof/perf.hpp"
#include "parallel/pool.hpp"
#include "robust/robust_solver.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace stocdr::cdr {
namespace {

/// A small config whose explicit chain is cheap to build and solve.
CdrConfig small_config() {
  CdrConfig cfg;
  cfg.phase_points = 64;
  cfg.vco_phases = 16;
  cfg.counter_length = 2;
  cfg.max_run_length = 3;
  cfg.sigma_nw = 0.02;
  cfg.nr_mean = 0.004;
  cfg.nr_max = 0.012;
  cfg.nr_atoms = 5;
  return cfg;
}

/// Maps the explicit chain's dense states into the descriptor's full
/// product space.
std::vector<std::size_t> product_index_map(const CdrModel& model,
                                           const CdrChain& chain,
                                           const KroneckerCdrModel& kron) {
  std::vector<std::size_t> map(chain.num_states());
  for (std::size_t i = 0; i < chain.num_states(); ++i) {
    const std::vector<std::uint32_t> coords = chain.composed().coordinates(i);
    map[i] = kron.state_index(coords[model.data_index()],
                              coords[model.counter_index()],
                              coords[model.phase_index()]);
  }
  return map;
}

std::vector<double> embed(const KroneckerCdrModel& kron,
                          const std::vector<std::size_t>& map,
                          std::span<const double> eta) {
  std::vector<double> full(kron.num_states(), 0.0);
  for (std::size_t i = 0; i < eta.size(); ++i) full[map[i]] = eta[i];
  return full;
}

TEST(KronSupportTest, PredicateExplainsRejections) {
  CdrConfig cfg = small_config();
  std::string reason;
  EXPECT_TRUE(kronecker_supported(cfg, &reason));
  EXPECT_TRUE(reason.empty());

  cfg.sj_amplitude = 0.05;
  EXPECT_FALSE(kronecker_supported(cfg, &reason));
  EXPECT_NE(reason.find("sinusoidal"), std::string::npos);

  cfg = small_config();
  cfg.pd_noise_mode = PdNoiseMode::kDiscretized;
  EXPECT_FALSE(kronecker_supported(cfg, &reason));
  EXPECT_NE(reason.find("n_w"), std::string::npos);

  cfg = small_config();
  const CdrModel model(cfg);
  EXPECT_NO_THROW(KroneckerCdrModel{model});
  cfg.sj_amplitude = 0.05;
  const CdrModel sj_model(cfg);
  EXPECT_THROW(KroneckerCdrModel{sj_model}, PreconditionError);
}

TEST(KronModelTest, DescriptorMatchesExplicitTpmEntrywise) {
  const CdrConfig cfg = small_config();
  const CdrModel model(cfg);
  const CdrChain chain = model.build();
  const KroneckerCdrModel kron(model);
  ASSERT_EQ(kron.num_states(),
            cfg.max_run_length * (2 * cfg.counter_length - 1) *
                cfg.phase_points);
  EXPECT_GT(kron.form_seconds(), 0.0);
  EXPECT_GT(kron.storage_bytes(), 0u);

  // The descriptor stores P^T; every explicit transition must appear with
  // the same probability at the mapped product coordinates.
  const sparse::CsrMatrix dt = kron.descriptor().to_csr();
  const std::vector<std::size_t> map = product_index_map(model, chain, kron);
  std::size_t checked = 0;
  chain.chain().pt().for_each([&](std::size_t dst, std::size_t src, double p) {
    EXPECT_NEAR(dt.at(map[dst], map[src]), p, 1e-15)
        << "dst=" << dst << " src=" << src;
    ++checked;
  });
  EXPECT_EQ(checked, chain.chain().pt().nnz());

  // Full-product stochasticity: the descriptor is a TPM over the whole
  // tensor space, not only the reachable part.
  for (const double s : dt.col_sums()) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(KronModelTest, StationaryAndMeasuresMatchExplicitPath) {
  const CdrConfig cfg = small_config();
  const CdrModel model(cfg);
  const CdrChain chain = model.build();
  const KroneckerCdrModel kron(model);

  // Solve both representations past the comparison tolerance so residual
  // slack does not eat the 1e-12 cross-check budget.
  robust::RobustOptions options;
  options.tolerance = 1e-13;
  const robust::RobustResult explicit_result =
      solve_stationary_robust(chain, options);
  ASSERT_TRUE(explicit_result.report.converged);
  const robust::RobustResult kron_result =
      solve_stationary_robust(kron, options);
  ASSERT_TRUE(kron_result.report.converged);
  EXPECT_EQ(kron_result.report.representation, "kronecker");

  // Unreachable product states are transient, so the two stationary vectors
  // agree through the product-index embedding.
  const std::vector<std::size_t> map = product_index_map(model, chain, kron);
  const std::vector<double> embedded =
      embed(kron, map, explicit_result.distribution);
  EXPECT_LT(l1_distance(embedded, kron_result.distribution), 1e-12);

  const std::vector<double>& eta_x = explicit_result.distribution;
  const std::vector<double>& eta_k = kron_result.distribution;
  const std::vector<double> marg_x = phase_marginal(chain, eta_x);
  const std::vector<double> marg_k = kron.phase_marginal(eta_k);
  ASSERT_EQ(marg_x.size(), marg_k.size());
  for (std::size_t i = 0; i < marg_x.size(); ++i) {
    EXPECT_NEAR(marg_x[i], marg_k[i], 1e-12);
  }
  EXPECT_NEAR(bit_error_rate(model, chain, eta_x), kron.bit_error_rate(eta_k),
              1e-12);
  const PhaseErrorMoments mom_x = phase_error_moments(model, chain, eta_x);
  const PhaseErrorMoments mom_k = kron.phase_error_moments(eta_k);
  EXPECT_NEAR(mom_x.mean, mom_k.mean, 1e-12);
  EXPECT_NEAR(mom_x.rms, mom_k.rms, 1e-12);
  const SlipStats slip_x = slip_stats(model, chain, eta_x);
  const SlipStats slip_k = kron.slip_stats(eta_k);
  EXPECT_NEAR(slip_x.rate_up, slip_k.rate_up, 1e-12);
  EXPECT_NEAR(slip_x.rate_down, slip_k.rate_down, 1e-12);
}

TEST(KronModelTest, MajorityVoteFilterFactorizesToo) {
  CdrConfig cfg = small_config();
  cfg.filter_type = FilterType::kMajorityVote;
  cfg.counter_length = 3;
  const CdrModel model(cfg);
  const CdrChain chain = model.build();
  const KroneckerCdrModel kron(model);
  const sparse::CsrMatrix dt = kron.descriptor().to_csr();
  const std::vector<std::size_t> map = product_index_map(model, chain, kron);
  chain.chain().pt().for_each([&](std::size_t dst, std::size_t src, double p) {
    EXPECT_NEAR(dt.at(map[dst], map[src]), p, 1e-15);
  });
  for (const double s : dt.col_sums()) EXPECT_NEAR(s, 1.0, 1e-12);
}

TEST(KronModelTest, SaturateBoundarySupportedButSlipStatsRefuse) {
  CdrConfig cfg = small_config();
  cfg.boundary = BoundaryMode::kSaturate;
  const CdrModel model(cfg);
  const CdrChain chain = model.build();
  const KroneckerCdrModel kron(model);
  const sparse::CsrMatrix dt = kron.descriptor().to_csr();
  const std::vector<std::size_t> map = product_index_map(model, chain, kron);
  chain.chain().pt().for_each([&](std::size_t dst, std::size_t src, double p) {
    EXPECT_NEAR(dt.at(map[dst], map[src]), p, 1e-15);
  });
  const std::vector<double> eta(kron.num_states(),
                                1.0 / static_cast<double>(kron.num_states()));
  EXPECT_THROW((void)kron.slip_stats(eta), PreconditionError);
}

TEST(KronRobustTest, ExplicitOnlyRungsReportSkipped) {
  const CdrModel model(small_config());
  const KroneckerCdrModel kron(model);
  robust::RobustOptions options;
  // All three explicit-only rungs first, so the run reaches every one of
  // them before the power rung converges.
  options.ladder = {{robust::RungKind::kMultilevel, 40, 1.0},
                    {robust::RungKind::kSor, 600, 1.0},
                    {robust::RungKind::kGthDirect, 1, 1.0},
                    {robust::RungKind::kPower, 50000, 0.9}};
  const robust::RobustResult result = solve_stationary_robust(kron, options);
  EXPECT_TRUE(result.report.converged);
  std::size_t skipped = 0;
  for (const auto& rung : result.report.rungs) {
    if (rung.failure != robust::FailureCause::kSkipped) continue;
    ++skipped;
    EXPECT_NE(rung.detail.find("no explicit matrix"), std::string::npos)
        << rung.method;
  }
  EXPECT_EQ(skipped, 3u);  // multilevel, sor, gth
}

TEST(KronRobustTest, AdmissionGatePricesDescriptorAndWorkspace) {
  const CdrModel model(small_config());
  const KroneckerCdrModel kron(model);
  robust::RobustOptions options;
  options.memory_budget_bytes = 1u << 20;  // 1 MB, below the fixed overhead
  const robust::RobustResult result = solve_stationary_robust(kron, options);
  EXPECT_TRUE(result.report.admission_refused);
  EXPECT_FALSE(result.report.converged);
  EXPECT_TRUE(result.distribution.empty());
  EXPECT_GT(result.report.predicted_peak_bytes,
            result.report.memory_budget_bytes);
  EXPECT_EQ(result.report.representation, "kronecker");
  EXPECT_NE(result.report.summary().find("refused: predicted peak"),
            std::string::npos);
}

/// GMRES-free ladder: the power/Jacobi rungs reduce with serial Kahan sums,
/// so the whole solve is bitwise reproducible at any thread count.
robust::RobustOptions bit_identical_options() {
  robust::RobustOptions options;
  options.ladder = {{robust::RungKind::kJacobi, 20000, 1.0},
                    {robust::RungKind::kPower, 50000, 0.9}};
  return options;
}

TEST(KronRobustTest, SolveBitIdenticalAcrossThreadCounts) {
  const CdrModel model(small_config());
  const KroneckerCdrModel kron(model);
  // The explicit chain on the same power rung: the CSR gather SpMV keeps
  // each row's accumulation order, so it is bit-identical too.
  const CdrChain chain = model.build();
  robust::RobustOptions power_only;
  power_only.ladder = {{robust::RungKind::kPower, 50000, 0.9}};
  const std::size_t saved = par::min_parallel_work();
  par::set_min_parallel_work(1);  // force the parallel kernels on
  std::vector<std::vector<double>> runs;
  std::vector<std::vector<double>> explicit_runs;
  for (const std::size_t threads : {1u, 2u, 7u}) {
    const par::ThreadScope scope(threads);
    robust::RobustResult result =
        solve_stationary_robust(kron, bit_identical_options());
    EXPECT_TRUE(result.report.converged) << threads << " threads";
    runs.push_back(std::move(result.distribution));
    robust::RobustResult explicit_result =
        solve_stationary_robust(chain, power_only);
    EXPECT_TRUE(explicit_result.report.converged)
        << threads << " threads, explicit";
    explicit_runs.push_back(std::move(explicit_result.distribution));
  }
  par::set_min_parallel_work(saved);
  ASSERT_EQ(runs[0].size(), kron.num_states());
  ASSERT_EQ(explicit_runs[0].size(), chain.num_states());
  for (std::size_t k = 1; k < runs.size(); ++k) {
    ASSERT_EQ(runs[k].size(), runs[0].size());
    EXPECT_EQ(std::memcmp(runs[k].data(), runs[0].data(),
                          runs[0].size() * sizeof(double)),
              0)
        << "thread-count run " << k << " diverged bitwise";
    ASSERT_EQ(explicit_runs[k].size(), explicit_runs[0].size());
    EXPECT_EQ(std::memcmp(explicit_runs[k].data(), explicit_runs[0].data(),
                          explicit_runs[0].size() * sizeof(double)),
              0)
        << "explicit thread-count run " << k << " diverged bitwise";
  }
}

TEST(KronRobustTest, SolveBitIdenticalUnderTelemetry) {
  const CdrModel model(small_config());
  const KroneckerCdrModel kron(model);
  const robust::RobustOptions options = bit_identical_options();
  robust::RobustResult baseline = solve_stationary_robust(kron, options);
  ASSERT_TRUE(baseline.report.converged);

  obs::mem::detail::set_enabled_for_test(true);
  obs::prof::detail::set_enabled_for_test(true);
  robust::RobustResult traced = solve_stationary_robust(kron, options);
  obs::prof::detail::set_enabled_for_test(false);
  obs::mem::detail::set_enabled_for_test(false);

  ASSERT_EQ(traced.distribution.size(), baseline.distribution.size());
  EXPECT_EQ(std::memcmp(traced.distribution.data(),
                        baseline.distribution.data(),
                        baseline.distribution.size() * sizeof(double)),
            0)
      << "telemetry perturbed the solve";
}

TEST(KronMemTest, DescriptorStorageReportedAsComponent) {
  obs::mem::detail::set_enabled_for_test(true);
  const CdrModel model(small_config());
  const KroneckerCdrModel kron(model);
  const auto components = obs::mem::component_snapshot();
  obs::mem::detail::set_enabled_for_test(false);
  ASSERT_EQ(components.count("kron_descriptor"), 1u);
  EXPECT_EQ(components.at("kron_descriptor"), kron.storage_bytes());
}

}  // namespace
}  // namespace stocdr::cdr
