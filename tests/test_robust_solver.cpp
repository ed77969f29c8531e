// Fault-tolerant solve orchestration: fallback ladder, divergence
// sentinels, checkpoint/restart, budgets, input repair, and graceful
// degradation (src/robust/).
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "markov/chain.hpp"
#include "markov/step_operator.hpp"
#include "robust/robust_solver.hpp"
#include "robust/sentinel.hpp"
#include "solvers/aggregation.hpp"
#include "solvers/stationary.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"
#include "test_util.hpp"

namespace stocdr::robust {
namespace {

using markov::MarkovChain;

std::vector<double> gth_reference(const MarkovChain& chain) {
  return solvers::solve_stationary_direct(chain).distribution;
}

// --- happy path -------------------------------------------------------------

TEST(RobustSolverTest, HealthyChainConvergesOnFirstRung) {
  const MarkovChain chain(test::random_sparse_stochastic_pt(200, 6, 11));
  const auto hierarchy =
      solvers::build_index_pair_hierarchy(chain.num_states(), 20);
  RobustOptions options;
  options.multilevel.coarsest_size = 20;
  const RobustResult result =
      solve_stationary_robust(chain, hierarchy, options);

  EXPECT_TRUE(result.report.converged);
  EXPECT_EQ(result.report.rungs.size(), 1u);
  EXPECT_EQ(result.report.rungs[0].failure, FailureCause::kNone);
  EXPECT_FALSE(result.report.repaired);
  EXPECT_FALSE(result.report.degraded);
  EXPECT_LT(result.report.residual, 1e-11);
  EXPECT_LT(test::l1(result.distribution, gth_reference(chain)), 1e-8);
}

TEST(RobustSolverTest, ReportSummaryAndJsonAreStructured) {
  const MarkovChain chain(test::birth_death_pt(40, 0.3, 0.2));
  const RobustResult result = solve_stationary_robust(chain);
  EXPECT_NE(result.report.summary().find("converged via"), std::string::npos);
  const std::string json = result.report.to_json();
  for (const char* key :
       {"\"converged\":", "\"rungs\":", "\"residual\":", "\"states\":",
        "\"checkpoints\":", "\"final_method\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

// --- acceptance (a): escalation past a failing first rung -------------------

TEST(RobustSolverTest, StalledMultilevelEscalatesToLowerRung) {
  // An index-pair hierarchy does not match this random chain's structure,
  // and the multilevel rung is starved to a single cycle — it cannot reach
  // tolerance, so the ladder must escalate to a lower rung.
  const MarkovChain chain(test::random_sparse_stochastic_pt(200, 6, 11));
  const auto hierarchy =
      solvers::build_index_pair_hierarchy(chain.num_states(), 4);
  RobustOptions options;
  options.ladder = {
      {RungKind::kMultilevel, 1, 1.0},
      {RungKind::kGmresStationary, 300, 1.0},
      {RungKind::kSor, 20000, 1.0},
      {RungKind::kGthDirect, 1, 1.0},
  };
  options.multilevel.coarsest_size = 4;  // forbid the internal direct solve
  const RobustResult result =
      solve_stationary_robust(chain, hierarchy, options);

  EXPECT_TRUE(result.report.converged);
  ASSERT_GE(result.report.rungs.size(), 2u);
  EXPECT_NE(result.report.rungs[0].failure, FailureCause::kNone);
  // Every later rung records why its predecessor failed.
  EXPECT_EQ(result.report.rungs[1].predecessor_failure,
            to_string(result.report.rungs[0].failure));
  EXPECT_EQ(result.report.rungs.back().failure, FailureCause::kNone);
  EXPECT_LT(test::l1(result.distribution, gth_reference(chain)), 1e-8);
}

TEST(RobustSolverTest, PeriodicChainTriggersStallSentinel) {
  // The two-state swap chain is periodic: undamped power iteration orbits
  // forever with a constant residual, which is exactly what the stall
  // sentinel exists to catch.
  sparse::CooBuilder builder(2, 2);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  const MarkovChain chain(builder.to_csr());

  RobustOptions options;
  options.ladder = {
      {RungKind::kPower, 100000, 1.0},  // undamped on purpose
      {RungKind::kGthDirect, 1, 1.0},
  };
  const std::vector<double> initial = {0.75, 0.25};
  const RobustResult result =
      solve_stationary_robust(chain, {}, options, initial);

  ASSERT_EQ(result.report.rungs.size(), 2u);
  EXPECT_EQ(result.report.rungs[0].failure, FailureCause::kStalled);
  EXPECT_NE(result.report.rungs[0].detail.find("consecutive"),
            std::string::npos);
  EXPECT_TRUE(result.report.converged);
  EXPECT_EQ(result.report.final_method, "gth-direct");
  EXPECT_NEAR(result.distribution[0], 0.5, 1e-12);
  EXPECT_NEAR(result.distribution[1], 0.5, 1e-12);
}

// --- one ladder for both representations ------------------------------------

TEST(RobustSolverTest, ChainAndOperatorEntriesRunOneLadder) {
  // GMRES and power need only steps, so the chain entry and the same chain
  // seen as a bare StepOperator must run the same rungs to the same bits.
  // One restart cycle leaves GMRES short of 1e-12 on this two-successor
  // random chain, so the power rung runs too, warm-started from GMRES.
  const MarkovChain chain(test::random_sparse_stochastic_pt(500, 1, 7));
  RobustOptions options;
  options.ladder = {{RungKind::kGmresStationary, 1, 1.0},
                    {RungKind::kPower, 50000, 0.9}};
  const RobustResult via_chain = solve_stationary_robust(chain, {}, options);
  const RobustResult via_operator = solve_stationary_robust(
      static_cast<const markov::StepOperator&>(chain), options);

  EXPECT_TRUE(via_chain.report.converged);
  ASSERT_EQ(via_chain.report.rungs.size(), via_operator.report.rungs.size());
  for (std::size_t r = 0; r < via_chain.report.rungs.size(); ++r) {
    EXPECT_EQ(via_chain.report.rungs[r].method,
              via_operator.report.rungs[r].method);
    EXPECT_EQ(via_chain.report.rungs[r].failure,
              via_operator.report.rungs[r].failure)
        << via_chain.report.rungs[r].method;
  }
  ASSERT_EQ(via_chain.distribution.size(), chain.num_states());
  ASSERT_EQ(via_operator.distribution.size(), chain.num_states());
  EXPECT_EQ(std::memcmp(via_chain.distribution.data(),
                        via_operator.distribution.data(),
                        chain.num_states() * sizeof(double)),
            0);
}

// --- acceptance (b): NaN mid-solve -> checkpoint/restart --------------------

TEST(RobustSolverTest, InjectedNanTriggersCheckpointRestart) {
  const MarkovChain chain(test::birth_death_pt(80, 0.3, 0.2));
  bool injected = false;
  auto inject = [&](const obs::ProgressEvent& event) -> double {
    if (!injected && event.iteration == 60 &&
        std::string_view(event.method) == "power") {
      injected = true;
      return std::numeric_limits<double>::quiet_NaN();
    }
    return event.residual;
  };
  RobustOptions options;
  options.ladder = {
      {RungKind::kPower, 5000, 0.9},
      {RungKind::kSor, 20000, 1.0},
      {RungKind::kGthDirect, 1, 1.0},
  };
  options.fault_injector = FaultInjector(inject);
  // The early damped-power transient reduces the residual slowly; keep the
  // stall sentinel out of the way so the injected fault is what fires.
  options.stall_window = 1000;
  const RobustResult result = solve_stationary_robust(chain, {}, options);

  EXPECT_TRUE(injected);
  ASSERT_GE(result.report.rungs.size(), 2u);
  EXPECT_EQ(result.report.rungs[0].failure, FailureCause::kNumericalFault);
  EXPECT_NE(result.report.rungs[0].detail.find("non-finite"),
            std::string::npos);
  // The fault hit after several sentinel checks, so a checkpoint exists and
  // the next rung restarts from it instead of from scratch.
  EXPECT_GE(result.report.rungs[0].checkpoints, 1u);
  EXPECT_GE(result.report.checkpoints_taken, 1u);
  EXPECT_TRUE(result.report.rungs[1].warm_started);
  EXPECT_LT(result.report.rungs[1].initial_residual, 1.0);
  EXPECT_TRUE(result.report.converged);
  EXPECT_LT(test::l1(result.distribution, gth_reference(chain)), 1e-8);
}

// --- acceptance (c): zero deadline -> structured timeout --------------------

TEST(RobustSolverTest, ZeroDeadlineYieldsStructuredTimeout) {
  const MarkovChain chain(test::birth_death_pt(60, 0.3, 0.2));
  RobustOptions options;
  options.time_budget_seconds = 0.0;
  RobustResult result;
  ASSERT_NO_THROW(result = solve_stationary_robust(chain, {}, options));

  EXPECT_TRUE(result.report.deadline_exceeded);
  EXPECT_FALSE(result.report.converged);
  ASSERT_FALSE(result.report.rungs.empty());
  EXPECT_EQ(result.report.rungs[0].failure, FailureCause::kDeadlineExceeded);
  // The last-good iterate is attached: a normalized distribution with the
  // residual the report claims for it.
  ASSERT_EQ(result.distribution.size(), chain.num_states());
  double sum = 0.0;
  for (const double v : result.distribution) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_TRUE(std::isfinite(result.report.residual));
  EXPECT_NE(result.report.summary().find("deadline"), std::string::npos);
}

// --- input validation gate --------------------------------------------------

MarkovChain defective_chain(std::size_t n, double scale) {
  // birth_death_pt with one state's outgoing mass scaled by `scale`.
  sparse::CooBuilder builder(n, n);
  const double p = 0.3, q = 0.2;
  for (std::size_t i = 0; i < n; ++i) {
    const double s = i == n / 2 ? scale : 1.0;
    double stay = 1.0 - p - q;
    if (i == 0) stay += q; else builder.add(i - 1, i, q * s);
    if (i + 1 == n) stay += p; else builder.add(i + 1, i, p * s);
    builder.add(i, i, stay * s);
  }
  return MarkovChain(builder.to_csr(), markov::Validation::kNone);
}

TEST(RobustSolverTest, SmallStochasticityDefectIsRepaired) {
  const MarkovChain chain = defective_chain(50, 1.0 + 1e-8);
  const RobustSolver solver(chain, {}, {});
  EXPECT_TRUE(solver.repaired());
  EXPECT_LT(solver.chain().stochasticity_defect(), 1e-12);

  const RobustResult result = solver.solve();
  EXPECT_TRUE(result.report.repaired);
  EXPECT_GT(result.report.stochasticity_defect, 1e-9);
  EXPECT_TRUE(result.report.converged);
  EXPECT_NE(result.report.summary().find("[input repaired]"),
            std::string::npos);
  // The repaired chain is plain birth-death: match its closed form.
  EXPECT_LT(test::l1(result.distribution,
                     test::birth_death_stationary(50, 0.3, 0.2)),
            1e-8);
}

TEST(RobustSolverTest, LargeDefectIsRejected) {
  const MarkovChain chain = defective_chain(50, 1.01);  // defect ~1e-2
  EXPECT_THROW((void)RobustSolver(chain, {}, {}), PreconditionError);
}

TEST(RobustSolverTest, CleanChainIsNotCopied) {
  const MarkovChain chain(test::birth_death_pt(30, 0.3, 0.2));
  const RobustSolver solver(chain, {}, {});
  EXPECT_FALSE(solver.repaired());
  EXPECT_EQ(&solver.chain(), &chain);
}

// --- graceful degradation ---------------------------------------------------

TEST(RobustSolverTest, StateCeilingDegradesThroughHierarchy) {
  // Fast-mixing chain: the coarse solution plus smoothing must land close.
  const MarkovChain chain(test::random_sparse_stochastic_pt(128, 6, 5));
  const auto hierarchy =
      solvers::build_index_pair_hierarchy(chain.num_states(), 8);
  RobustOptions options;
  options.max_states = 40;  // force lumping 128 -> 64 -> 32
  options.degrade_smooth_sweeps = 50;
  const RobustResult result =
      solve_stationary_robust(chain, hierarchy, options);

  EXPECT_TRUE(result.report.degraded);
  EXPECT_LE(result.report.degraded_states, 40u);
  EXPECT_GE(result.report.degraded_states, 16u);
  ASSERT_EQ(result.distribution.size(), chain.num_states());
  // The accuracy loss is measured on the fine chain and reported.
  EXPECT_TRUE(std::isfinite(result.report.degradation_residual));
  EXPECT_GT(result.report.degradation_residual, 0.0);
  EXPECT_EQ(result.report.residual, result.report.degradation_residual);
  EXPECT_NE(result.report.summary().find("[degraded to"), std::string::npos);
  // Coarse + smoothing is approximate but must stay in the right ballpark.
  EXPECT_LT(test::l1(result.distribution, gth_reference(chain)), 0.2);
}

// --- sentinel unit behaviour ------------------------------------------------

obs::ProgressEvent event_at(std::size_t iteration, double residual,
                            std::span<const double> iterate = {}) {
  obs::ProgressEvent event;
  event.method = "test";
  event.iteration = iteration;
  event.residual = residual;
  event.iterate = iterate;
  return event;
}

TEST(SolveSentinelTest, DivergenceStopsTheSolve) {
  SolveSentinel::Options options;
  options.stride = 1;
  options.divergence_factor = 10.0;
  SolveSentinel sentinel(options);
  EXPECT_EQ(sentinel(event_at(1, 1.0)), obs::ProgressAction::kContinue);
  EXPECT_EQ(sentinel(event_at(2, 0.5)), obs::ProgressAction::kContinue);
  EXPECT_EQ(sentinel(event_at(3, 50.0)), obs::ProgressAction::kStop);
  EXPECT_EQ(sentinel.verdict(), FailureCause::kDiverged);
}

TEST(SolveSentinelTest, CheckpointsTrackTheBestIterate) {
  SolveSentinel::Options options;
  options.stride = 1;
  SolveSentinel sentinel(options);
  const std::vector<double> a = {0.9, 0.1};
  const std::vector<double> b = {0.6, 0.4};
  const std::vector<double> worse = {0.99, 0.01};
  EXPECT_EQ(sentinel(event_at(1, 0.5, a)), obs::ProgressAction::kContinue);
  EXPECT_EQ(sentinel(event_at(2, 0.1, b)), obs::ProgressAction::kContinue);
  EXPECT_EQ(sentinel(event_at(3, 0.4, worse)),
            obs::ProgressAction::kContinue);
  EXPECT_EQ(sentinel.checkpoint(), b);
  EXPECT_EQ(sentinel.checkpoint_residual(), 0.1);
  EXPECT_EQ(sentinel.checkpoints_taken(), 2u);
}

TEST(SolveSentinelTest, ForwardsToTheUserObserver) {
  std::size_t forwarded = 0;
  auto user = [&](const obs::ProgressEvent&) {
    ++forwarded;
    return obs::ProgressAction::kContinue;
  };
  SolveSentinel::Options options;
  options.forward = obs::ProgressObserver(user);
  SolveSentinel sentinel(options);
  EXPECT_EQ(sentinel(event_at(1, 1.0)), obs::ProgressAction::kContinue);
  EXPECT_EQ(sentinel(event_at(2, 0.9)), obs::ProgressAction::kContinue);
  EXPECT_EQ(forwarded, 2u);
}

}  // namespace
}  // namespace stocdr::robust
