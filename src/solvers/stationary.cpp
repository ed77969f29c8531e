#include "solvers/stationary.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/prof/roofline.hpp"
#include "obs/trace.hpp"
#include "parallel/pool.hpp"
#include "sparse/gth.hpp"
#include "support/error.hpp"
#include "support/math.hpp"
#include "support/timer.hpp"

namespace stocdr::solvers {

namespace {

obs::Counter& stationary_matvec_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("solver.stationary.matvec");
  return counter;
}

/// x /= mass, element-wise: each divide is exact, so the result does not
/// depend on the lane count.
void divide_by(std::span<double> x, double mass) {
  par::parallel_for(x.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) x[i] /= mass;
  });
}

/// The iterative solvers' common epilogue: close the residual history,
/// count the matvecs, hand over the iterate, and stamp time and span.
void finish(StationaryResult& result, ResidualRecorder& recorder,
            std::vector<double>& x, const Timer& timer, obs::Span& span) {
  recorder.finish(result.stats.residual);
  stationary_matvec_counter().add(result.stats.matvec_count);
  result.distribution = std::move(x);
  result.stats.seconds = timer.seconds();
  if (span.active()) {
    span.attr("states", result.distribution.size());
    span.attr("iterations", result.stats.iterations);
    span.attr("residual", result.stats.residual);
    span.attr("converged", result.stats.converged);
  }
}

}  // namespace

namespace detail {

std::vector<double> make_initial(const markov::StepOperator& op,
                                 std::span<const double> initial) {
  const std::size_t n = op.size();
  STOCDR_REQUIRE(n > 0, "stationary solve on an empty chain");
  if (initial.empty()) {
    return std::vector<double>(n, 1.0 / static_cast<double>(n));
  }
  STOCDR_REQUIRE(initial.size() == n,
                 "initial guess size must match the chain");
  std::vector<double> x(initial.begin(), initial.end());
  for (double& v : x) v = std::max(v, 0.0);
  normalize_l1(x);
  return x;
}

}  // namespace detail

double stationary_residual(const markov::StepOperator& op,
                           std::span<const double> x) {
  std::vector<double> y(x.size());
  op.step(x, y);
  return l1_distance(x, y);
}

StationaryResult solve_stationary_power(const markov::StepOperator& op,
                                        const SolverOptions& options,
                                        std::span<const double> initial) {
  const Timer timer;
  obs::Span span("solve.power");
  const par::ThreadScope threads(options.threads);
  StationaryResult result;
  result.stats.method = "power";
  ResidualRecorder recorder(result.stats.residual_history);
  std::vector<double> x = detail::make_initial(op, initial);
  const std::size_t n = x.size();
  std::vector<double> y(n);
  const double w = options.relaxation;
  STOCDR_REQUIRE(w > 0.0 && w <= 1.0,
                 "power iteration damping must be in (0, 1]");
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    op.step(x, y);
    ++result.stats.matvec_count;
    const double res = l1_distance(x, y);
    recorder.record(res);
    // The event carries the pre-update iterate: `res` is *its* residual, so
    // observers checkpoint a (vector, residual) pair that belongs together.
    if (!obs::notify(options.progress, "power", it + 1, res,
                     result.stats.matvec_count, x)) {
      result.stats.iterations = it + 1;
      result.stats.residual = res;
      break;  // observer cancelled (deadline / sentinel); converged stays false
    }
    {
      const obs::prof::KernelScope roofline(
          "power_update", obs::prof::power_update_bytes(n),
          obs::prof::power_update_flops(n));
      if (w == 1.0) {
        x.swap(y);
      } else {
        par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            x[i] = (1.0 - w) * x[i] + w * y[i];
          }
        });
      }
      if (std::isfinite(res)) {
        const double mass = kahan_sum(x);
        if (!(mass > 0.0) || !std::isfinite(mass)) {
          throw NumericalError(
              "normalize_l1: vector sum is zero or non-finite");
        }
        divide_by(x, mass);
      }
    }
    if (!std::isfinite(res)) {
      result.stats.residual = std::numeric_limits<double>::infinity();
      result.stats.iterations = it + 1;
      break;  // diverged; report converged = false
    }
    result.stats.iterations = it + 1;
    result.stats.residual = res;
    if (res < options.tolerance) {
      result.stats.converged = true;
      break;
    }
  }
  finish(result, recorder, x, timer, span);
  return result;
}

StationaryResult solve_stationary_jacobi(const markov::StepOperator& op,
                                         const SolverOptions& options,
                                         std::span<const double> initial) {
  const Timer timer;
  obs::Span span("solve.relaxation");
  if (span.active()) span.attr("method", std::string_view("jacobi"));
  const par::ThreadScope threads(options.threads);
  const double w = options.relaxation;
  STOCDR_REQUIRE(w > 0.0 && w <= 1.0, "Jacobi relaxation must be in (0, 1]");
  StationaryResult result;
  result.stats.method = "jacobi";
  ResidualRecorder recorder(result.stats.residual_history);
  std::vector<double> x = detail::make_initial(op, initial);
  const std::size_t n = x.size();
  std::vector<double> y(n);
  std::vector<double> next(n);

  const std::vector<double> diag = op.diagonal();
  for (const double d : diag) {
    if (!(1.0 - d > 0.0)) {
      throw NumericalError(
          "relaxation solver: absorbing state encountered (p_ii = 1)");
    }
  }

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    op.step(x, y);  // y = P^T x; row i's off-diagonal mass is y_i - p_ii x_i
    ++result.stats.matvec_count;
    {
      const obs::prof::KernelScope roofline(
          "jacobi_update", obs::prof::power_update_bytes(n),
          obs::prof::power_update_flops(n));
      par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const double acc = y[i] - diag[i] * x[i];
          next[i] = (1.0 - w) * x[i] + w * (acc / (1.0 - diag[i]));
        }
      });
    }
    const double delta = l1_distance(x, next);
    x.swap(next);
    const double mass = kahan_sum(x);
    if (!std::isfinite(delta) || !std::isfinite(mass) || !(mass > 0.0)) {
      result.stats.residual = std::numeric_limits<double>::infinity();
      result.stats.iterations = it + 1;
      finish(result, recorder, x, timer, span);
      return result;
    }
    divide_by(x, mass);
    result.stats.iterations = it + 1;
    result.stats.residual = delta;
    recorder.record(delta);
    if (!obs::notify(options.progress, "jacobi", it + 1, delta,
                     result.stats.matvec_count, x)) {
      break;  // observer cancelled; converged stays false
    }
    if (delta < options.tolerance) {
      result.stats.converged = true;
      break;
    }
  }
  // Report the true stationary residual rather than the sweep delta.
  result.stats.residual = stationary_residual(op, x);
  finish(result, recorder, x, timer, span);
  return result;
}

namespace {

/// Shared core for Gauss-Seidel / SOR: in-place row sweeps over the stored
/// P^T, so later states see values updated earlier in the same sweep.  The
/// sweep consumes what it just wrote and stays serial by construction; `w`
/// is the relaxation factor.
StationaryResult relaxation_solve(const markov::MarkovChain& chain,
                                  const SolverOptions& options,
                                  std::span<const double> initial, double w,
                                  const char* method) {
  const Timer timer;
  obs::Span span("solve.relaxation");
  if (span.active()) span.attr("method", std::string_view(method));
  const par::ThreadScope threads(options.threads);
  StationaryResult result;
  result.stats.method = method;
  ResidualRecorder recorder(result.stats.residual_history);
  const auto& pt = chain.pt();
  const std::size_t n = chain.num_states();
  std::vector<double> x = detail::make_initial(chain, initial);
  const std::vector<double> diag = chain.diagonal();

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    double delta = 0.0;  // L1 change across the sweep
    for (std::size_t i = 0; i < n; ++i) {
      // Incoming probability mass excluding the self-loop.
      double acc = 0.0;
      const auto cols = pt.row_cols(i);
      const auto vals = pt.row_values(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] != i) acc += vals[k] * x[cols[k]];
      }
      const double denom = 1.0 - diag[i];
      if (!(denom > 0.0)) {
        throw NumericalError(
            "relaxation solver: absorbing state encountered (p_ii = 1)");
      }
      const double xi_new = (1.0 - w) * x[i] + w * (acc / denom);
      delta += std::abs(xi_new - x[i]);
      x[i] = xi_new;
    }
    ++result.stats.matvec_count;
    // Divergence (e.g. over-relaxed SOR on a non-dominant chain) shows up
    // as a non-finite sweep delta or an iterate whose total mass is no
    // longer positive (overshoot into negative entries): stop and report
    // non-convergence instead of propagating NaNs.
    const double mass = kahan_sum(x);
    if (!std::isfinite(delta) || !std::isfinite(mass) || !(mass > 0.0)) {
      result.stats.residual = std::numeric_limits<double>::infinity();
      result.stats.iterations = it + 1;
      finish(result, recorder, x, timer, span);
      return result;
    }
    divide_by(x, mass);
    result.stats.iterations = it + 1;
    result.stats.residual = delta;
    recorder.record(delta);
    if (!obs::notify(options.progress, method, it + 1, delta,
                     result.stats.matvec_count, x)) {
      break;  // observer cancelled; converged stays false
    }
    if (delta < options.tolerance) {
      result.stats.converged = true;
      break;
    }
  }
  // Report the true stationary residual rather than the sweep delta.
  result.stats.residual = stationary_residual(chain, x);
  finish(result, recorder, x, timer, span);
  return result;
}

}  // namespace

StationaryResult solve_stationary_gauss_seidel(
    const markov::MarkovChain& chain, const SolverOptions& options,
    std::span<const double> initial) {
  return relaxation_solve(chain, options, initial, 1.0, "gauss-seidel");
}

StationaryResult solve_stationary_sor(const markov::MarkovChain& chain,
                                      const SolverOptions& options,
                                      std::span<const double> initial) {
  STOCDR_REQUIRE(options.relaxation > 0.0 && options.relaxation < 2.0,
                 "SOR relaxation must be in (0, 2)");
  return relaxation_solve(chain, options, initial, options.relaxation, "sor");
}

StationaryResult solve_stationary_direct(const markov::MarkovChain& chain) {
  const Timer timer;
  obs::Span span("solve.gth-direct");
  StationaryResult result;
  result.stats.method = "gth-direct";
  result.distribution = sparse::gth_stationary_transposed(chain.pt());
  result.stats.iterations = 1;
  result.stats.converged = true;
  result.stats.residual = stationary_residual(chain, result.distribution);
  result.stats.residual_history.push_back(result.stats.residual);
  result.stats.seconds = timer.seconds();
  if (span.active()) {
    span.attr("states", chain.num_states());
    span.attr("residual", result.stats.residual);
  }
  return result;
}

}  // namespace stocdr::solvers
