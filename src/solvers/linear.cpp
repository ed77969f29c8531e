#include "solvers/linear.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/pool.hpp"
#include "parallel/reduce.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"
#include "support/math.hpp"
#include "support/timer.hpp"

namespace stocdr::solvers {

TransientOperator::TransientOperator(const sparse::CsrMatrix& qt)
    : qt_(&qt), scratch_(qt.rows()) {
  STOCDR_REQUIRE(qt.rows() == qt.cols(),
                 "TransientOperator requires a square matrix");
  const std::size_t n = qt.rows();
  diag_.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) diag_[i] -= qt.at(i, i);
}

void TransientOperator::apply(std::span<const double> x,
                              std::span<double> y) const {
  STOCDR_REQUIRE(x.size() == size() && y.size() == size(),
                 "TransientOperator::apply size mismatch");
  // y = x - Q x; Q x is the scatter product of the stored Q^T.
  qt_->multiply_transpose(x, scratch_);
  par::parallel_for(x.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) y[i] = x[i] - scratch_[i];
  });
}

namespace {

/// Builds the row-major CSR of A = I - Q from the stored Q^T.
sparse::CsrMatrix build_a_from_qt(const sparse::CsrMatrix& qt) {
  const std::size_t n = qt.rows();
  sparse::CooBuilder builder(n, n);
  builder.reserve(qt.nnz() + n);
  for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 1.0);
  qt.for_each([&builder](std::size_t dst, std::size_t src, double v) {
    builder.add(src, dst, -v);
  });
  return builder.to_csr();
}

/// Galerkin sum A_c = P^T A P for a piecewise-constant prolongation.
sparse::CsrMatrix galerkin_aggregate(const sparse::CsrMatrix& a,
                                     const markov::Partition& part) {
  sparse::CooBuilder builder(part.num_groups(), part.num_groups());
  builder.reserve(a.nnz());
  a.for_each([&](std::size_t r, std::size_t c, double v) {
    builder.add(part.group(r), part.group(c), v);
  });
  return builder.to_csr();
}

std::vector<double> extract_diagonal(const sparse::CsrMatrix& a) {
  std::vector<double> d(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) d[i] = a.at(i, i);
  return d;
}

/// x <- x + w D^{-1} (b - A x).
void jacobi_sweep(const sparse::CsrMatrix& a, const std::vector<double>& diag,
                  double w, std::span<const double> b, std::span<double> x,
                  std::vector<double>& scratch) {
  a.multiply(x, scratch);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = diag[i] != 0.0 ? diag[i] : 1.0;
    x[i] += w * (b[i] - scratch[i]) / d;
  }
}

}  // namespace

AggregationPreconditioner::AggregationPreconditioner(
    const sparse::CsrMatrix& qt,
    const std::vector<markov::Partition>& hierarchy, const Options& options)
    : options_(options) {
  sparse::CsrMatrix a = build_a_from_qt(qt);
  std::size_t level = 0;
  for (;;) {
    Level lv{std::move(a), {}, markov::Partition::identity(1), false};
    lv.diag = extract_diagonal(lv.a);
    const std::size_t n = lv.a.rows();
    const bool can_coarsen = level < hierarchy.size() &&
                             hierarchy[level].num_states() == n &&
                             hierarchy[level].num_groups() < n;
    if (n <= options_.coarsest_size || !can_coarsen) {
      levels_.push_back(std::move(lv));
      break;
    }
    lv.partition = hierarchy[level];
    lv.has_partition = true;
    a = galerkin_aggregate(lv.a, lv.partition);
    levels_.push_back(std::move(lv));
    ++level;
  }
  // Direct factorization of the coarsest level when it is small enough;
  // otherwise the V-cycle bottoms out with extra smoothing.
  const Level& bottom = levels_.back();
  if (bottom.a.rows() <= options_.coarsest_size) {
    try {
      coarsest_lu_ = std::make_unique<sparse::LuFactorization>(
          sparse::DenseMatrix::from_csr(bottom.a));
    } catch (const NumericalError&) {
      coarsest_lu_.reset();  // singular coarse operator: smooth instead
    }
  }
}

void AggregationPreconditioner::apply(std::span<const double> r,
                                      std::span<double> z) const {
  STOCDR_REQUIRE(r.size() == levels_.front().a.rows() && z.size() == r.size(),
                 "AggregationPreconditioner::apply size mismatch");
  std::fill(z.begin(), z.end(), 0.0);
  vcycle(0, r, z);
}

void AggregationPreconditioner::vcycle(std::size_t level,
                                       std::span<const double> b,
                                       std::span<double> x) const {
  const Level& lv = levels_[level];
  const std::size_t n = lv.a.rows();
  std::vector<double> scratch(n);

  if (level + 1 == levels_.size()) {
    if (coarsest_lu_) {
      const auto solved = coarsest_lu_->solve(b);
      std::copy(solved.begin(), solved.end(), x.begin());
    } else {
      constexpr std::size_t kBottomSweeps = 30;
      for (std::size_t s = 0; s < kBottomSweeps; ++s) {
        jacobi_sweep(lv.a, lv.diag, options_.smoothing_damping, b, x, scratch);
      }
    }
    return;
  }

  for (std::size_t s = 0; s < options_.pre_smooth; ++s) {
    jacobi_sweep(lv.a, lv.diag, options_.smoothing_damping, b, x, scratch);
  }

  // Residual restriction: r_c = P^T (b - A x).
  lv.a.multiply(x, scratch);
  std::vector<double> residual(n);
  for (std::size_t i = 0; i < n; ++i) residual[i] = b[i] - scratch[i];
  std::vector<double> coarse_b =
      markov::restrict_sum(lv.partition, residual);

  std::vector<double> coarse_x(coarse_b.size(), 0.0);
  vcycle(level + 1, coarse_b, coarse_x);

  // Prolongation: x += P e_c (piecewise-constant injection).
  for (std::size_t i = 0; i < n; ++i) x[i] += coarse_x[lv.partition.group(i)];

  for (std::size_t s = 0; s < options_.post_smooth; ++s) {
    jacobi_sweep(lv.a, lv.diag, options_.smoothing_damping, b, x, scratch);
  }
}

namespace {

double l2_norm(std::span<const double> v) { return par::l2_norm(v); }

/// w[i] -= c * u[i] over [begin, end).  Pointers and coefficient arrive as
/// values: read through a closure or a reference, a double that the store
/// to w[i] may alias would be reloaded for every element.
void subtract_scaled(double* w, const double* u, double c, std::size_t begin,
                     std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) w[i] -= c * u[i];
}

obs::Counter& linear_matvec_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("solver.linear.matvec");
  return counter;
}

obs::Counter& breakdown_counter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::instance().counter("solver.linear.breakdowns");
  return counter;
}

/// Shared epilogue of the linear solvers: history tail, metrics, span attrs.
void finish_linear(LinearResult& result, ResidualRecorder& recorder,
                   obs::Span& span, std::size_t n, const Timer& timer) {
  recorder.finish(result.stats.residual);
  linear_matvec_counter().add(result.stats.matvec_count);
  if (!result.stats.breakdown.empty()) breakdown_counter().add(1);
  result.stats.seconds = timer.seconds();
  if (span.active()) {
    span.attr("method", std::string_view(result.stats.method));
    span.attr("unknowns", n);
    span.attr("iterations", result.stats.iterations);
    span.attr("residual", result.stats.residual);
    span.attr("converged", result.stats.converged);
    if (!result.stats.breakdown.empty()) {
      span.attr("breakdown", std::string_view(result.stats.breakdown));
    }
  }
}

}  // namespace

LinearResult gmres(const LinearOperator& op, std::span<const double> b,
                   const SolverOptions& options, std::size_t restart,
                   const Preconditioner& preconditioner) {
  const Timer timer;
  obs::Span span("solve.linear");
  const par::ThreadScope thread_scope(options.threads);
  const std::size_t n = op.size();
  STOCDR_REQUIRE(b.size() == n, "gmres: rhs size mismatch");
  STOCDR_REQUIRE(restart >= 1, "gmres: restart must be positive");
  const std::size_t m = std::min(restart, n);

  LinearResult result;
  result.stats.method = preconditioner ? "gmres+amg" : "gmres";
  ResidualRecorder recorder(result.stats.residual_history);
  std::vector<double> x(n, 0.0);
  const double bnorm = l2_norm(b);
  if (bnorm == 0.0) {
    result.solution = std::move(x);
    result.stats.converged = true;
    finish_linear(result, recorder, span, n, timer);
    return result;
  }

  // Krylov basis (m+1 vectors) and Hessenberg factor in Givens form.
  std::vector<std::vector<double>> v(m + 1, std::vector<double>(n));
  std::vector<std::vector<double>> h(m + 1, std::vector<double>(m, 0.0));
  std::vector<double> cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);
  std::vector<double> scratch(n), precond_out(n);

  const auto apply_preconditioned = [&](std::span<const double> in,
                                        std::span<double> out) {
    if (preconditioner) {
      preconditioner(in, precond_out);
      op.apply(precond_out, out);
    } else {
      op.apply(in, out);
    }
    ++result.stats.matvec_count;
  };

  double true_residual = 1.0;
  for (std::size_t outer = 0; outer < options.max_iterations; ++outer) {
    // r = b - A x.
    op.apply(x, scratch);
    ++result.stats.matvec_count;
    par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) v[0][i] = b[i] - scratch[i];
    });
    const double rnorm = l2_norm(v[0]);
    true_residual = rnorm / bnorm;
    result.stats.residual = true_residual;
    recorder.record(true_residual);
    if (!obs::notify(options.progress, result.stats.method.c_str(), outer + 1,
                     true_residual, result.stats.matvec_count, x)) {
      break;  // observer cancelled; converged stays false
    }
    if (true_residual < options.tolerance) {
      result.stats.converged = true;
      break;
    }
    for (double& vi : v[0]) vi /= rnorm;
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = rnorm;

    std::size_t k = 0;
    for (; k < m; ++k) {
      apply_preconditioned(v[k], v[k + 1]);
      // Modified Gram-Schmidt.
      double* w = v[k + 1].data();
      for (std::size_t j = 0; j <= k; ++j) {
        const double dot = par::dot(v[k + 1], v[j]);
        h[j][k] = dot;
        par::parallel_for(n, [w, u = v[j].data(), dot](std::size_t begin,
                                                        std::size_t end) {
          subtract_scaled(w, u, dot, begin, end);
        });
      }
      const double norm = l2_norm(v[k + 1]);
      h[k + 1][k] = norm;
      if (norm > 0.0) {
        for (std::size_t i = 0; i < n; ++i) w[i] /= norm;
      }
      // Apply existing Givens rotations to the new column.
      for (std::size_t j = 0; j < k; ++j) {
        const double t = cs[j] * h[j][k] + sn[j] * h[j + 1][k];
        h[j + 1][k] = -sn[j] * h[j][k] + cs[j] * h[j + 1][k];
        h[j][k] = t;
      }
      // New rotation annihilating h[k+1][k].
      const double denom = std::hypot(h[k][k], h[k + 1][k]);
      cs[k] = denom == 0.0 ? 1.0 : h[k][k] / denom;
      sn[k] = denom == 0.0 ? 0.0 : h[k + 1][k] / denom;
      h[k][k] = denom;
      h[k + 1][k] = 0.0;
      g[k + 1] = -sn[k] * g[k];
      g[k] = cs[k] * g[k];
      if (std::abs(g[k + 1]) / bnorm < options.tolerance) {
        ++k;
        break;
      }
    }

    // Back-substitute for the Krylov coefficients.
    std::vector<double> y(k, 0.0);
    for (std::size_t j = k; j-- > 0;) {
      double acc = g[j];
      for (std::size_t l = j + 1; l < k; ++l) acc -= h[j][l] * y[l];
      y[j] = h[j][j] != 0.0 ? acc / h[j][j] : 0.0;
    }
    // Update x (undo right preconditioning on the correction).  Swapping
    // the (j, i) loop nest keeps each element's additions in ascending-j
    // order, so the parallel split over i reproduces the serial result.
    std::vector<double> correction(n, 0.0);
    par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < k; ++j) acc += y[j] * v[j][i];
        correction[i] = acc;
      }
    });
    if (preconditioner) {
      preconditioner(correction, scratch);
      par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) x[i] += scratch[i];
      });
    } else {
      par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) x[i] += correction[i];
      });
    }
    result.stats.iterations = outer + 1;
  }

  result.solution = std::move(x);
  finish_linear(result, recorder, span, n, timer);
  return result;
}

LinearResult bicgstab(const LinearOperator& op, std::span<const double> b,
                      const SolverOptions& options,
                      const Preconditioner& preconditioner) {
  const Timer timer;
  obs::Span span("solve.linear");
  const par::ThreadScope thread_scope(options.threads);
  const std::size_t n = op.size();
  STOCDR_REQUIRE(b.size() == n, "bicgstab: rhs size mismatch");
  LinearResult result;
  result.stats.method = preconditioner ? "bicgstab+amg" : "bicgstab";
  ResidualRecorder recorder(result.stats.residual_history);

  std::vector<double> x(n, 0.0), r(b.begin(), b.end());
  const double bnorm = l2_norm(b);
  if (bnorm == 0.0) {
    result.solution = std::move(x);
    result.stats.converged = true;
    finish_linear(result, recorder, span, n, timer);
    return result;
  }
  const std::vector<double> r0(r);  // shadow residual
  std::vector<double> p(n, 0.0), v(n, 0.0), s(n), t(n), z(n), y(n);
  double rho = 1.0, alpha = 1.0, omega = 1.0;

  const auto precondition = [&](std::span<const double> in,
                                std::span<double> out) {
    if (preconditioner) {
      preconditioner(in, out);
    } else {
      std::copy(in.begin(), in.end(), out.begin());
    }
  };
  const auto dot = [](const std::vector<double>& a,
                      const std::vector<double>& c) {
    return par::dot(a, c);
  };

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double rho_next = dot(r0, r);
    if (rho_next == 0.0) {
      // Lanczos breakdown: the shadow residual became orthogonal to the
      // residual.  Restart is not implemented; surface the condition so the
      // caller sees a structured breakdown, not a silent non-convergence.
      result.stats.breakdown =
          "rho = (r0, r) vanished at iteration " + std::to_string(it + 1);
      break;
    }
    if (it == 0) {
      p = r;
    } else {
      const double beta = (rho_next / rho) * (alpha / omega);
      par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
      });
    }
    rho = rho_next;

    precondition(p, y);
    op.apply(y, v);
    ++result.stats.matvec_count;
    const double r0v = dot(r0, v);
    if (r0v == 0.0) {
      result.stats.breakdown =
          "(r0, A p) vanished at iteration " + std::to_string(it + 1);
      break;
    }
    alpha = rho / r0v;
    par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) s[i] = r[i] - alpha * v[i];
    });

    if (l2_norm(s) / bnorm < options.tolerance) {
      for (std::size_t i = 0; i < n; ++i) x[i] += alpha * y[i];
      result.stats.iterations = it + 1;
      result.stats.residual = l2_norm(s) / bnorm;
      result.stats.converged = true;
      recorder.record(result.stats.residual);
      (void)obs::notify(options.progress, result.stats.method.c_str(), it + 1,
                        result.stats.residual, result.stats.matvec_count, x);
      break;
    }

    precondition(s, z);
    op.apply(z, t);
    ++result.stats.matvec_count;
    const double tt = dot(t, t);
    if (tt == 0.0) {
      result.stats.breakdown =
          "(t, t) vanished at iteration " + std::to_string(it + 1);
      break;
    }
    omega = dot(t, s) / tt;
    par::parallel_for(n, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        x[i] += alpha * y[i] + omega * z[i];
        r[i] = s[i] - omega * t[i];
      }
    });
    result.stats.iterations = it + 1;
    result.stats.residual = l2_norm(r) / bnorm;
    recorder.record(result.stats.residual);
    if (!obs::notify(options.progress, result.stats.method.c_str(), it + 1,
                     result.stats.residual, result.stats.matvec_count, x)) {
      break;  // observer cancelled; converged stays false
    }
    if (result.stats.residual < options.tolerance) {
      result.stats.converged = true;
      break;
    }
    if (omega == 0.0) {
      result.stats.breakdown =
          "stabilizer omega vanished at iteration " + std::to_string(it + 1);
      break;
    }
  }
  result.solution = std::move(x);
  finish_linear(result, recorder, span, n, timer);
  return result;
}

LinearResult jacobi_linear(const TransientOperator& op,
                           std::span<const double> b,
                           const SolverOptions& options) {
  const Timer timer;
  obs::Span span("solve.linear");
  const par::ThreadScope thread_scope(options.threads);
  const std::size_t n = op.size();
  STOCDR_REQUIRE(b.size() == n, "jacobi_linear: rhs size mismatch");
  LinearResult result;
  result.stats.method = "jacobi-linear";
  ResidualRecorder recorder(result.stats.residual_history);
  std::vector<double> x(n, 0.0);
  std::vector<double> ax(n);
  const double bnorm = std::max(par::l1_norm(b), 1e-300);
  const double w = options.relaxation;
  // Fused update + residual-norm reduction: each lane accumulates its own
  // partial rnorm over a contiguous element range; partials merge in lane
  // order (identical to serial when one lane runs).
  std::vector<double> rnorm_partials;
  const auto sweep = [&](std::size_t begin, std::size_t end, double* partial) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double r = b[i] - ax[i];
      acc += std::abs(r);
      const double d = op.diagonal()[i] != 0.0 ? op.diagonal()[i] : 1.0;
      x[i] += w * r / d;
    }
    *partial = acc;
  };
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    op.apply(x, ax);
    ++result.stats.matvec_count;
    const std::size_t lanes = par::lanes_for(n);
    rnorm_partials.assign(lanes, 0.0);
    if (lanes <= 1) {
      sweep(0, n, rnorm_partials.data());
    } else {
      par::run_lanes(lanes, [&](std::size_t lane) {
        const par::Range range = par::even_range(n, lanes, lane);
        sweep(range.begin, range.end, &rnorm_partials[lane]);
      });
    }
    double rnorm = 0.0;
    for (const double partial : rnorm_partials) rnorm += partial;
    result.stats.iterations = it + 1;
    result.stats.residual = rnorm / bnorm;
    recorder.record(result.stats.residual);
    if (!obs::notify(options.progress, "jacobi-linear", it + 1,
                     result.stats.residual, result.stats.matvec_count, x)) {
      break;  // observer cancelled; converged stays false
    }
    if (result.stats.residual < options.tolerance) {
      result.stats.converged = true;
      break;
    }
  }
  result.solution = std::move(x);
  finish_linear(result, recorder, span, n, timer);
  return result;
}

}  // namespace stocdr::solvers
