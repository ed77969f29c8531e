// The chain surface the power-family stationary solvers need.
//
// A StepOperator exposes y = P^T x, y = P x and diag(P) without committing
// to a stored matrix.  markov::MarkovChain implements it over its CSR P^T;
// the Kronecker descriptor (kronecker/step_operator.hpp) implements it
// without ever materializing P, which is what lets power, Jacobi and the
// robust ladder's GMRES rung solve 10^6-10^7-state CDR models.  Methods
// that need rows (Gauss-Seidel/SOR sweeps, aggregation multigrid, GTH)
// take a MarkovChain instead.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace stocdr::markov {

class StepOperator {
 public:
  virtual ~StepOperator() = default;

  /// Number of states (vector length of both step directions).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// One distribution step: y = P^T x.
  virtual void step(std::span<const double> x, std::span<double> y) const = 0;

  /// One backward step: y = P x (expectation recursions, audits).
  virtual void step_backward(std::span<const double> x,
                             std::span<double> y) const = 0;

  /// diag(P) — what a Jacobi sweep divides by.
  [[nodiscard]] virtual std::vector<double> diagonal() const = 0;

  /// Maximum deviation of any state's outgoing probability mass from 1,
  /// max_i |(P 1)_i - 1|: one backward step of the ones vector.
  [[nodiscard]] virtual double stochasticity_defect() const {
    const std::vector<double> ones(size(), 1.0);
    std::vector<double> row_sums(size());
    step_backward(ones, row_sums);
    double defect = 0.0;
    for (const double s : row_sums) {
      defect = std::max(defect, std::abs(s - 1.0));
    }
    return defect;
  }
};

}  // namespace stocdr::markov
