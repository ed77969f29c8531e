#include "markov/chain.hpp"

#include <cmath>

#include "support/error.hpp"

namespace stocdr::markov {

namespace {
constexpr double kStochasticTol = 1e-10;
}

MarkovChain::MarkovChain(sparse::CsrMatrix p_transposed, Validation validation)
    : pt_(std::move(p_transposed)) {
  STOCDR_REQUIRE(pt_.rows() == pt_.cols(),
                 "MarkovChain requires a square matrix");
  if (validation == Validation::kStrict) {
    for (const double v : pt_.values()) {
      if (!(v >= 0.0) || v > 1.0 + kStochasticTol) {
        throw PreconditionError(
            "MarkovChain: transition probabilities must lie in [0, 1]");
      }
    }
    const double defect = stochasticity_defect();
    if (defect > kStochasticTol) {
      throw PreconditionError(
          "MarkovChain: outgoing probabilities do not sum to 1 (defect " +
          std::to_string(defect) + ")");
    }
  }
}

MarkovChain MarkovChain::from_row_stochastic(const sparse::CsrMatrix& p,
                                             Validation validation) {
  return MarkovChain(p.transpose(), validation);
}

std::vector<double> MarkovChain::uniform_distribution() const {
  const std::size_t n = num_states();
  STOCDR_REQUIRE(n > 0, "MarkovChain::uniform_distribution on empty chain");
  return std::vector<double>(n, 1.0 / static_cast<double>(n));
}

std::vector<double> MarkovChain::diagonal() const {
  std::vector<double> diag(num_states());
  for (std::size_t i = 0; i < diag.size(); ++i) diag[i] = pt_.at(i, i);
  return diag;
}

double MarkovChain::stochasticity_defect() const {
  // Column sums of P^T are the per-source outgoing probability masses.
  const auto sums = pt_.col_sums();
  double defect = 0.0;
  for (const double s : sums) defect = std::max(defect, std::abs(s - 1.0));
  return defect;
}

}  // namespace stocdr::markov
