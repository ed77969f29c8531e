// Discrete-time Markov chain over a finite state set.
//
// The chain is stored as the *transposed* transition probability matrix
// P^T in CSR (rows indexed by destination state); see DESIGN.md section 2
// for why one orientation serves both the stationary iteration x <- P^T x
// and the first-passage iteration t <- 1 + Q t.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "markov/step_operator.hpp"
#include "sparse/csr.hpp"

namespace stocdr::markov {

/// Validation applied when constructing a MarkovChain.
enum class Validation {
  kStrict,   ///< require row-stochasticity to 1e-10 and nonnegative entries
  kNone,     ///< trust the caller (used for sub-stochastic restricted chains)
};

/// A finite discrete-time Markov chain; its StepOperator view runs over the
/// stored P^T.
class MarkovChain final : public StepOperator {
 public:
  /// Constructs from P^T (rows are destination states).
  /// With Validation::kStrict, verifies every entry is in [0, 1+eps] and the
  /// outgoing probability of every state sums to 1 within 1e-10.
  explicit MarkovChain(sparse::CsrMatrix p_transposed,
                       Validation validation = Validation::kStrict);

  /// Constructs from P in the conventional row-stochastic orientation
  /// (rows are source states).  Transposes internally.
  [[nodiscard]] static MarkovChain from_row_stochastic(
      const sparse::CsrMatrix& p, Validation validation = Validation::kStrict);

  /// Number of states.
  [[nodiscard]] std::size_t num_states() const { return pt_.rows(); }
  [[nodiscard]] std::size_t size() const override { return pt_.rows(); }

  /// Number of stored transitions.
  [[nodiscard]] std::size_t num_transitions() const { return pt_.nnz(); }

  /// The stored P^T matrix.
  [[nodiscard]] const sparse::CsrMatrix& pt() const { return pt_; }

  /// Materializes P (rows are source states).  Fresh storage; O(nnz).
  [[nodiscard]] sparse::CsrMatrix to_row_stochastic() const {
    return pt_.transpose();
  }

  /// One distribution step: y = P^T x.
  void step(std::span<const double> x, std::span<double> y) const override {
    pt_.multiply(x, y);
  }

  /// One backward step: y = P x (used by expectation recursions).
  void step_backward(std::span<const double> x,
                     std::span<double> y) const override {
    pt_.multiply_transpose(x, y);
  }

  /// diag(P) = diag(P^T), one entry lookup per row.
  [[nodiscard]] std::vector<double> diagonal() const override;

  /// Transition probability p(src -> dst).
  [[nodiscard]] double probability(std::size_t src, std::size_t dst) const {
    return pt_.at(dst, src);
  }

  /// Uniform distribution over all states.
  [[nodiscard]] std::vector<double> uniform_distribution() const;

  /// Maximum deviation of any state's outgoing probability mass from 1
  /// (column sums of the stored P^T).
  [[nodiscard]] double stochasticity_defect() const override;

  /// Heap bytes held by the stored P^T arrays (see
  /// CsrMatrix::footprint_bytes).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return pt_.footprint_bytes();
  }

 private:
  sparse::CsrMatrix pt_;
};

}  // namespace stocdr::markov
