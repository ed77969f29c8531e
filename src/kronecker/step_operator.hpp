// The Kronecker descriptor viewed as a markov::StepOperator.
//
// By convention the wrapped descriptor stores P^T (one factor transpose per
// component matrix: (A (x) B)^T = A^T (x) B^T), so apply() is the
// distribution step y = P^T x and apply_transpose() is the backward step
// y = P x — matching markov::MarkovChain, whose CSR also stores P^T.
// A persistent shuffle workspace rides along, so a solver iteration costs
// zero heap allocations after the first.
#pragma once

#include "kronecker/descriptor.hpp"
#include "markov/step_operator.hpp"

namespace stocdr::kron {

class KroneckerStepOperator final : public markov::StepOperator {
 public:
  /// `descriptor` must store the TRANSPOSED transition matrix P^T and
  /// outlive this operator.
  explicit KroneckerStepOperator(const KroneckerDescriptor& descriptor)
      : descriptor_(descriptor) {}

  [[nodiscard]] std::size_t size() const override {
    return descriptor_.dimension();
  }
  void step(std::span<const double> x, std::span<double> y) const override {
    descriptor_.apply(x, y, workspace_);
  }
  void step_backward(std::span<const double> x,
                     std::span<double> y) const override {
    descriptor_.apply_transpose(x, y, workspace_);
  }
  /// diag(P) = diag(P^T), so the descriptor's diagonal is returned as-is.
  [[nodiscard]] std::vector<double> diagonal() const override {
    return descriptor_.diagonal();
  }

  [[nodiscard]] const KroneckerDescriptor& descriptor() const {
    return descriptor_;
  }

 private:
  const KroneckerDescriptor& descriptor_;
  mutable KroneckerDescriptor::Workspace workspace_;
};

}  // namespace stocdr::kron
