// Grassmann–Taksar–Heyman (GTH) direct stationary-distribution solver.
//
// GTH is a subtraction-free Gaussian elimination specialized to stochastic
// matrices: the diagonal is recomputed from off-diagonal row sums at every
// step, so no cancellation occurs and the computed stationary vector is
// accurate to machine precision even for stiff chains (probabilities spanning
// many orders of magnitude — exactly the regime of BER ~ 1e-12 analysis).
//
// This is the "direct method" that solves the coarsest level of the paper's
// multigrid hierarchy exactly, and the oracle against which every iterative
// solver is validated in the test suite.  Cost is O(n^3) dense, so use only
// for small n (the multigrid driver enforces a threshold).
#pragma once

#include <span>
#include <vector>

#include "sparse/dense.hpp"

namespace stocdr::sparse {

class CsrMatrix;

/// Computes the stationary distribution eta with eta P = eta, sum(eta) = 1,
/// for an irreducible row-stochastic matrix P given densely.
/// Throws NumericalError if the chain is reducible (elimination encounters a
/// state with no remaining outgoing probability).  `p` is the elimination's
/// working copy: pass an rvalue to hand it over without a copy.
[[nodiscard]] std::vector<double> gth_stationary(DenseMatrix p);

/// Same, for P given in CSR (rows are source states).  Densifies internally.
[[nodiscard]] std::vector<double> gth_stationary(const CsrMatrix& p);

/// Same, for P given *transposed* in CSR (the library's stored orientation:
/// rows of the argument are destination states).
[[nodiscard]] std::vector<double> gth_stationary_transposed(
    const CsrMatrix& p_transposed);

}  // namespace stocdr::sparse
