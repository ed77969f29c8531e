#include "sparse/gth.hpp"

#include <cmath>
#include <utility>

#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace stocdr::sparse {

std::vector<double> gth_stationary(DenseMatrix p) {
  STOCDR_REQUIRE(p.rows() == p.cols(),
                 "gth_stationary requires a square matrix");
  const std::size_t n = p.rows();
  STOCDR_REQUIRE(n >= 1, "gth_stationary requires a non-empty matrix");
  // p is the working copy; elimination destroys it.

  // Elimination sweep: censor states n-1, n-2, ..., 1 (0-based) one by one.
  // The subtraction-free update uses only additions, multiplications and one
  // division by a sum of probabilities per step.
  for (std::size_t k = n; k-- > 1;) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += p.at(k, j);
    if (!(s > 0.0)) {
      throw NumericalError(
          "gth_stationary: reducible chain (state with no transition into "
          "the remaining states)");
    }
    const double inv_s = 1.0 / s;
    for (std::size_t i = 0; i < k; ++i) {
      const double pik = p.at(i, k) * inv_s;
      p.at(i, k) = pik;
      if (pik == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) {
        p.at(i, j) += pik * p.at(k, j);
      }
    }
  }

  // Back-substitution: unnormalized eta, then L1 normalization.
  std::vector<double> eta(n, 0.0);
  eta[0] = 1.0;
  for (std::size_t j = 1; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < j; ++i) acc += eta[i] * p.at(i, j);
    eta[j] = acc;
  }
  normalize_l1(eta);
  return eta;
}

std::vector<double> gth_stationary(const CsrMatrix& p) {
  return gth_stationary(DenseMatrix::from_csr(p));
}

std::vector<double> gth_stationary_transposed(const CsrMatrix& pt) {
  DenseMatrix p(pt.cols(), pt.rows());
  const auto row_ptr = pt.row_ptr();
  const auto cols = pt.col_idx();
  const auto vals = pt.values();
  for (std::size_t dst = 0; dst < pt.rows(); ++dst) {
    for (std::size_t k = row_ptr[dst]; k < row_ptr[dst + 1]; ++k) {
      p.at(cols[k], dst) = vals[k];
    }
  }
  return gth_stationary(std::move(p));
}

}  // namespace stocdr::sparse
