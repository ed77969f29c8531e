#include "kronecker/descriptor.hpp"

#include <algorithm>
#include <cstdint>

#include "kronecker/kron.hpp"

#include "obs/prof/roofline.hpp"
#include "parallel/pool.hpp"
#include "sparse/coo.hpp"
#include "support/error.hpp"

namespace stocdr::kron {

namespace {

/// Right-index tile width (doubles): one output slice plus one input slice
/// per active factor row stay cache-resident across the factor's entries.
constexpr std::size_t kRightTile = 2048;

/// Cheap structural identity check used to skip no-op modes.
bool is_identity(const sparse::CsrMatrix& m) {
  if (m.rows() != m.cols() || m.nnz() != m.rows()) return false;
  const auto cols = m.col_idx();
  const auto vals = m.values();
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (cols[i] != i || vals[i] != 1.0) return false;
  }
  return true;
}

/// One base block of (I_L (x) M (x) I_R), restricted to the right-index
/// slice [r0, r1).  Gather form: out(i, r) = sum_k v_k * in(col_k, r) —
/// each output element is owned by exactly one (i, r) pair and accumulates
/// its factor entries in the serial row order, so any partition over
/// (l, r0..r1) blocks reproduces the serial result bit for bit.
///
/// With right == 1 the block is a plain CSR SpMV: each row's sum builds in
/// a register (the same additions in the same order as the streaming form,
/// which would round-trip every partial sum through out[i]).
void gather_block(const sparse::CsrMatrix& m, const double* in, double* out,
                  std::size_t right, std::size_t r0, std::size_t r1) {
  const std::size_t n = m.rows();
  const std::uint32_t* row_ptr = m.row_ptr().data();
  const std::uint32_t* cols = m.col_idx().data();
  const double* vals = m.values().data();
  if (right == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      double acc = 0.0;
      for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        acc += vals[k] * in[cols[k]];
      }
      out[i] = acc;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* dst = out + i * right;
    std::fill(dst + r0, dst + r1, 0.0);
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const double v = vals[k];
      const double* src = in + std::size_t{cols[k]} * right;
      for (std::size_t r = r0; r < r1; ++r) dst[r] += v * src[r];
    }
  }
}

/// Scatter (transpose) form: out(col_k, r) += v_k * in(i, r).  An output
/// element can receive several (i, k) contributions; they arrive in the
/// serial lexicographic (i, k) order within the block, and blocks own
/// disjoint output slices, so the result is the serial one at any lane
/// count.  With right == 1, in(i) stays in a register across row i's
/// entries.
void scatter_block(const sparse::CsrMatrix& m, const double* in, double* out,
                   std::size_t right, std::size_t r0, std::size_t r1) {
  const std::size_t n = m.rows();
  const std::uint32_t* row_ptr = m.row_ptr().data();
  const std::uint32_t* cols = m.col_idx().data();
  const double* vals = m.values().data();
  if (right == 1) {
    std::fill(out, out + n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const double x = in[i];
      for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        out[cols[k]] += vals[k] * x;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    double* z = out + i * right;
    std::fill(z + r0, z + r1, 0.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = in + i * right;
    for (std::uint32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const double v = vals[k];
      double* dst = out + std::size_t{cols[k]} * right;
      for (std::size_t r = r0; r < r1; ++r) dst[r] += v * src[r];
    }
  }
}

void mode_block(const sparse::CsrMatrix& m, bool transpose, const double* in,
                double* out, std::size_t right, std::size_t r0,
                std::size_t r1) {
  if (transpose) {
    scatter_block(m, in, out, right, r0, r1);
  } else {
    gather_block(m, in, out, right, r0, r1);
  }
}

/// All base blocks of one lane's [l0, l1) x [r0, r1) region, r-tiled.
void mode_region(const sparse::CsrMatrix& m, bool transpose,
                 std::span<const double> in, std::span<double> out,
                 std::size_t right, std::size_t l0, std::size_t l1,
                 std::size_t r0, std::size_t r1) {
  const std::size_t block = m.rows() * right;
  for (std::size_t l = l0; l < l1; ++l) {
    const double* src = in.data() + l * block;
    double* dst = out.data() + l * block;
    for (std::size_t t0 = r0; t0 < r1; t0 += kRightTile) {
      const std::size_t t1 = std::min(t0 + kRightTile, r1);
      mode_block(m, transpose, src, dst, right, t0, t1);
    }
  }
}

/// z <- (I_L (x) M (x) I_R) z' (or M^T), parallelized with deterministic
/// partitions: lanes split the left index (disjoint contiguous blocks) when
/// it is wide enough, else the right index (disjoint slices).  Both keep
/// every output element's accumulation order equal to the serial order, so
/// the result is bitwise identical at any lane count.
void mode_multiply(const sparse::CsrMatrix& m, bool transpose,
                   std::size_t left, std::size_t right,
                   std::span<const double> in, std::span<double> out) {
  const std::size_t work = left * (m.nnz() + m.rows()) * right;
  const std::size_t lanes = par::lanes_for(work);
  if (lanes > 1 && left >= lanes) {
    par::run_lanes(lanes, [&](std::size_t lane) {
      const par::Range range = par::even_range(left, lanes, lane);
      mode_region(m, transpose, in, out, right, range.begin, range.end, 0,
                  right);
    });
  } else if (lanes > 1 && right >= lanes) {
    par::run_lanes(lanes, [&](std::size_t lane) {
      const par::Range range = par::even_range(right, lanes, lane);
      mode_region(m, transpose, in, out, right, 0, left, range.begin,
                  range.end);
    });
  } else {
    mode_region(m, transpose, in, out, right, 0, left, 0, right);
  }
}

}  // namespace

KroneckerDescriptor::KroneckerDescriptor(std::vector<std::size_t> dims)
    : dims_(std::move(dims)) {
  STOCDR_REQUIRE(!dims_.empty(), "KroneckerDescriptor: no dimensions");
  for (const std::size_t d : dims_) {
    STOCDR_REQUIRE(d >= 1, "KroneckerDescriptor: dimensions must be >= 1");
    total_ *= d;
  }
}

void KroneckerDescriptor::add_term(KroneckerTerm term) {
  STOCDR_REQUIRE(term.factors.size() == dims_.size(),
                 "KroneckerDescriptor: term must have one factor per "
                 "dimension");
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    STOCDR_REQUIRE(term.factors[k].rows() == dims_[k] &&
                       term.factors[k].cols() == dims_[k],
                   "KroneckerDescriptor: factor shape mismatch");
  }
  // Identity flags and the apply() roofline model are precomputed here so
  // the hot path never rescans factor structure.
  std::vector<char> flags(dims_.size(), 0);
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    flags[k] = is_identity(term.factors[k]) ? 1 : 0;
    if (flags[k] != 0) continue;
    const auto& m = term.factors[k];
    apply_bytes_ += obs::prof::kron_mode_bytes(total_, m.rows(), m.nnz());
    apply_flops_ += obs::prof::kron_mode_flops(total_, m.rows(), m.nnz());
  }
  apply_bytes_ += obs::prof::kron_accumulate_bytes(total_);
  apply_flops_ += obs::prof::kron_accumulate_flops(total_);
  identity_.push_back(std::move(flags));
  terms_.push_back(std::move(term));
}

void KroneckerDescriptor::add_single_factor_term(double coefficient,
                                                 std::size_t slot,
                                                 sparse::CsrMatrix m) {
  STOCDR_REQUIRE(slot < dims_.size(),
                 "KroneckerDescriptor: slot out of range");
  KroneckerTerm term;
  term.coefficient = coefficient;
  term.factors.reserve(dims_.size());
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    if (k == slot) {
      term.factors.push_back(std::move(m));
    } else {
      term.factors.push_back(sparse::CsrMatrix::identity(dims_[k]));
    }
  }
  add_term(std::move(term));
}

void KroneckerDescriptor::apply_term(const KroneckerTerm& term,
                                     const std::vector<char>& identity,
                                     bool transpose,
                                     std::span<const double> x,
                                     std::span<double> y,
                                     Workspace& workspace) const {
  // Shuffle algorithm: apply one mode at a time.  The first non-identity
  // mode reads x directly; later modes ping-pong between the workspace
  // buffers, so no initial copy of x is ever made.
  const double* src = x.data();
  std::size_t left = 1;
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    const std::size_t n = dims_[k];
    const std::size_t right = total_ / (left * n);
    if (identity[k] == 0) {
      double* out = src == workspace.ping.data() ? workspace.pong.data()
                                                 : workspace.ping.data();
      mode_multiply(term.factors[k], transpose, left, right,
                    std::span<const double>(src, total_),
                    std::span<double>(out, total_));
      src = out;
    }
    left *= n;
  }
  const double c = term.coefficient;
  par::parallel_for(total_, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) y[i] += c * src[i];
  });
}

void KroneckerDescriptor::apply_impl(bool transpose, std::span<const double> x,
                                     std::span<double> y,
                                     Workspace& workspace) const {
  STOCDR_REQUIRE(x.size() == total_ && y.size() == total_,
                 "KroneckerDescriptor::apply size mismatch");
  const obs::prof::KernelScope kernel("kron.apply", apply_bytes_,
                                      apply_flops_);
  workspace.ping.resize(total_);
  workspace.pong.resize(total_);
  par::parallel_for(total_, [&](std::size_t begin, std::size_t end) {
    std::fill(y.begin() + static_cast<std::ptrdiff_t>(begin),
              y.begin() + static_cast<std::ptrdiff_t>(end), 0.0);
  });
  for (std::size_t t = 0; t < terms_.size(); ++t) {
    apply_term(terms_[t], identity_[t], transpose, x, y, workspace);
  }
}

void KroneckerDescriptor::apply(std::span<const double> x,
                                std::span<double> y) const {
  Workspace workspace;
  apply_impl(/*transpose=*/false, x, y, workspace);
}

void KroneckerDescriptor::apply(std::span<const double> x,
                                std::span<double> y,
                                Workspace& workspace) const {
  apply_impl(/*transpose=*/false, x, y, workspace);
}

void KroneckerDescriptor::apply_transpose(std::span<const double> x,
                                          std::span<double> y) const {
  Workspace workspace;
  apply_impl(/*transpose=*/true, x, y, workspace);
}

void KroneckerDescriptor::apply_transpose(std::span<const double> x,
                                          std::span<double> y,
                                          Workspace& workspace) const {
  apply_impl(/*transpose=*/true, x, y, workspace);
}

std::vector<double> KroneckerDescriptor::diagonal() const {
  std::vector<double> result(total_, 0.0);
  std::vector<double> current;
  std::vector<double> next;
  for (const KroneckerTerm& term : terms_) {
    current.assign(1, term.coefficient);
    for (std::size_t k = 0; k < dims_.size(); ++k) {
      const std::size_t n = dims_[k];
      const sparse::CsrMatrix& m = term.factors[k];
      std::vector<double> diag(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        const auto cols = m.row_cols(i);
        const auto vals = m.row_values(i);
        for (std::size_t j = 0; j < cols.size(); ++j) {
          if (cols[j] == i) diag[i] = vals[j];
        }
      }
      next.resize(current.size() * n);
      for (std::size_t p = 0; p < current.size(); ++p) {
        for (std::size_t j = 0; j < n; ++j) {
          next[p * n + j] = current[p] * diag[j];
        }
      }
      current.swap(next);
    }
    for (std::size_t i = 0; i < total_; ++i) result[i] += current[i];
  }
  return result;
}

sparse::CsrMatrix KroneckerDescriptor::to_csr() const {
  STOCDR_REQUIRE(!terms_.empty(), "KroneckerDescriptor::to_csr: no terms");
  sparse::CooBuilder builder(total_, total_);
  for (const KroneckerTerm& term : terms_) {
    sparse::CsrMatrix product = term.factors[0];
    for (std::size_t k = 1; k < term.factors.size(); ++k) {
      product = kronecker_product(product, term.factors[k]);
    }
    product.for_each([&](std::size_t r, std::size_t c, double v) {
      builder.add(r, c, term.coefficient * v);
    });
  }
  return builder.to_csr();
}

std::size_t KroneckerDescriptor::storage_bytes() const {
  std::size_t bytes = 0;
  for (const KroneckerTerm& term : terms_) {
    for (const sparse::CsrMatrix& m : term.factors) {
      bytes += m.footprint_bytes();
    }
  }
  return bytes;
}

}  // namespace stocdr::kron
