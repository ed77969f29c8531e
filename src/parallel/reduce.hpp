// Deterministic parallel reductions and element-wise vector kernels.
//
// The serial fallbacks of sum, l1_norm and l1_distance are the exact
// historical loops from support/math.cpp (same operation order, same
// compensation scheme), so one effective thread reproduces pre-parallel
// results bit for bit.  dot (and l2_norm on it) is the exception: its lane
// kernel keeps four interleaved partial sums, a fixed association of its
// own (documented at dot below).  The parallel paths split the index space
// into lanes_for(n) contiguous lanes, reduce each lane with the serial
// kernel, and combine the per-lane partials in ascending lane order — at a
// fixed thread count the result is bitwise reproducible across runs; across
// thread counts the association of the partial sums changes, so results
// agree only to rounding (well inside the 1e-12 solver tolerances; see
// docs/PARALLELISM.md).
#pragma once

#include <cstddef>
#include <span>

namespace stocdr::par {

/// Kahan-compensated sum (serial twin: stocdr::kahan_sum).
[[nodiscard]] double sum(std::span<const double> values);

/// Kahan-compensated L1 norm (serial twin: stocdr::l1_norm).
[[nodiscard]] double l1_norm(std::span<const double> values);

/// Plain-summation L1 distance (serial twin: stocdr::l1_distance).
[[nodiscard]] double l1_distance(std::span<const double> a,
                                 std::span<const double> b);

/// Dot product.  Over each lane's range [lo, hi), partial sum s_j adds
/// a[i] * b[i] for i = lo + j, lo + j + 4, ... in ascending order, up to the
/// last full group of four; the remaining (hi - lo) mod 4 products are
/// added into s0, and the lane's value is (s0 + s1) + (s2 + s3).  With one
/// lane that is the serial result.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// sqrt(dot(v, v)).
[[nodiscard]] double l2_norm(std::span<const double> values);

/// Infinity norm (order-independent: identical at any thread count).
[[nodiscard]] double linf_norm(std::span<const double> values);

/// Scales a nonnegative vector to unit L1 mass (serial twin:
/// stocdr::normalize_l1, including its NumericalError on zero/non-finite
/// mass).  The scaling pass is element-wise and exact at any lane count.
void normalize_l1(std::span<double> values);

}  // namespace stocdr::par
