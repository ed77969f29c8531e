// Basic iterative stationary-distribution solvers.
//
// These are the classical methods the paper's multigrid is benchmarked
// against (section 3: "basic iterative methods such as Jacobi and
// Gauss-Seidel"), plus the power method.  All solve eta P = eta with
// sum(eta) = 1 on an irreducible chain.
//
// Power and Jacobi need only y = P^T x and diag(P), so they run on any
// markov::StepOperator: an explicit MarkovChain or the matrix-free
// Kronecker descriptor.  Their reductions are serial (Kahan-compensated
// where they normalize) and their element-wise updates are exact per
// entry, so with a step that is bit-identical at any lane count — the CSR
// gather SpMV and the Kronecker shuffle both are — the whole solve is
// bitwise reproducible across thread counts.  The reductions are O(n)
// against the O(nnz) step.  Gauss-Seidel, SOR and GTH need rows and take
// the chain.
#pragma once

#include <span>

#include "markov/chain.hpp"
#include "markov/step_operator.hpp"
#include "solvers/options.hpp"

namespace stocdr::solvers {

/// Damped power iteration: x <- (1-w) x + w P^T x, renormalized.
/// With w < 1 this converges for periodic chains as well.
[[nodiscard]] StationaryResult solve_stationary_power(
    const markov::StepOperator& op, const SolverOptions& options = {},
    std::span<const double> initial = {});

/// Gauss-Jacobi sweeps on (P^T - I) x = 0:
///   x_i <- ((P^T x)_i - p_ii x_i) / (1 - p_ii),  renormalized each sweep,
/// damped by options.relaxation: one step() per sweep plus an element-wise
/// update.  This is the smoother the paper interleaves with its
/// lumping/expanding steps.  Throws NumericalError on an absorbing state
/// (p_ii = 1).
[[nodiscard]] StationaryResult solve_stationary_jacobi(
    const markov::StepOperator& op, const SolverOptions& options = {},
    std::span<const double> initial = {});

/// Gauss-Seidel sweeps: same update as Jacobi but in place, so later states
/// see already-updated values within the sweep.
[[nodiscard]] StationaryResult solve_stationary_gauss_seidel(
    const markov::MarkovChain& chain, const SolverOptions& options = {},
    std::span<const double> initial = {});

/// Successive over-relaxation: Gauss-Seidel blended with the previous value
/// by options.relaxation (w in (0, 2)).
[[nodiscard]] StationaryResult solve_stationary_sor(
    const markov::MarkovChain& chain, const SolverOptions& options = {},
    std::span<const double> initial = {});

/// Direct GTH solve wrapped in the common result type (small chains only;
/// cost is O(n^3) dense).
[[nodiscard]] StationaryResult solve_stationary_direct(
    const markov::MarkovChain& chain);

/// L1 residual ||P^T x - x||_1 of a (normalized) candidate vector, summed
/// serially.
[[nodiscard]] double stationary_residual(const markov::StepOperator& op,
                                         std::span<const double> x);

namespace detail {
/// Fills x with the initial guess: a copy of `initial` if non-empty
/// (validated, clamped to >= 0 and normalized), otherwise the uniform
/// distribution.
std::vector<double> make_initial(const markov::StepOperator& op,
                                 std::span<const double> initial);
}  // namespace detail

}  // namespace stocdr::solvers
