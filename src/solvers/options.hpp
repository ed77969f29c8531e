// Shared option and statistics types for all solvers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/progress.hpp"

namespace stocdr::solvers {

/// Options common to the iterative solvers.
struct SolverOptions {
  /// Convergence threshold on the L1 residual ||P^T x - x||_1 (stationary
  /// solvers, with ||x||_1 = 1) or ||b - A x||_1 / ||b||_1 (linear solvers).
  double tolerance = 1e-12;

  /// Hard iteration cap (sweeps for relaxation methods, cycles for the
  /// multilevel methods, outer iterations for GMRES).
  std::size_t max_iterations = 200000;

  /// Relaxation / damping factor where the method supports one
  /// (power iteration, Jacobi, SOR).  1.0 = undamped.
  double relaxation = 1.0;

  /// Worker threads for the solver's kernels (SpMV, sweeps, reductions).
  /// 0 inherits the ambient context (STOCDR_THREADS environment variable,
  /// default serial); values >= 1 override it for this solve.  Results are
  /// bitwise reproducible at a fixed thread count and agree across thread
  /// counts to rounding (see docs/PARALLELISM.md).
  std::size_t threads = 0;

  /// Optional per-iteration callback (see obs/progress.hpp).  Non-owning:
  /// the callable must outlive the solve.
  obs::OptionalProgress progress{};
};

/// Upper bound on SolverStats::residual_history entries.
inline constexpr std::size_t kResidualHistoryCap = 512;

/// Statistics describing how a solve went.
struct SolverStats {
  std::string method;           ///< human-readable solver name
  std::size_t iterations = 0;   ///< iterations (or cycles) performed
  double residual = 0.0;        ///< final residual (solver's own metric)
  double seconds = 0.0;         ///< wall-clock time of the solve
  bool converged = false;       ///< tolerance reached within the budget
  std::size_t matvec_count = 0; ///< matrix-vector products consumed

  /// Non-empty when the method stopped on an *algorithmic breakdown* — a
  /// quantity its recurrence divides by vanished (e.g. BiCGSTAB's rho or
  /// stabilizer omega).  Names the vanished quantity and the iteration, so
  /// the condition surfaces as a structured event instead of a silent
  /// early return with converged == false.
  std::string breakdown;

  /// Residual trajectory, oldest first, at most kResidualHistoryCap entries.
  /// Long runs are decimated (the sampling stride doubles whenever the
  /// buffer fills), so the trajectory keeps its overall shape; the final
  /// entry always equals `residual`.
  std::vector<double> residual_history;
};

/// Records a residual trajectory into SolverStats::residual_history under
/// the cap.  Usage inside a solver loop:
///
///   ResidualRecorder recorder(result.stats.residual_history);
///   for (...) { ...; recorder.record(res); }
///   recorder.finish(result.stats.residual);
class ResidualRecorder {
 public:
  explicit ResidualRecorder(std::vector<double>& history,
                            std::size_t cap = kResidualHistoryCap)
      : history_(history), cap_(cap < 2 ? 2 : cap) {
    history_.clear();
  }

  /// Considers one per-iteration residual for the history.
  void record(double residual) {
    if (++seen_ % stride_ != 0) return;
    history_.push_back(residual);
    if (history_.size() >= cap_) {
      // Buffer full: decimate to every other sample and halve the rate.
      std::size_t write = 0;
      for (std::size_t read = 1; read < history_.size(); read += 2) {
        history_[write++] = history_[read];
      }
      history_.resize(write);
      stride_ *= 2;
    }
  }

  /// Guarantees the history ends with the solver's reported final residual
  /// (relaxation solvers recompute a true residual after the loop).
  void finish(double final_residual) {
    if (history_.empty() || history_.back() != final_residual) {
      history_.push_back(final_residual);
    }
  }

 private:
  std::vector<double>& history_;
  std::size_t cap_;
  std::size_t stride_ = 1;
  std::size_t seen_ = 0;
};

/// Result of a stationary-distribution solve.
struct StationaryResult {
  std::vector<double> distribution;  ///< eta with eta P = eta, sum = 1
  SolverStats stats;
};

}  // namespace stocdr::solvers
