// Fault-tolerant solve orchestration: the fallback ladder.
//
// The paper's measures hinge on one stationary solve of a 1e5+-state chain;
// if that solve silently stalls or diverges, the reported BER is garbage.
// Stewart's numerical-Markov-chain treatment prescribes the remedy this
// harness implements: a ladder of methods ordered fast-but-fragile to
// slow-but-certain —
//
//   multilevel (auto-W)  ->  GMRES on the deflated stationary system
//                        ->  SOR sweeps  ->  damped power iteration
//                        ->  GTH direct (when the chain is small enough)
//
// — with each rung warm-started from the best checkpoint its predecessors
// reached, divergence sentinels cancelling rungs that go numerically wrong,
// wall-clock/iteration/state budgets bounding the worst case, and graceful
// degradation to a coarser phase grid (via the existing lumping machinery)
// when the chain exceeds the state ceiling.  Every decision is recorded in
// a RobustSolveReport and mirrored to the obs layer.
//
// Both entry points — an explicit MarkovChain and any markov::StepOperator
// (the matrix-free Kronecker descriptor) — run the same ladder loop.  The
// rungs that need rows (multilevel, SOR, GTH) are skipped by capability
// when only an operator is given.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "markov/chain.hpp"
#include "markov/lumping.hpp"
#include "markov/step_operator.hpp"
#include "robust/report.hpp"
#include "robust/sentinel.hpp"
#include "solvers/aggregation.hpp"
#include "solvers/options.hpp"

namespace stocdr::robust {

/// The methods a ladder rung can dispatch to.
enum class RungKind {
  kMultilevel,       ///< the paper's aggregation multigrid (auto V->W)
  kGmresStationary,  ///< GMRES on (I - P^T + (1/n) e e^T) x = e/n
  kSor,              ///< successive over-relaxation sweeps
  kJacobi,           ///< damped Jacobi sweeps (diagonal-only; matrix-free OK)
  kPower,            ///< damped power iteration (slow, unconditionally safe)
  kGthDirect,        ///< dense GTH; exact, O(n^3), gated by gth_size_limit
};

[[nodiscard]] const char* to_string(RungKind kind);

/// One rung of the ladder: a method plus its per-rung budgets.
struct RungSpec {
  RungKind kind = RungKind::kPower;
  /// Per-rung iteration budget (cycles / outer iterations / sweeps).
  std::size_t max_iterations = 200;
  /// Relaxation / damping where the method has one (SOR, power).
  double relaxation = 1.0;
};

/// Options of the robust orchestration harness.
struct RobustOptions {
  /// Convergence target on the L1 stationary residual ||P^T x - x||_1.
  double tolerance = 1e-12;

  /// Wall-clock budget across the *whole* ladder (validation, every rung,
  /// degradation).  When it expires the harness stops cooperatively and
  /// returns the last-good iterate with a structured timeout report — no
  /// exception.  Infinity = no deadline.
  double time_budget_seconds = std::numeric_limits<double>::infinity();

  /// The ladder, tried in order; empty selects default_ladder().
  std::vector<RungSpec> ladder;

  // Sentinel knobs (see SolveSentinel::Options).
  std::size_t sentinel_stride = 4;
  double divergence_factor = 1e3;
  double stall_factor = 0.98;
  std::size_t stall_window = 12;

  /// Input validation gate: a row-stochasticity defect at or below this is
  /// repaired (rows renormalized, counted in `robust.repairs`); beyond it
  /// the chain is rejected with a PreconditionError.
  double repair_tolerance = 1e-6;

  /// State-count ceiling: a chain larger than this is lumped down through
  /// the hierarchy until it fits (graceful degradation to a coarser phase
  /// grid), the coarse chain is solved, and the solution is expanded and
  /// re-smoothed — with the accuracy loss reported.  SIZE_MAX = no ceiling.
  std::size_t max_states = std::numeric_limits<std::size_t>::max();

  /// Damped power sweeps polishing the expanded coarse solution.
  std::size_t degrade_smooth_sweeps = 20;

  /// Heap budget for the solve, in bytes (0 = unlimited).  Before any
  /// solver allocation the harness predicts the peak footprint with the
  /// analytic capacity model (obs/mem/capacity.hpp); a prediction over
  /// budget first tries to degrade through the lumping hierarchy to a
  /// coarse size that fits, and refuses with a structured report (never an
  /// OOM) when even the coarsest level will not.  Refusals bump the
  /// `robust.admission_rejects` metric.  On both representations the budget
  /// also sizes the GMRES rung's Krylov restart: 80, halved down to 10 until
  /// the priced basis fits, else the rung is skipped.
  std::size_t memory_budget_bytes = 0;

  /// Largest chain the GTH rung will accept (dense O(n^3)).
  std::size_t gth_size_limit = 4000;

  /// Worker threads for every rung's kernels, opened once around the whole
  /// ladder (0 = inherit STOCDR_THREADS; see solvers::SolverOptions).
  /// Rungs whose own options leave threads at 0 inherit this value.
  std::size_t threads = 0;

  /// Base options of the multilevel rung (tolerance/max_cycles/progress are
  /// overridden by the harness).
  solvers::MultilevelOptions multilevel;

  /// Caller's progress observer, forwarded from inside every rung.
  obs::OptionalProgress progress;

  /// Fault-injection hook for robustness tests (see robust/sentinel.hpp).
  std::optional<FaultInjector> fault_injector;

  // Durable checkpointing (robust/checkpoint).  When checkpoint_path is
  // non-empty the harness (a) warm-starts solve() from the newest valid
  // on-disk generation — unless the caller passed an explicit initial
  // guess — and (b) persists every checkpoint_period-th sentinel snapshot
  // back to that path with an fsync'd atomic write, keeping
  // checkpoint_keep generations.  Torn, corrupted, version-skewed, or
  // config-mismatched files degrade to the next generation or a cold
  // start (counted in `robust.checkpoint_rejects` and the report), never
  // a crash.  Note: while solving a *degraded* (coarsened) chain the
  // persisted iterates are coarse-sized and will be size-rejected by a
  // later full-size restore — an accepted cold start, not corruption.
  std::string checkpoint_path;
  std::size_t checkpoint_period = 16;  ///< snapshots per durable write
  std::size_t checkpoint_keep = 2;     ///< on-disk generations retained
  /// Stamps written files and gates restores; use the experiment manifest's
  /// config_hash so a checkpoint never leaks across configurations.  Empty
  /// disables the hash check on restore (files are still CRC-validated).
  std::string checkpoint_config_hash;

  /// Where the flight-recorder ring is dumped when a sentinel trips
  /// (divergence/NaN/stall) while STOCDR_TRACE_RING is active.  Empty
  /// defers to STOCDR_FLIGHT_DUMP, then "stocdr_flight.jsonl".  Only the
  /// first trip of a solve dumps; the path lands in
  /// RobustSolveReport::flight_dump_path.
  std::string flight_dump_path;
};

/// The default ladder: multilevel -> GMRES -> SOR -> damped power -> GTH.
[[nodiscard]] std::vector<RungSpec> default_ladder();

/// The default matrix-free ladder: GMRES -> Jacobi -> damped power.  The
/// rungs that require a materialized matrix (multilevel aggregation, SOR's
/// row sweeps, dense GTH) are absent; when an explicit-path ladder is run
/// through an operator those rungs are reported as skipped, not silently
/// dropped.
[[nodiscard]] std::vector<RungSpec> default_matrix_free_ladder();

/// The orchestration harness.  Holds a validated (possibly repaired) copy
/// of the chain when repair was needed, otherwise references the caller's.
class RobustSolver {
 public:
  /// Validates (and, within repair_tolerance, repairs) the chain.  The
  /// hierarchy follows solvers::build_grid_pair_hierarchy conventions and
  /// may be empty (the multilevel rung then degenerates; the rest of the
  /// ladder is unaffected, but no degradation is possible).
  /// Throws PreconditionError when the stochasticity defect exceeds
  /// options.repair_tolerance.
  RobustSolver(const markov::MarkovChain& chain,
               std::vector<markov::Partition> hierarchy,
               RobustOptions options = {});

  /// Runs the ladder.  Never throws for convergence failures, timeouts, or
  /// numerical faults — those come back as a structured report with the
  /// best iterate attached.  (Precondition violations still throw.)
  [[nodiscard]] RobustResult solve(std::span<const double> initial = {}) const;

  /// The chain the ladder actually iterates on (the repaired copy when the
  /// input had a defect).
  [[nodiscard]] const markov::MarkovChain& chain() const {
    return repaired_ ? *repaired_ : *chain_;
  }

  [[nodiscard]] bool repaired() const { return repaired_ != nullptr; }

 private:
  /// Degraded path: lump below `max_states` (the options ceiling, possibly
  /// tightened by the memory admission gate), ladder the coarse chain,
  /// expand.
  [[nodiscard]] std::vector<double> run_degraded(
      std::size_t max_states, std::size_t gmres_restart,
      std::span<const double> initial, const Timer& clock,
      RobustSolveReport& report) const;

  const markov::MarkovChain* chain_;
  std::unique_ptr<markov::MarkovChain> repaired_;
  std::vector<markov::Partition> hierarchy_;
  RobustOptions options_;
  double input_defect_ = 0.0;
};

/// One-call form: construct a RobustSolver and solve.
[[nodiscard]] RobustResult solve_stationary_robust(
    const markov::MarkovChain& chain,
    const std::vector<markov::Partition>& hierarchy = {},
    const RobustOptions& options = {}, std::span<const double> initial = {});

/// Matrix-free form: runs the same ladder through an abstract StepOperator
/// (the Kronecker descriptor path).  Rungs that need rows (multilevel, SOR,
/// GTH) report FailureCause::kSkipped with an explanatory detail; an empty
/// options.ladder selects default_matrix_free_ladder().  No repair (a
/// defect beyond repair_tolerance throws — the operator cannot be
/// renormalized in place) and no grid degradation (there is no lumping
/// hierarchy); the memory admission gate prices `operator_storage_bytes`
/// plus the iterate workspace via estimate_operator_capacity.
/// `representation` lands in RobustSolveReport::representation
/// ("kronecker" for descriptor callers).
[[nodiscard]] RobustResult solve_stationary_robust(
    const markov::StepOperator& op, const RobustOptions& options = {},
    std::span<const double> initial = {},
    std::uint64_t operator_storage_bytes = 0,
    std::string_view representation = "operator");

}  // namespace stocdr::robust
