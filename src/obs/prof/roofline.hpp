// Bytes-moved cost models and per-kernel roofline attribution.
//
// Each hot kernel (CSR SpMV, transpose SpMV, the power and Jacobi iterate
// updates, multilevel aggregate/disaggregate) declares an analytic model of
// the memory traffic and flops one call performs.  A profiled run records
// model bytes, model flops, and measured wall seconds per kernel, from
// which the roofline report derives arithmetic intensity (flops/byte) and
// achieved-vs-model bandwidth (GB/s) — the evidence the roadmap's
// matrix-free and SIMD items need to prove "memory-bound".
//
// The models count compulsory traffic only (every value, index, and vector
// element touched exactly once); caches can do better on the vectors, so
// achieved_gbps is a lower bound on true bus traffic and an upper bound on
// effective bandwidth.  Kernel attribution scopes overlap span timings (an
// SpMV runs inside a solve span) — rows are independent, not summable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/prof/perf.hpp"
#include "support/timer.hpp"

namespace stocdr::obs::prof {

/// Compulsory traffic of y = A*x for CSR A (rows x cols, nnz entries):
/// values (8B) + column indices (4B) once each, the row-pointer array once,
/// x and y once.  Flops: one multiply + one add per stored entry.
[[nodiscard]] constexpr std::uint64_t spmv_bytes(std::uint64_t rows,
                                                 std::uint64_t cols,
                                                 std::uint64_t nnz) {
  return nnz * (8 + 4) + (rows + 1) * 4 + rows * 8 + cols * 8;
}
[[nodiscard]] constexpr std::uint64_t spmv_flops(std::uint64_t nnz) {
  return 2 * nnz;
}

/// Power or Jacobi iterate update (blend + renormalize): read next and
/// previous iterates, write the blended iterate, one reduction pass.
[[nodiscard]] constexpr std::uint64_t power_update_bytes(std::uint64_t n) {
  return 4 * n * 8;
}
[[nodiscard]] constexpr std::uint64_t power_update_flops(std::uint64_t n) {
  return 4 * n;
}

/// One mode of the Kronecker shuffle matvec (I_L (x) M (x) I_R) x over a
/// product space of `dim` elements: the factor's CSR arrays once (cached
/// across the L x R repetitions), the input and output product vectors
/// once each.  Flops: every stored factor entry multiplies-and-adds one
/// length-(dim / rows) slice of the product vector.
[[nodiscard]] constexpr std::uint64_t kron_mode_bytes(std::uint64_t dim,
                                                      std::uint64_t rows,
                                                      std::uint64_t nnz) {
  return nnz * (8 + 4) + (rows + 1) * 4 + 2 * dim * 8;
}
[[nodiscard]] constexpr std::uint64_t kron_mode_flops(std::uint64_t dim,
                                                      std::uint64_t rows,
                                                      std::uint64_t nnz) {
  return rows == 0 ? 0 : 2 * nnz * (dim / rows);
}

/// Per-term accumulation y += c * z after the shuffle passes: read z and y,
/// write y; one multiply + one add per element.
[[nodiscard]] constexpr std::uint64_t kron_accumulate_bytes(
    std::uint64_t dim) {
  return 3 * dim * 8;
}
[[nodiscard]] constexpr std::uint64_t kron_accumulate_flops(
    std::uint64_t dim) {
  return 2 * dim;
}

/// Multilevel restriction (lump fine vector into aggregates) or
/// disaggregation (expand coarse correction): one fine-vector pass, one
/// coarse-vector pass, one aggregate-map pass (4B indices).
[[nodiscard]] constexpr std::uint64_t aggregation_bytes(
    std::uint64_t fine, std::uint64_t coarse) {
  return fine * (8 + 4) + coarse * 8;
}
[[nodiscard]] constexpr std::uint64_t aggregation_flops(std::uint64_t fine) {
  return fine;
}

/// One kernel's accumulated roofline inputs.
struct KernelAggregate {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;   ///< model compulsory traffic, summed
  std::uint64_t flops = 0;   ///< model flops, summed
  double seconds = 0.0;      ///< measured wall time, summed

  /// flops / byte of the model (the roofline x-axis).
  [[nodiscard]] double arithmetic_intensity() const;
  /// Model bytes / measured seconds, in GB/s (the achieved bandwidth).
  [[nodiscard]] double achieved_gbps() const;
  /// Model flops / measured seconds, in Gflop/s.
  [[nodiscard]] double gflops() const;
};

/// Folds one kernel call into the per-kernel table.  Thread-safe; cheap
/// enough for per-call use at solver cadence (one mutex + map hit).
void record_kernel(const char* name, std::uint64_t bytes, std::uint64_t flops,
                   double seconds);

/// RAII helper: times one kernel call and records it on destruction.  A
/// no-op (one relaxed load) when profiling is disabled.
class KernelScope {
 public:
  KernelScope(const char* name, std::uint64_t bytes, std::uint64_t flops)
      : name_(enabled() ? name : nullptr), bytes_(bytes), flops_(flops) {
    if (name_ != nullptr) timer_.reset();
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;
  ~KernelScope() {
    if (name_ != nullptr) record_kernel(name_, bytes_, flops_, timer_.seconds());
  }

 private:
  const char* name_;
  std::uint64_t bytes_;
  std::uint64_t flops_;
  Timer timer_;
};

/// Snapshot of every kernel aggregate with at least one call, sorted by
/// name (reset_kernels() keeps names registered but empties them).
[[nodiscard]] std::vector<KernelAggregate> kernel_snapshot();

/// Clears the kernel table (bench per-case isolation; prof::reset() calls
/// this too).
void reset_kernels();

/// Publishes perf.kernel.<name>.gbps / .arithmetic_intensity gauges.
void publish_kernels_to_metrics();

/// Serializes the full `perf` section embedded in BENCH_*.json artifacts:
///   {"enabled":true, "available":<hw counters opened>, "source":"...",
///    "total":{...counters, "ipc", "cache_miss_rate"...},
///    "spans":{<name>:{...}}, "kernels":{<name>:{"calls","bytes","flops",
///    "seconds","arithmetic_intensity","achieved_gbps","gflops"}}}
/// Counter fields appear only when every contribution carried them, so an
/// unavailable-PMU run emits `"available": false` and omits instructions /
/// cycles rather than reporting zeros.
[[nodiscard]] std::string perf_section_json();

}  // namespace stocdr::obs::prof
