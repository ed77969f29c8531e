// Process-global metrics registry: named counters, gauges, and histograms
// that any component can update cheaply and a reporter can snapshot.
//
// Design constraints:
//   * hot-path updates are a single atomic op — callers cache the returned
//     Counter&/Gauge&/Histogram& (addresses are stable for process lifetime);
//   * registration is thread-safe (mutex-protected map, node-stable storage);
//   * snapshot() is consistent enough for reporting (each value is read
//     atomically; the set of metrics only grows) and carries only metrics
//     that fired: a counter at 0, a histogram without observations, or a
//     gauge not set since registration or the last reset_all() is absent,
//     not zero.
//
// Naming convention: dotted lowercase paths, e.g. "solver.matvec",
// "mg.level2.coarsen_ratio", "cdr.states".
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stocdr::obs {

/// Monotonic counter (events, matvecs, states expanded).
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (current level size, coarsening ratio, peak RSS).
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    set_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// True once set() ran since construction or the last reset().
  [[nodiscard]] bool is_set() const {
    return set_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0.0, std::memory_order_relaxed);
    set_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
  std::atomic<bool> set_{false};
};

/// Fixed log-bucket histogram with streaming count / sum / exact extrema and
/// quantile estimates (residual-reduction factors, per-cycle seconds).
///
/// Buckets are log10-spaced: kBucketsPerDecade per power of ten over
/// [1e-12, 1e12), plus an underflow bucket (values below 1e-12, including
/// zero, negatives, and NaN) and an overflow bucket.  An observation is a
/// handful of relaxed atomic ops plus one log10; contention is negligible at
/// solver cadence.  Quantiles are estimated by rank-walking the bucket
/// counts with geometric interpolation inside the hit bucket; the hit
/// bucket's bounds are first tightened to the exact observed [min, max]
/// (which matters in the terminal buckets, where a wide bucket otherwise
/// collapses tail quantiles onto its 10^(k/kBucketsPerDecade) edge) — the
/// estimate is within one bucket width (a factor of
/// 10^(1/kBucketsPerDecade) ~ 1.33) of the true value.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kMinDecade = -12;  ///< lowest bucketed value, 1e-12
  static constexpr int kMaxDecade = 12;   ///< overflow at and above 1e12
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>((kMaxDecade - kMinDecade) * kBucketsPerDecade);

  /// Plain-value copy of a histogram's full state.  Because every process
  /// uses the same fixed bucket layout, merging states is *exact* for
  /// count/sum/min/max and bucket counts — merged quantile estimates are
  /// identical to observing the union of samples in one histogram.
  struct State {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::array<std::uint64_t, kNumBuckets> buckets{};
  };

  void observe(double v);

  /// Snapshot of the full state (each field read atomically).
  [[nodiscard]] State state() const;

  /// Folds another histogram's state into this one (exact; see State).
  /// An empty state (count 0) is a no-op, so min/max stay untouched.
  void merge(const State& other);
  void merge(const Histogram& other) { merge(other.state()); }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Exact extrema; 0 before the first observation.
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;

  /// Estimated q-quantile (q in [0, 1], clamped); 0 before the first
  /// observation.  Underflow observations resolve to min(), overflow to
  /// max().
  [[nodiscard]] double quantile(double q) const;

  /// Clears all state (counts, sum, extrema, buckets).
  void reset();

  /// The lower bound of bucket `index` (index kNumBuckets gives the
  /// overflow boundary).  Exposed for tests and exporters.
  [[nodiscard]] static double bucket_lower_bound(std::size_t index);

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// One metric in a snapshot.
struct MetricSample {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind;
  double value = 0.0;          ///< counter/gauge value, histogram mean
  std::uint64_t count = 0;     ///< histogram observation count
  double sum = 0.0;            ///< histogram sum of observations
  double min = 0.0, max = 0.0; ///< histogram extrema
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;  ///< histogram quantile estimates
  /// Raw bucket state (filled by snapshot(); empty for non-histograms).
  /// Carried so exported snapshots can be merged exactly across workers.
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0, overflow = 0;
};

/// The process-global registry.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Returns the metric with this name, creating it on first use.  The
  /// returned reference is valid for the process lifetime; hot paths should
  /// call once and cache it.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// All metrics that fired (see the header comment), sorted by name.
  [[nodiscard]] std::vector<MetricSample> snapshot() const;

  /// Folds a snapshot from another process into this registry: counters
  /// add, gauges take the sample's value (last write wins), histograms
  /// merge exactly from the sample's raw bucket state (a sample without
  /// buckets contributes count/sum/extrema only — quantiles then degrade
  /// to the extrema).  Used by the fleet dashboard to aggregate workers.
  void merge_snapshot(const std::vector<MetricSample>& samples);

  /// Resets counters to zero (gauges and histograms keep their last state);
  /// intended for tests.
  void reset_counters();

  /// Resets everything — counters, gauges, and histogram state — so that a
  /// following snapshot reflects only work done after this call.  Used
  /// between bench cases to keep per-case BENCH metrics uncontaminated.
  void reset_all();

 private:
  MetricsRegistry() = default;

  // Node-stable storage: metrics are never destroyed or moved.
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> metric;
  };

  mutable std::mutex mutex_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

/// Serializes a snapshot as a JSON array (one object per metric; histograms
/// carry count/mean/min/max/sum and the p50/p90/p99 estimates).  Embedded in
/// BENCH_<name>.json artifacts and `cdr_analyzer --metrics-out` dumps.
[[nodiscard]] std::string metrics_to_json(
    const std::vector<MetricSample>& samples);

/// Peak resident-set size of this process in bytes (0 if unavailable).
/// Reported by bench artifacts alongside solver cost.  NOTE: ru_maxrss is
/// a monotone process-wide maximum — for per-case attribution use
/// PeakRssSampler, which resets the kernel high-water between cases.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Current resident-set size of this process in bytes (0 if unavailable);
/// sampled from /proc/self/statm on Linux.  Exported as a live gauge so
/// `stocdr-obsctl watch` can show memory next to solver progress.
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Per-interval peak-RSS attribution.  On Linux, begin() resets the
/// kernel's per-process RSS high-water (writing "5" to
/// /proc/self/clear_refs) and peak() reads VmHWM from /proc/self/status,
/// so consecutive intervals each report their *own* peak instead of
/// inheriting the largest case's (the ru_maxrss contamination bug).  When
/// the reset is unavailable (non-Linux, restricted /proc), peak() falls
/// back to the monotone ru_maxrss value and source() says so.
class PeakRssSampler {
 public:
  /// Starts an attribution interval (resets the kernel high-water when
  /// possible).
  void begin();

  /// Peak RSS in bytes since begin() — or the process-monotone ru_maxrss
  /// when the per-interval reset is unavailable.
  [[nodiscard]] std::uint64_t peak() const;

  /// "vmhwm_reset" when peak() is per-interval, "ru_maxrss" when it is the
  /// process-wide fallback.
  [[nodiscard]] const char* source() const {
    return reset_worked_ ? "vmhwm_reset" : "ru_maxrss";
  }

 private:
  bool reset_worked_ = false;
};

}  // namespace stocdr::obs
