#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"
#include "obs/live/exporter.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

namespace stocdr::obs {

namespace {

/// CAS-accumulate: applies `op` to the stored value until the update wins.
template <typename Op>
void atomic_update(std::atomic<double>& target, double v, Op op) {
  double expected = target.load(std::memory_order_relaxed);
  double desired = op(expected, v);
  while (desired != expected &&
         !target.compare_exchange_weak(expected, desired,
                                       std::memory_order_relaxed)) {
    desired = op(expected, v);
  }
}

}  // namespace

double Histogram::bucket_lower_bound(std::size_t index) {
  return std::pow(10.0, kMinDecade + static_cast<double>(index) /
                                         kBucketsPerDecade);
}

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_update(sum_, v, [](double a, double b) { return a + b; });
  atomic_update(min_, v, [](double a, double b) { return std::min(a, b); });
  atomic_update(max_, v, [](double a, double b) { return std::max(a, b); });
  // Bucket index: NaN comparisons are false, so NaN lands in underflow.
  if (!(v >= bucket_lower_bound(0))) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const double position = (std::log10(v) - kMinDecade) * kBucketsPerDecade;
  if (position >= static_cast<double>(kNumBuckets)) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto index = static_cast<std::size_t>(position);
  if (index >= kNumBuckets) index = kNumBuckets - 1;  // log10 rounding edge
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
}

Histogram::State Histogram::state() const {
  State s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.underflow = underflow_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::merge(const State& other) {
  if (other.count == 0) return;  // keep min/max untouched (they start at inf)
  count_.fetch_add(other.count, std::memory_order_relaxed);
  atomic_update(sum_, other.sum, [](double a, double b) { return a + b; });
  atomic_update(min_, other.min,
                [](double a, double b) { return std::min(a, b); });
  atomic_update(max_, other.max,
                [](double a, double b) { return std::max(a, b); });
  underflow_.fetch_add(other.underflow, std::memory_order_relaxed);
  overflow_.fetch_add(other.overflow, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (other.buckets[i] != 0) {
      buckets_[i].fetch_add(other.buckets[i], std::memory_order_relaxed);
    }
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::quantile(double q) const {
  // Local snapshot so the rank walk sees one consistent-enough view.
  std::array<std::uint64_t, kNumBuckets> counts;
  const std::uint64_t under = underflow_.load(std::memory_order_relaxed);
  const std::uint64_t over = overflow_.load(std::memory_order_relaxed);
  std::uint64_t total = under + over;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double lo_clamp = min();
  const double hi_clamp = max();
  if (q == 0.0) return lo_clamp;  // the extrema are tracked exactly
  if (q == 1.0) return hi_clamp;
  const double target = q * static_cast<double>(total - 1);
  double cum = static_cast<double>(under);
  if (target < cum) return lo_clamp;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0.0 && target < cum + c) {
      // Geometric interpolation inside the hit bucket (log-spaced bounds),
      // tightened to the exact extrema: in the first (last) populated
      // bucket no value lies below min() (above max()), so interpolating
      // between the raw bounds would pin tail quantiles to a bucket edge.
      // The tightening is safe unconditionally — when the extremum lives
      // in another bucket, min()/max() lie outside [lo, hi] and the
      // max/min below are no-ops.
      const double f = (target - cum + 0.5) / c;
      const double lo = std::max(bucket_lower_bound(i), lo_clamp);
      const double hi = std::min(bucket_lower_bound(i + 1), hi_clamp);
      const double estimate = lo * std::pow(hi / lo, std::clamp(f, 0.0, 1.0));
      return std::clamp(estimate, lo_clamp, hi_clamp);
    }
    cum += c;
  }
  return hi_clamp;  // rank fell into overflow
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  underflow_.store(0, std::memory_order_relaxed);
  overflow_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  // Lazy env hook *after* the registry static: the exporter is constructed
  // later, so static destruction tears it down first and its final publish
  // still sees a live registry.  Re-entrant calls return immediately.
  detail::ensure_live_exporter_from_env();
  return registry;
}

// Lookup is a linear scan under the mutex: registration happens once per
// call site (callers cache the reference) and registries stay small.

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) {
    if (entry.name == name) return *entry.metric;
  }
  counters_.push_back({std::string(name), std::make_unique<Counter>()});
  return *counters_.back().metric;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : gauges_) {
    if (entry.name == name) return *entry.metric;
  }
  gauges_.push_back({std::string(name), std::make_unique<Gauge>()});
  return *gauges_.back().metric;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : histograms_) {
    if (entry.name == name) return *entry.metric;
  }
  histograms_.push_back({std::string(name), std::make_unique<Histogram>()});
  return *histograms_.back().metric;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto& entry : counters_) {
      const std::uint64_t value = entry.metric->value();
      if (value == 0) continue;
      MetricSample sample;
      sample.name = entry.name;
      sample.kind = MetricSample::Kind::kCounter;
      sample.value = static_cast<double>(value);
      out.push_back(std::move(sample));
    }
    for (const auto& entry : gauges_) {
      if (!entry.metric->is_set()) continue;
      MetricSample sample;
      sample.name = entry.name;
      sample.kind = MetricSample::Kind::kGauge;
      sample.value = entry.metric->value();
      out.push_back(std::move(sample));
    }
    for (const auto& entry : histograms_) {
      if (entry.metric->count() == 0) continue;
      MetricSample sample;
      sample.name = entry.name;
      sample.kind = MetricSample::Kind::kHistogram;
      sample.value = entry.metric->mean();
      sample.count = entry.metric->count();
      sample.sum = entry.metric->sum();
      sample.min = entry.metric->min();
      sample.max = entry.metric->max();
      sample.p50 = entry.metric->quantile(0.50);
      sample.p90 = entry.metric->quantile(0.90);
      sample.p99 = entry.metric->quantile(0.99);
      const Histogram::State state = entry.metric->state();
      sample.buckets.assign(state.buckets.begin(), state.buckets.end());
      sample.underflow = state.underflow;
      sample.overflow = state.overflow;
      out.push_back(std::move(sample));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void MetricsRegistry::merge_snapshot(const std::vector<MetricSample>& samples) {
  for (const MetricSample& sample : samples) {
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        counter(sample.name).add(static_cast<std::uint64_t>(sample.value));
        break;
      case MetricSample::Kind::kGauge:
        gauge(sample.name).set(sample.value);
        break;
      case MetricSample::Kind::kHistogram: {
        if (sample.count == 0) break;
        Histogram::State state;
        state.count = sample.count;
        state.sum = sample.sum;
        state.min = sample.min;
        state.max = sample.max;
        state.underflow = sample.underflow;
        state.overflow = sample.overflow;
        const std::size_t n =
            std::min(sample.buckets.size(), state.buckets.size());
        for (std::size_t i = 0; i < n; ++i) state.buckets[i] = sample.buckets[i];
        histogram(sample.name).merge(state);
        break;
      }
    }
  }
}

void MetricsRegistry::reset_counters() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) entry.metric->reset();
}

void MetricsRegistry::reset_all() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) entry.metric->reset();
  for (auto& entry : gauges_) entry.metric->reset();
  for (auto& entry : histograms_) entry.metric->reset();
}

std::string metrics_to_json(const std::vector<MetricSample>& samples) {
  JsonWriter w;
  w.begin_array();
  for (const MetricSample& sample : samples) {
    w.begin_object();
    w.field("name", sample.name);
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
        w.field("kind", "counter");
        w.field("value", static_cast<std::uint64_t>(sample.value));
        break;
      case MetricSample::Kind::kGauge:
        w.field("kind", "gauge");
        w.field("value", sample.value);
        break;
      case MetricSample::Kind::kHistogram:
        w.field("kind", "histogram");
        w.field("count", sample.count);
        w.field("sum", sample.sum);
        w.field("mean", sample.value);
        w.field("min", sample.min);
        w.field("max", sample.max);
        w.field("p50", sample.p50);
        w.field("p90", sample.p90);
        w.field("p99", sample.p99);
        break;
    }
    w.end_object();
  }
  w.end_array();
  return std::move(w).str();
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

std::uint64_t current_rss_bytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int matched = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

void PeakRssSampler::begin() {
  reset_worked_ = false;
#if defined(__linux__)
  // "5" resets the process's RSS high-water (VmHWM); needs write access to
  // /proc/self/clear_refs, which sandboxes sometimes withhold — the
  // fallback below keeps peak() total.
  std::FILE* f = std::fopen("/proc/self/clear_refs", "we");
  if (f != nullptr) {
    reset_worked_ = std::fputs("5", f) >= 0;
    if (std::fclose(f) != 0) reset_worked_ = false;
  }
#endif
}

std::uint64_t PeakRssSampler::peak() const {
#if defined(__linux__)
  if (reset_worked_) {
    std::FILE* f = std::fopen("/proc/self/status", "re");
    if (f != nullptr) {
      char line[256];
      while (std::fgets(line, sizeof line, f) != nullptr) {
        unsigned long long kib = 0;
        if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
          std::fclose(f);
          return static_cast<std::uint64_t>(kib) * 1024;
        }
      }
      std::fclose(f);
    }
  }
#endif
  return peak_rss_bytes();
}

}  // namespace stocdr::obs
