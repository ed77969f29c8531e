#include "obs/health/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stocdr::obs::health {

namespace {

/// -1 = not yet read from the environment; 0/1 = resolved.
std::atomic<int> g_enabled{-1};
std::atomic<std::size_t> g_stride{0};

bool env_truthy(const char* v) {
  if (v == nullptr || *v == '\0') return false;
  const std::string_view s(v);
  return s != "0" && s != "off" && s != "false";
}

Counter& site_counter(const char* prefix, const char* site) {
  // Sampled path only; the lookup cost is amortized by the stride.
  return MetricsRegistry::instance().counter(std::string(prefix) + site);
}

}  // namespace

bool enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state < 0) {
    state = env_truthy(std::getenv("STOCDR_HEALTH")) ? 1 : 0;
    int expected = -1;
    if (!g_enabled.compare_exchange_strong(expected, state,
                                           std::memory_order_relaxed)) {
      state = expected;  // a concurrent resolve or set_enabled won
    }
  }
  return state == 1;
}

void set_enabled(bool on) {
  g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::size_t sample_stride() {
  std::size_t stride = g_stride.load(std::memory_order_relaxed);
  if (stride == 0) {
    stride = 8;
    if (const char* v = std::getenv("STOCDR_HEALTH_SAMPLE")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(v, &end, 10);
      if (end != v && parsed >= 1) stride = parsed;
    }
    std::size_t expected = 0;
    if (!g_stride.compare_exchange_strong(expected, stride,
                                          std::memory_order_relaxed)) {
      stride = expected;
    }
  }
  return stride;
}

void set_sample_stride(std::size_t stride) {
  g_stride.store(std::max<std::size_t>(stride, 1),
                 std::memory_order_relaxed);
}

bool should_sample(std::atomic<std::uint64_t>& site_counter) {
  if (!enabled()) return false;
  const std::uint64_t visit =
      site_counter.fetch_add(1, std::memory_order_relaxed);
  return visit % sample_stride() == 0;
}

void record_level_rho(std::size_t level, double rho) {
  if (!enabled()) return;
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.histogram("mg.level.rho").observe(rho);
  registry.histogram("mg.level" + std::to_string(level) + ".rho")
      .observe(rho);
}

void audit_mass(const char* site, double before, double after) {
  if (!enabled()) return;
  // Relative defect; a zero-mass `before` (degenerate input) makes any
  // created mass an infinite relative error, which the histogram's
  // overflow bucket absorbs.
  const double scale = std::max(std::abs(before), 1e-300);
  const double defect = std::abs(after - before) / scale;
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.histogram("health.mass_defect").observe(defect);
  registry.counter("health.mass_audits").add(1);
  site_counter("health.mass_audits.", site).add(1);
  if (!(defect <= kMassAlarmThreshold)) {  // NaN counts as an alarm
    registry.counter("health.mass_alarms").add(1);
    evt::emit("health.mass_alarm", evt::Severity::kAlarm,
              {{"site", std::string(site)}, {"defect", defect}});
  }
}

void audit_nonnegativity(const char* site, std::span<const double> x) {
  if (!enabled()) return;
  std::uint64_t negatives = 0;
  for (const double v : x) {
    if (v < 0.0) ++negatives;
  }
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("health.nonneg_audits").add(1);
  if (negatives > 0) {
    registry.counter("health.negativity").add(negatives);
    site_counter("health.negativity.", site).add(negatives);
    evt::emit("health.negativity", evt::Severity::kAlarm,
              {{"site", std::string(site)}, {"negatives", negatives}});
  }
}

void record_stochasticity_drift(double defect) {
  if (!enabled()) return;
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.gauge("health.stochasticity_drift").set(defect);
  registry.counter("health.stochasticity_audits").add(1);
}

double effective_tail_digits(double tail_mass, double residual) {
  if (!(tail_mass > 0.0)) return 0.0;
  if (!(residual > 0.0)) return 17.0;  // residual 0: fully resolved
  return std::clamp(std::log10(tail_mass / residual), 0.0, 17.0);
}

void record_tail_conditioning(double tail_mass, double residual) {
  if (!enabled()) return;
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.gauge("health.tail_mass").set(tail_mass);
  registry.gauge("health.tail_digits")
      .set(effective_tail_digits(tail_mass, residual));
}

}  // namespace stocdr::obs::health
