#include "obs/live/exporter.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/live/openmetrics.hpp"
#include "obs/mem/mem.hpp"
#include "obs/metrics.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"

namespace stocdr::obs {

LiveExporter::LiveExporter(Options options) : options_(std::move(options)) {}

LiveExporter::~LiveExporter() { stop(); }

void LiveExporter::start() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  publish();  // a started exporter is immediately observable
  thread_ = std::thread([this] { thread_main(); });
}

void LiveExporter::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_requested_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    running_ = false;
  }
  publish();  // final snapshot: the heartbeat records the clean shutdown
}

void LiveExporter::publish() {
  const std::uint64_t tick =
      ticks_.fetch_add(1, std::memory_order_acq_rel) + 1;
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.gauge("export.heartbeat").set(static_cast<double>(tick));
  // Memory is sampled at publish time so watchers see live values: current
  // and peak RSS always, plus the heap-byte gauges when STOCDR_MEM=1.
  registry.gauge("process.current_rss_bytes")
      .set(static_cast<double>(current_rss_bytes()));
  registry.gauge("process.peak_rss_bytes")
      .set(static_cast<double>(peak_rss_bytes()));
  mem::publish_to_metrics();
  const std::string text = to_openmetrics(registry.snapshot());
  try {
    AtomicFileWriter writer(options_.path);
    writer.write(text);
    writer.commit();
  } catch (const IoError& e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!write_warned_) {
      write_warned_ = true;
      std::fprintf(stderr, "stocdr: live metrics export failed: %s\n",
                   e.what());
    }
  }
}

void LiveExporter::thread_main() {
  const auto period = std::chrono::milliseconds(options_.period_ms);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_requested_) {
    if (wake_.wait_for(lock, period,
                       [this] { return stop_requested_; })) {
      break;  // the final snapshot belongs to stop()
    }
    lock.unlock();
    publish();
    lock.lock();
  }
}

namespace detail {

void ensure_live_exporter_from_env() {
  // Guarded by a small state machine instead of call_once: publish() calls
  // MetricsRegistry::instance(), which calls back here — a re-entrant
  // call_once on the same flag would deadlock, while state 1 simply
  // returns.
  static std::atomic<int> state{0};  // 0 unset, 1 initializing, 2 done
  if (state.load(std::memory_order_acquire) == 2) return;
  int expected = 0;
  if (!state.compare_exchange_strong(expected, 1,
                                     std::memory_order_acq_rel)) {
    return;  // another thread owns init, or we are re-entered mid-init
  }
  const char* path = std::getenv("STOCDR_METRICS_EXPORT");
  if (path != nullptr && *path != '\0') {
    LiveExporter::Options options;
    options.path = path;
    if (const char* period = std::getenv("STOCDR_METRICS_PERIOD_MS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(period, &end, 10);
      if (end != period && parsed > 0) {
        options.period_ms = std::clamp<std::size_t>(parsed, 10, 3600000);
      }
    }
    // Function-local static: constructed after the metrics registry (the
    // registry's instance() invoked us), so it is destroyed first at exit —
    // the final publish still sees a live registry.
    static LiveExporter exporter(std::move(options));
    exporter.start();
  }
  state.store(2, std::memory_order_release);
}

}  // namespace detail

}  // namespace stocdr::obs
