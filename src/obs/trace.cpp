#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <vector>

#include "obs/live/crash_handler.hpp"
#include "obs/live/flight_recorder.hpp"
#include "support/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace stocdr::obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};

/// Installed sinks are retired, not destroyed, when replaced: a thread may
/// still hold the raw pointer inside an open Span.  The set is bounded by
/// the number of install() calls (normally one).  At exit the sinks are
/// destroyed (a JsonlFileSink commits its file then); the tracer is
/// disabled first, so an event emitted meanwhile (a fault fired by that
/// very commit) cannot reach a sink being torn down.
std::mutex g_install_mutex;
struct RetiredSinks {
  std::vector<std::unique_ptr<TraceSink>> sinks;
  ~RetiredSinks() { g_sink.store(nullptr, std::memory_order_release); }
};
std::vector<std::unique_ptr<TraceSink>>& retired_sinks() {
  static RetiredSinks retired;
  return retired.sinks;
}

std::once_flag g_env_once;

void install_locked(std::unique_ptr<TraceSink> sink) {
  g_sink.store(sink.get(), std::memory_order_release);
  if (sink) retired_sinks().push_back(std::move(sink));
}

/// One-time sink selection from STOCDR_TRACE / STOCDR_TRACE_FILE /
/// STOCDR_TRACE_RING.  The ring wraps whatever base sink the other two
/// variables select (or stands alone), so in-memory capture and a streamed
/// trace coexist.
void init_from_env() {
  const char* file = std::getenv("STOCDR_TRACE_FILE");
  const char* mode = std::getenv("STOCDR_TRACE");
  const std::size_t ring =
      parse_ring_capacity(std::getenv("STOCDR_TRACE_RING"));
  const std::lock_guard<std::mutex> lock(g_install_mutex);
  if (g_sink.load(std::memory_order_acquire) != nullptr) {
    return;  // a programmatic install won the race
  }
  std::unique_ptr<TraceSink> base;
  if (file != nullptr && *file != '\0') {
    // A bad environment value must not abort the traced program: degrade
    // to untraced with a warning (this runs inside the first Span).
    try {
      base = std::make_unique<JsonlFileSink>(file);
    } catch (const IoError& e) {
      std::fprintf(stderr, "stocdr: tracing disabled: %s\n", e.what());
    }
  } else if (mode != nullptr && std::strcmp(mode, "console") == 0) {
    base = std::make_unique<ConsoleSink>();
  }
  if (ring > 0) {
    auto recorder = std::make_unique<FlightRecorder>(ring, base.get());
    if (base) retired_sinks().push_back(std::move(base));
    FlightRecorder::set_active(recorder.get());
    // A ring without a fatal-signal dump path would lose exactly the spans
    // it was retaining; STOCDR_CRASH_DUMP=off opts out.
    install_crash_handler_from_env();
    install_locked(std::move(recorder));
  } else if (base) {
    install_locked(std::move(base));
  }
}

/// Per-thread innermost open span, for parent/depth bookkeeping.
thread_local Span* t_current_span = nullptr;

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Small dense per-process thread index (1-based, assigned on first span on
/// the thread) — stable across the thread's lifetime and friendlier to
/// trace viewers than opaque native handles.
std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

void Tracer::install(std::unique_ptr<TraceSink> sink) {
  // Mark env processing as done so a later lazy call cannot override an
  // explicit install (including an explicit uninstall).
  std::call_once(g_env_once, [] {});
  const std::lock_guard<std::mutex> lock(g_install_mutex);
  install_locked(std::move(sink));
}

TraceSink* Tracer::sink() {
  std::call_once(g_env_once, init_from_env);
  return g_sink.load(std::memory_order_acquire);
}

std::uint64_t Tracer::current_span_id() {
  return t_current_span != nullptr ? t_current_span->id() : 0;
}

std::vector<SpanRecord> Tracer::open_spans() {
  std::vector<SpanRecord> open;
  const std::uint64_t now = now_ns();
  for (const Span* span = t_current_span; span != nullptr;
       span = span->parent_) {
    open.push_back(span->record_);
    open.back().duration_ns = now - span->record_.start_ns;
  }
  std::reverse(open.begin(), open.end());
  return open;
}

std::uint32_t process_pid() {
#if defined(__unix__) || defined(__APPLE__)
  static const std::uint32_t pid = static_cast<std::uint32_t>(::getpid());
  return pid;
#else
  return 0;
#endif
}

std::uint64_t Tracer::now_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

Span::Span(const char* name) : sink_(Tracer::sink()) {
  record_.name = name;
  if (sink_ != nullptr) {
    record_.id = next_span_id();
    record_.tid = this_thread_index();
    record_.pid = process_pid();
    parent_ = t_current_span;
    if (parent_ != nullptr) {
      record_.parent_id = parent_->record_.id;
      record_.depth = parent_->record_.depth + 1;
    }
    t_current_span = this;
    record_.start_ns = Tracer::now_ns();
  }
  if (prof::enabled()) {
    perf_ = true;
    perf_top_ = prof::enter_region() == 0;
    perf_start_ns_ =
        sink_ != nullptr ? record_.start_ns : Tracer::now_ns();
    perf_start_ = prof::read_current_thread();
  }
  if (mem::enabled()) {
    mem_ = true;
    const std::uint64_t start_ns =
        perf_ ? perf_start_ns_
              : (sink_ != nullptr ? record_.start_ns : Tracer::now_ns());
    mem_start_ = mem::span_begin(start_ns);
  }
}

void Span::attr(std::string_view key, std::uint64_t value) {
  if (sink_ == nullptr) return;
  record_.attrs.emplace_back(std::string(key), AttrValue(value));
}

void Span::attr(std::string_view key, double value) {
  if (sink_ == nullptr) return;
  record_.attrs.emplace_back(std::string(key), AttrValue(value));
}

void Span::attr(std::string_view key, std::string_view value) {
  if (sink_ == nullptr) return;
  record_.attrs.emplace_back(std::string(key), AttrValue(std::string(value)));
}

void Span::end() {
  if (mem_) {
    mem_ = false;
    // Harvest the region's allocation delta and live high-water before the
    // perf/trace bookkeeping below allocates anything of its own.
    const mem::MemDelta delta = mem::span_end(mem_start_);
    const std::uint64_t end_ns = Tracer::now_ns();
    mem::accumulate(record_.name, delta, end_ns - mem_start_.start_ns,
                    mem_start_.top_level);
    if (sink_ != nullptr) {
      attr("mem.allocated_bytes", delta.allocated_bytes);
      attr("mem.peak_live_bytes", delta.peak_live_bytes);
    }
  }
  if (perf_) {
    perf_ = false;
    // Counters first, clock second: any profiling overhead lands in the
    // wall number, never as phantom counted work.
    const prof::CounterReading now = prof::read_current_thread();
    const std::uint64_t end_ns = Tracer::now_ns();
    prof::leave_region();
    const prof::CounterReading delta = prof::reading_delta(perf_start_, now);
    prof::accumulate(record_.name, delta, end_ns - perf_start_ns_, perf_top_);
    if (sink_ != nullptr) {
      // Traced + profiled runs carry the headline counters per span record.
      if (delta.has(prof::kInstructions)) {
        attr("perf.instructions", delta.values[prof::kInstructions]);
      }
      if (delta.has(prof::kCycles)) {
        attr("perf.cycles", delta.values[prof::kCycles]);
      }
      if (delta.has(prof::kCacheMisses)) {
        attr("perf.cache_misses", delta.values[prof::kCacheMisses]);
      }
      if (delta.has(prof::kTaskClockNs)) {
        attr("perf.task_clock_ns", delta.values[prof::kTaskClockNs]);
      }
    }
  }
  if (sink_ == nullptr) return;
  record_.duration_ns = Tracer::now_ns() - record_.start_ns;
  // Spans are a per-thread stack: ending one that is not innermost (e.g. a
  // heap-kept span ended across scopes) would silently corrupt the
  // parent/depth chain of every span still open above it.  Debug builds
  // refuse; release builds keep the historical pop-if-top behavior.
  assert(t_current_span == this &&
         "obs::Span::end() called out of LIFO order on this thread");
  if (t_current_span == this) t_current_span = parent_;
  TraceSink* sink = sink_;
  sink_ = nullptr;  // idempotent: further calls are no-ops
  sink->on_span(record_);
}

void evt::publish(TraceSink& sink, std::string_view kind, Severity severity,
                  Attrs attrs) {
  EventRecord record;
  record.kind = std::string(kind);
  record.severity = severity;
  record.ts_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  record.pid = process_pid();
  record.span_id = Tracer::current_span_id();
  record.attrs = std::move(attrs);
  sink.on_event(record);
}

}  // namespace stocdr::obs
