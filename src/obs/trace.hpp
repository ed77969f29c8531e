// Scoped-span tracing.
//
// The paper's evaluation is built on per-experiment cost annotations
// ("Matrixformtime", "Solvetime", multigrid cycle counts); this layer makes
// those measurements a structural property of the code instead of ad-hoc
// printf accounting.  A Span is an RAII region: construction stamps a
// monotonic start time (the same steady clock as stocdr::Timer), destruction
// emits a SpanRecord — name, nesting, duration, attributes — to the
// installed TraceSink.
//
// Tracing is off by default and the disabled path is designed to cost
// nothing: a Span constructed while no sink is installed stores a null sink
// pointer and every member function returns immediately without allocating.
//
// Sink selection:
//   * programmatic: Tracer::install(std::make_unique<ConsoleSink>());
//   * environment (read once, lazily, on first use):
//       STOCDR_TRACE_FILE=trace.jsonl   -> JSONL file sink
//       STOCDR_TRACE=console            -> human-readable stderr sink
//       STOCDR_TRACE=off / unset        -> null (no) sink
//
// Span ids are process-unique; parent/depth tracking is per-thread (a span
// opened on one thread is never the parent of a span on another).
//
// Events (obs::evt::emit below) are the stream's second record kind: one
// per notable condition, stamped and handed to the same sink, so a trace
// file, a flight-recorder dump or the console interleaves them with the
// spans around them.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/mem/mem.hpp"
#include "obs/prof/perf.hpp"
#include "obs/sink.hpp"

namespace stocdr::obs {

/// Process-global tracer state: the installed sink and the monotonic epoch.
class Tracer {
 public:
  /// True when a sink is installed (after lazy env initialization).  This is
  /// the fast-path guard instrumented code may use to skip attribute
  /// computation that is only needed for tracing.
  static bool enabled() { return sink() != nullptr; }

  /// Installs `sink` as the process sink (nullptr uninstalls).  Replaces any
  /// previous sink, including one selected via environment variables.
  static void install(std::unique_ptr<TraceSink> sink);

  /// The installed sink, or nullptr.  Performs the one-time environment
  /// lookup on first call.
  static TraceSink* sink();

  /// Monotonic nanoseconds since the process tracer epoch (the first use of
  /// the tracing clock); shares steady_clock with stocdr::Timer.
  static std::uint64_t now_ns();

  /// Id of the innermost span open on the calling thread (0 when tracing is
  /// disabled or no span is open).  Cross-process context capture
  /// (obs/dist/context.hpp) exports this so a spawned child's root spans
  /// can link under the spawning span.
  static std::uint64_t current_span_id();

  /// The spans still open on the calling thread, outermost first, each as
  /// the record it would end with now (duration up to this call, the
  /// attributes attached so far).  Empty when none is open.
  static std::vector<SpanRecord> open_spans();
};

/// RAII scoped span.  Cheap to construct when tracing is disabled; when
/// enabled, records duration and attributes and emits on destruction (or on
/// an explicit end()).  Spans must be ended in LIFO order per thread —
/// guaranteed by scoping them as locals, and enforced by an assert() in
/// debug builds (out-of-order end() corrupts parent/depth bookkeeping).
class Span {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Span(const char* name);
  ~Span() { end(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span will be emitted; use to guard attribute
  /// computations that are only meaningful under tracing.
  [[nodiscard]] bool active() const { return sink_ != nullptr; }

  /// Attaches a key/value attribute (no-op when inactive).
  void attr(std::string_view key, std::uint64_t value);
  void attr(std::string_view key, double value);
  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, bool value) {
    attr(key, std::string_view(value ? "true" : "false"));
  }
  /// Any other integral type funnels into the std::uint64_t overload.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, std::uint64_t> &&
             !std::is_same_v<T, bool>)
  void attr(std::string_view key, T value) {
    attr(key, static_cast<std::uint64_t>(value));
  }

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void end();

  /// The span's process-unique id (0 when inactive).
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  friend class Tracer;  // open_spans() reads the per-thread chain

  TraceSink* sink_;       // nullptr = disabled span, all calls no-ops
  SpanRecord record_;     // only `name` is set when disabled
  Span* parent_ = nullptr;

  // Perf-counter integration (STOCDR_PERF=1): a profiled span snapshots the
  // thread's counters at both ends and folds the delta into the per-name
  // prof aggregates — independent of whether a trace sink is installed, so
  // profiling works on untraced runs.  Perf-only spans never touch the
  // per-thread parent/depth chain.
  bool perf_ = false;       // counters snapshotted; end() must accumulate
  bool perf_top_ = false;   // outermost profiled span on this thread
  std::uint64_t perf_start_ns_ = 0;
  prof::CounterReading perf_start_;

  // Allocation-telemetry integration (STOCDR_MEM=1): same banking shape as
  // perf — a tracked span snapshots the thread's allocation counters at
  // both ends and folds the delta (plus the region's live high-water) into
  // the per-name mem aggregates, independent of any trace sink.
  bool mem_ = false;        // mem snapshotted; end() must accumulate
  mem::SpanStart mem_start_;
};

namespace evt {

/// Stamps wall time, pid, trace id and the innermost open span id onto one
/// event and hands it to `sink`.
void publish(TraceSink& sink, std::string_view kind, Severity severity,
             Attrs attrs);

/// Emits one event into the trace stream.  With no sink installed this is
/// the same Tracer::sink() check a disabled Span makes, and nothing else.
inline void emit(std::string_view kind, Severity severity = Severity::kInfo,
                 Attrs attrs = {}) {
  if (TraceSink* sink = Tracer::sink()) {
    publish(*sink, kind, severity, std::move(attrs));
  }
}

}  // namespace evt

}  // namespace stocdr::obs
