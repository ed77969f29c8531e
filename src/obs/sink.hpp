// Trace sinks: where finished spans and events go.
//
// A sink receives two record kinds on one stream: a SpanRecord per
// completed span, already stamped with monotonic times, and an EventRecord
// per notable condition (obs::evt::emit in obs/trace.hpp: sentinel trips,
// rung changes, checkpoints, admission decisions, health alarms, fault
// firings, sweep lifecycle).  Sinks must be safe to call from multiple
// threads (the provided sinks serialize internally); they should be cheap,
// since the tracer calls them synchronously from the instrumented code.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "support/atomic_file.hpp"

namespace stocdr::obs {

/// Attribute value attached to a span or event: unsigned integer (counts,
/// sizes), double (residuals, seconds), or string (method names, labels).
using AttrValue = std::variant<std::uint64_t, double, std::string>;

/// Ordered key/value attributes of one span or event record.
using Attrs = std::vector<std::pair<std::string, AttrValue>>;

/// A completed span as handed to the sink.
struct SpanRecord {
  const char* name = "";       ///< static span name ("mg.cycle", ...)
  std::uint64_t id = 0;        ///< process-unique span id
  std::uint64_t parent_id = 0; ///< 0 = root span
  std::uint32_t depth = 0;     ///< nesting depth on the emitting thread
  std::uint32_t tid = 0;       ///< small per-process thread index (1-based)
  std::uint32_t pid = 0;       ///< OS pid of the emitting process
  std::uint64_t start_ns = 0;  ///< monotonic ns since the tracer epoch
  std::uint64_t duration_ns = 0;
  Attrs attrs;
};

namespace evt {

enum class Severity {
  kInfo,     ///< progress, lifecycle
  kWarning,  ///< degraded but proceeding (rung failure, reject, degrade)
  kAlarm,    ///< numerical-health alarm; `obsctl events` exits non-zero
};

[[nodiscard]] const char* to_string(Severity severity);

/// One event as handed to the sink.  Its trace line:
///   {"event":"<kind>","severity":"info|warning|alarm","ts_ns":<wall ns>,
///    "pid":<pid>,"span_id":<id>,"attrs":{...}}
struct EventRecord {
  std::string kind;
  Severity severity = Severity::kInfo;
  /// CLOCK_REALTIME ns (wall, not the spans' monotonic clock).
  std::uint64_t ts_ns = 0;
  std::uint32_t pid = 0;
  /// The innermost span open on the emitting thread (0 = none).
  std::uint64_t span_id = 0;
  Attrs attrs;
};

}  // namespace evt

/// Abstract destination for completed spans and emitted events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
  virtual void on_event(const evt::EventRecord& event) = 0;
};

/// Writes one JSON object per span or event per line (JSONL).  The first
/// line is a run-provenance manifest ({"manifest":{..}}; see
/// obs/manifest.hpp); each span is then one stable object:
/// {"name":..,"id":..,"parent":..,"depth":..,"tid":..,"ts_ns":..,
///  "dur_ns":..,"attrs":{..}}, interleaved in emission order with event
/// lines (event_to_jsonl).
///
/// Writes are crash-safe: spans stream into the pid-unique temporary
/// `<path>.<pid>.tmp` and the file is fsync'd and atomically renamed onto
/// `path` when the sink closes, so a crash or a deadline kill never leaves
/// a truncated trace behind (the partial temporary remains for inspection)
/// and two concurrent processes tracing to the same path never clobber
/// each other's temporary.  An existing `path` is carried into the new
/// file first, preserving the historical append semantics.
class JsonlFileSink final : public TraceSink {
 public:
  /// Opens the pid-unique temporary; throws IoError if it cannot be opened.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void on_span(const SpanRecord& span) override;
  void on_event(const evt::EventRecord& event) override;

 private:
  void write_line(const std::string& line);

  std::mutex mutex_;
  AtomicFileWriter writer_;
};

/// Human-readable sink: one indented line per span or event on stderr, e.g.
///   [trace]     mg.level  1.23ms  level=2 states=1024
///   [event] warning rung.failure  method=power cause=diverged
class ConsoleSink final : public TraceSink {
 public:
  explicit ConsoleSink(std::FILE* out = stderr) : out_(out) {}

  void on_span(const SpanRecord& span) override;
  void on_event(const evt::EventRecord& event) override;

 private:
  std::mutex mutex_;
  std::FILE* out_;
};

/// Test/diagnostic sink: counts spans and optionally retains them; events
/// are always retained, apart from the span count.
class CollectingSink final : public TraceSink {
 public:
  explicit CollectingSink(bool keep_records = true)
      : keep_records_(keep_records) {}

  void on_span(const SpanRecord& span) override;
  void on_event(const evt::EventRecord& event) override;

  /// Spans seen (events are not counted).
  [[nodiscard]] std::size_t count() const;
  [[nodiscard]] std::vector<SpanRecord> records() const;
  [[nodiscard]] std::vector<evt::EventRecord> events() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  bool keep_records_;
  std::size_t count_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<evt::EventRecord> events_;
};

/// Renders an attribute value as text (used by ConsoleSink and tests).
[[nodiscard]] std::string attr_to_string(const AttrValue& value);

/// Renders one span as its JSONL trace line (no trailing newline) — the
/// schema JsonlFileSink writes and obs/analyze reads.  Shared with the
/// flight recorder so ring dumps and streamed traces stay byte-compatible.
[[nodiscard]] std::string span_to_jsonl(const SpanRecord& span);

/// Renders one event as its JSONL trace line (no trailing newline); the
/// event twin of span_to_jsonl.
[[nodiscard]] std::string event_to_jsonl(const evt::EventRecord& event);

/// The {"manifest":{..}} provenance line stamped first into every trace
/// artifact (no trailing newline).
[[nodiscard]] std::string manifest_jsonl_line();

}  // namespace stocdr::obs
