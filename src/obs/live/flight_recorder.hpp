// Flight recorder: a bounded in-memory ring of the most recent spans and
// events.
//
// Streaming every span to disk is the wrong tool for a long-running solve
// service — what matters after a divergence, a watchdog trip, or a SIGSEGV
// is the *last* few hundred records, not gigabytes of history.  The
// recorder is a TraceSink that tees: each completed span and each emitted
// event is rendered to its JSONL line immediately (same schema as
// JsonlFileSink, via span_to_jsonl / event_to_jsonl) into the next slot of
// one fixed-size ring, then forwarded to an optional downstream sink, so
// ring capture and a full streamed trace coexist and a dump interleaves
// events with the spans around them.
//
// Pre-rendering at on_span time is what makes the dump paths possible:
//   * dump(path)    — atomic temp+rename write, called on demand or by the
//                     robust harness when a SolveSentinel trips;
//   * dump_to_fd(fd)— async-signal-safe (only memcpy-free slot reads and
//                     write(2)), called from the fatal-signal handler.
//
// Enable via STOCDR_TRACE_RING=N (records; clamped to [16, 1<<20]) — the lazy
// trace env init then wraps whatever sink STOCDR_TRACE/_FILE selected — or
// programmatically via FlightRecorder::install().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace stocdr::obs {

class FlightRecorder final : public TraceSink {
 public:
  /// One pre-rendered span or event line per slot.  A line that does not
  /// fit is re-rendered without attributes so every occupied slot holds one
  /// complete, parseable JSON object.
  static constexpr std::size_t kSlotBytes = 1024;
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 20;

  /// `downstream` (optional, not owned, must outlive the recorder) receives
  /// every span and event after it is ringed.
  explicit FlightRecorder(std::size_t capacity,
                          TraceSink* downstream = nullptr);

  void on_span(const SpanRecord& span) override;
  void on_event(const evt::EventRecord& event) override;

  /// Writes the ring — manifest line first, then the retained records
  /// oldest to newest — to `path` via atomic temp+rename, followed by one
  /// span line per span still open on the calling thread (outermost first,
  /// ending at the dump, attribute "open": "true"), so every event in the
  /// ring that names an enclosing span resolves.  Returns the number of
  /// record lines written.  Throws stocdr::IoError on I/O failure.
  std::size_t dump(const std::string& path) const;

  /// Async-signal-safe dump to an already-open file descriptor: no locks,
  /// no allocation, only write(2) of the pre-rendered slots.  Records being
  /// rewritten concurrently by another thread are skipped (zero-length).
  /// Open spans are left out: rendering them allocates, which a signal
  /// handler must not do.
  void dump_to_fd(int fd) const;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Total records (spans and events) since construction (>= capacity()
  /// means the ring has wrapped).
  [[nodiscard]] std::uint64_t recorded() const {
    return seq_.load(std::memory_order_acquire);
  }

  /// The process-wide recorder the robust harness and the crash handler
  /// dump, or nullptr.  Set by install() / the STOCDR_TRACE_RING env init.
  static FlightRecorder* active();
  static void set_active(FlightRecorder* recorder);

  /// Wraps the currently installed tracer sink (which keeps receiving every
  /// record downstream), installs the recorder as the process sink, and marks
  /// it active.  Returns the recorder (owned by the tracer's retired-sink
  /// registry, alive for the process lifetime).
  static FlightRecorder* install(std::size_t capacity);

 private:
  struct Slot {
    std::atomic<std::uint32_t> length{0};  ///< 0 = empty / being rewritten
    char text[kSlotBytes];
  };

  /// Copies one rendered line (shorter than kSlotBytes) into the next slot.
  void ring(const std::string& line);

  TraceSink* downstream_;
  std::string manifest_line_;  ///< pre-rendered at construction
  mutable std::mutex mutex_;   ///< serializes writers; dumps-from-signal skip it
  std::atomic<std::uint64_t> seq_{0};
  std::vector<Slot> slots_;
};

/// Parses a STOCDR_TRACE_RING value: 0 for unset/empty/non-numeric/zero
/// (ring disabled), otherwise the capacity clamped to
/// [kMinCapacity, kMaxCapacity].
[[nodiscard]] std::size_t parse_ring_capacity(const char* spec);

}  // namespace stocdr::obs
