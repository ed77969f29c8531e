// Distributed trace context: one trace across many processes.
//
// A single-process trace keys spans by process-unique ids; a fleet of
// cooperating workers (a sharded sweep, the future stocdr-serve) needs one
// identity that survives fork/exec so their traces can be merged and the
// cross-process call chain reconstructed.  The context is three numbers:
//
//   trace_id   64-bit id shared by every process in one logical run; a
//              child adopts its parent's, a root process derives a fresh
//              one from pid + clock entropy
//   pid        the OS pid of the process that owns span_id (span ids are
//              only process-unique, so a cross-process reference must be
//              the (pid, span_id) pair)
//   span_id    the span open at the moment the context was captured
//              (0 = "the process itself", no specific span)
//
// Propagation is environmental: `format_traceparent` renders the context
// as `<trace_id:hex16>-<pid:hex8>-<span_id:hex16>` and `spawn_child`
// injects it as STOCDR_TRACE_PARENT into the child's environment.  On the
// child side the first span of the process (parent_ == nullptr) records
// the remote context as its cross-process parent, and the process adopts
// the parent's trace_id — so span and event records of the whole
// fleet carry one consistent trace_id.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stocdr::obs::dist {

/// One cross-process trace reference (see file comment).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t pid = 0;
  std::uint64_t span_id = 0;  ///< 0 = no specific span

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// `<trace_id:hex16>-<pid:hex8>-<span_id:hex16>`, e.g.
/// "00c2f1d4a9e37b58-00004e21-0000000000000007".
[[nodiscard]] std::string format_traceparent(const TraceContext& ctx);

/// Parses the format above; nullopt on any malformation (wrong field
/// widths, non-hex digits, zero trace_id).
[[nodiscard]] std::optional<TraceContext> parse_traceparent(
    std::string_view text);

/// The remote parent context parsed from STOCDR_TRACE_PARENT (read once,
/// lazily); nullopt when unset or malformed.
[[nodiscard]] const std::optional<TraceContext>& remote_parent();

/// This process's trace id: the remote parent's when STOCDR_TRACE_PARENT
/// is set, otherwise derived once from pid + clock entropy.  Never 0.
[[nodiscard]] std::uint64_t process_trace_id();

/// getpid(), cached (safe across fork+exec: the exec'd image re-caches).
[[nodiscard]] std::uint32_t process_pid();

/// The context of the innermost span open on the calling thread (span_id 0
/// when tracing is off or no span is open) — what a spawner exports so the
/// child's root spans link under the spawning span.
[[nodiscard]] TraceContext current_context();

/// format_traceparent(current_context()).
[[nodiscard]] std::string current_traceparent();

#if defined(__unix__) || defined(__APPLE__)
/// fork/exec helper that propagates the trace context: the child runs
/// `argv` (argv[0] = executable path) with the parent's environment plus
/// STOCDR_TRACE_PARENT=current_traceparent() plus `extra_env` (each entry
/// "KEY=VALUE"; entries override inherited variables of the same KEY, and
/// a later entry overrides an earlier one).  Returns the child pid; throws
/// stocdr::IoError when fork fails.  A failed exec exits the child with
/// status 127.
[[nodiscard]] int spawn_child(const std::vector<std::string>& argv,
                              const std::vector<std::string>& extra_env = {});

/// Blocks until `pid` exits; returns its exit status (128 + signal when it
/// died on a signal).  Throws stocdr::IoError when waitpid fails.
[[nodiscard]] int wait_child(int pid);
#endif

}  // namespace stocdr::obs::dist
