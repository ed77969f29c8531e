// Crash-safe file writing: write to a temporary sibling, rename on commit.
//
// Artifact files (BENCH_<name>.json, JSONL traces, checkpoints) are read by
// downstream tooling; a process killed mid-write — a crash, a deadline
// kill, an OOM — must never leave a truncated artifact that parses halfway.
// POSIX rename() within one directory is atomic, so readers observe either
// the previous complete file or the new complete file, never a prefix.
//
// Commit is durable, not just atomic: the temporary is fsync'd before the
// rename (so the bytes the rename exposes have reached the disk, not just
// the page cache) and the parent directory is fsync'd after it (so the
// rename itself survives a power loss).  The temporary name embeds the pid,
// so two processes racing on the same artifact path cannot clobber each
// other's in-flight temporary — last rename wins, and both files are whole.
#pragma once

#include <cstdio>
#include <string>

namespace stocdr {

/// Fault-injection seam for crash testing, installed by the
/// robust/faultinject engine (see docs/ROBUSTNESS.md).  Consulted once per
/// commit with site "io_write"; the returned code requests a simulated
/// fault: 0 = none, 1 = fail (throw IoError before the rename, target
/// untouched), 2 = torn (truncate the temporary to half its bytes, then
/// rename — a committed-but-mangled artifact downstream readers must
/// reject gracefully).
using IoFaultHook = int (*)(const char* site);
void set_io_fault_hook(IoFaultHook hook);

/// Writes `<path>.<pid>.tmp` and renames it to `<path>` on commit().  If
/// the process dies before commit, the temporary is left behind and the
/// target is untouched.  Destruction commits automatically (so RAII users —
/// e.g. a trace sink closed at exit — finalize without an explicit call);
/// use discard() to drop the temporary instead.
class AtomicFileWriter {
 public:
  /// Opens the pid-unique temporary for writing; throws stocdr::IoError on
  /// failure.  With `carry_existing`, the current contents of `path` (if
  /// any) are copied into the temporary first, preserving append semantics
  /// across opens of the same artifact.
  explicit AtomicFileWriter(std::string path, bool carry_existing = false);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// The stdio handle of the temporary file; valid until commit()/discard().
  [[nodiscard]] std::FILE* handle() { return file_; }

  /// True while the temporary is open (neither committed nor discarded).
  [[nodiscard]] bool open() const { return file_ != nullptr; }

  /// Convenience: fwrite the whole string.
  void write(const std::string& data);

  /// Flushes, fsyncs, closes, and atomically renames the temporary onto the
  /// target, then fsyncs the parent directory.  Idempotent.  Throws
  /// stocdr::IoError if the flush, sync, or rename fails.
  void commit();

  /// Closes and removes the temporary without touching the target.
  void discard();

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::FILE* file_ = nullptr;
};

/// fsync of an already-open stdio stream (flush first); throws
/// stocdr::IoError on failure.  Shared by the writer above and the
/// append-mode sweep journal, which must make each appended line durable
/// without the temp+rename dance.
void flush_and_sync(std::FILE* file, const std::string& what);

/// Best-effort fsync of `path`'s parent directory, making a completed
/// rename/creat in it durable.  Errors are ignored: some filesystems reject
/// directory fsync, and the data files themselves are already synced.
void sync_parent_dir(const std::string& path);

}  // namespace stocdr
