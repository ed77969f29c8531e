#include "support/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <exception>

#include "support/error.hpp"

namespace stocdr {

namespace {

std::atomic<IoFaultHook> io_fault_hook{nullptr};

/// Arms `site` against the installed hook (0 = no fault / no hook).
int arm_io_fault(const char* site) {
  const IoFaultHook hook = io_fault_hook.load(std::memory_order_acquire);
  return hook != nullptr ? hook(site) : 0;
}

}  // namespace

void set_io_fault_hook(IoFaultHook hook) {
  io_fault_hook.store(hook, std::memory_order_release);
}

void flush_and_sync(std::FILE* file, const std::string& what) {
  if (std::fflush(file) != 0) {
    throw IoError("cannot flush " + what);
  }
  if (::fsync(::fileno(file)) != 0) {
    throw IoError("cannot fsync " + what);
  }
}

void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);  // some filesystems reject directory fsync; best-effort
  (void)::close(fd);
}

AtomicFileWriter::AtomicFileWriter(std::string path, bool carry_existing)
    : path_(std::move(path)),
      temp_path_(path_ + "." + std::to_string(::getpid()) + ".tmp") {
  file_ = std::fopen(temp_path_.c_str(), "w");
  if (file_ == nullptr) {
    throw IoError("AtomicFileWriter: cannot open temporary file: " +
                  temp_path_);
  }
  if (carry_existing) {
    if (std::FILE* existing = std::fopen(path_.c_str(), "r")) {
      char buf[1 << 14];
      std::size_t got;
      while ((got = std::fread(buf, 1, sizeof buf, existing)) > 0) {
        std::fwrite(buf, 1, got, file_);
      }
      std::fclose(existing);
    }
  }
}

AtomicFileWriter::~AtomicFileWriter() {
  if (file_ == nullptr) return;
  try {
    commit();
  } catch (const std::exception&) {
    // Destructors must not throw; the temporary is left for inspection.
  }
}

void AtomicFileWriter::write(const std::string& data) {
  STOCDR_REQUIRE(file_ != nullptr,
                 "AtomicFileWriter::write after commit/discard");
  std::fwrite(data.data(), 1, data.size(), file_);
}

void AtomicFileWriter::commit() {
  if (file_ == nullptr) return;
  const int fault = arm_io_fault("io_write");
  if (fault == 1) {
    // Simulated write failure: behave exactly like a full disk — close and
    // remove the temporary, leave the target untouched, throw.
    std::fclose(file_);
    file_ = nullptr;
    std::remove(temp_path_.c_str());
    throw IoError("AtomicFileWriter: injected io_write failure for " + path_);
  }
  try {
    flush_and_sync(file_, "temporary file " + temp_path_);
  } catch (const IoError&) {
    std::fclose(file_);
    file_ = nullptr;
    throw;
  }
  if (fault == 2) {
    // Simulated torn write: expose only a prefix of the committed bytes, as
    // a crash between a non-atomic writer's blocks would.
    const long size = std::ftell(file_);
    if (size > 0) {
      (void)::ftruncate(::fileno(file_), static_cast<off_t>(size / 2));
    }
  }
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    throw IoError("AtomicFileWriter: cannot rename " + temp_path_ + " -> " +
                  path_);
  }
  sync_parent_dir(path_);
}

void AtomicFileWriter::discard() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
  std::remove(temp_path_.c_str());
}

}  // namespace stocdr
