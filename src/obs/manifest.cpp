#include "obs/manifest.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "obs/json.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

// Build-time injections (CMake); fall back to "unknown" so non-CMake builds
// (e.g. single-file compiles in tooling) still link.
#ifndef STOCDR_GIT_SHA
#define STOCDR_GIT_SHA "unknown"
#endif
#ifndef STOCDR_BUILD_TYPE
#define STOCDR_BUILD_TYPE "unknown"
#endif
#ifndef STOCDR_BUILD_FLAGS
#define STOCDR_BUILD_FLAGS ""
#endif

namespace stocdr::obs {

namespace {

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string host_name() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

std::string utc_date() {
  // The harness (CI, a bench driver) can pin the stamp for reproducible
  // artifact diffs; otherwise take the current wall clock.
  if (const char* injected = std::getenv("STOCDR_RUN_DATE");
      injected != nullptr && *injected != '\0') {
    return injected;
  }
  const std::time_t now = std::time(nullptr);
  std::tm tm_utc{};
#if defined(_WIN32)
  gmtime_s(&tm_utc, &now);
#else
  gmtime_r(&now, &tm_utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

RunManifest current_manifest() {
  RunManifest manifest;
  manifest.git_sha = STOCDR_GIT_SHA;
  manifest.compiler = compiler_id();
  manifest.build_type = STOCDR_BUILD_TYPE;
  manifest.flags = STOCDR_BUILD_FLAGS;
  manifest.hostname = host_name();
  manifest.date_utc = utc_date();
  manifest.pid = process_pid();
  return manifest;
}

std::string manifest_to_json(const RunManifest& manifest) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", std::uint64_t{manifest.schema});
  w.field("git_sha", manifest.git_sha);
  w.field("compiler", manifest.compiler);
  w.field("build_type", manifest.build_type);
  w.field("flags", manifest.flags);
  w.field("hostname", manifest.hostname);
  w.field("date_utc", manifest.date_utc);
  if (manifest.pid != 0) w.field("pid", std::uint64_t{manifest.pid});
  if (!manifest.config_hash.empty()) {
    w.field("config_hash", manifest.config_hash);
  }
  w.end_object();
  return std::move(w).str();
}

std::string fnv1a_hex(std::string_view data) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

}  // namespace stocdr::obs
