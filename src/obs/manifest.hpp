// Run-provenance manifest: the identifying facts stamped into every trace
// and BENCH_<name>.json artifact so cross-run diffs (stocdr-obsctl
// bench-diff, flamegraph comparisons) are trustworthy — a 2x "regression"
// measured against a different compiler, host, or configuration is not a
// regression.
//
// Fields and where they come from:
//   git_sha     build-time git HEAD (STOCDR_GIT_SHA compile definition,
//               injected by CMake; "unknown" outside a git checkout)
//   compiler    compiler id + version (predefined macros)
//   build_type  CMAKE_BUILD_TYPE (STOCDR_BUILD_TYPE definition)
//   flags       the C++ flags the library was compiled with
//   hostname    runtime gethostname()
//   date_utc    wall-clock date: the STOCDR_RUN_DATE environment variable
//               when the harness injects one (CI does, for reproducible
//               artifacts), otherwise the current UTC time
//   config_hash FNV-1a of the experiment configuration summary; empty for
//               artifacts with no single configuration (e.g. traces)
//   schema      trace/artifact schema version (bumped on layout changes)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace stocdr::obs {

struct RunManifest {
  std::string git_sha;
  std::string compiler;
  std::string build_type;
  std::string flags;
  std::string hostname;
  std::string date_utc;
  std::string config_hash;
  std::uint32_t pid = 0;      ///< emitting process
  std::uint32_t schema = 3;
};

/// The manifest for this process (config_hash left empty; stamp it per
/// artifact when the artifact describes one configuration).
[[nodiscard]] RunManifest current_manifest();

/// Serializes a manifest as one JSON object (empty config_hash omitted).
[[nodiscard]] std::string manifest_to_json(const RunManifest& manifest);

/// 64-bit FNV-1a of `data` as 16 lowercase hex digits; used for
/// config_hash stamping.
[[nodiscard]] std::string fnv1a_hex(std::string_view data);

}  // namespace stocdr::obs
