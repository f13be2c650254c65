#pragma once

// Determinism-digest export for the cross-commit golden transcript.
//
// When MESHMP_DIGEST_OUT names a file, every cluster turns its engine's
// digest on at construction and appends one "<name>=<hex digest>" line to
// the file as it is destroyed (names are "cluster.<k>" with k a
// process-global construction counter, so a binary that builds several
// clusters emits a stable sequence). The CI determinism job runs the same
// binaries twice and diffs both transcripts against
// tests/golden/determinism_digests.txt: any change to a simulated event
// order shows up as a differing line. With the variable unset this is a
// no-op and clusters run hash-free.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace meshmp::chk {

/// Process-global ordinal for digest-emitting clusters.
inline std::uint32_t next_digest_ordinal() noexcept {
  static std::uint32_t counter = 0;
  return counter++;
}

/// Host configuration: the transcript path, or null when unset or empty.
inline const char* digest_out_path() noexcept {
  const char* path = std::getenv("MESHMP_DIGEST_OUT");  // NOLINT(concurrency-mt-unsafe)
  return path != nullptr && *path != '\0' ? path : nullptr;
}

/// Appends "<name>=<hex>" to $MESHMP_DIGEST_OUT (no-op when unset).
inline void append_digest_out(const std::string& name, std::uint64_t digest) {
  const char* path = digest_out_path();
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "ae");
  if (f == nullptr) return;
  std::fprintf(f, "%s=%016llx\n", name.c_str(),
               static_cast<unsigned long long>(digest));
  std::fclose(f);
}

}  // namespace meshmp::chk
