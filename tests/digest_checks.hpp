// Shared checks for the intercepted-binary digest invariant: every binary
// an outcome carries holds the SHA-256 of its own bytes, whichever path the
// outcome took (analyzed in-thread, decoded from a pool worker, replayed
// from the resume journal, served from the result cache), and the corpus
// dedup table built from those digests does not depend on the path.
#pragma once

#include <gtest/gtest.h>

#include "driver/corpus_runner.hpp"
#include "support/hash.hpp"

namespace dydroid::driver {

/// Every intercepted binary's carried digest is the digest of its bytes.
/// Returns how many binaries were checked.
inline std::size_t expect_binary_digests_match_bytes(
    const CorpusResult& result) {
  std::size_t checked = 0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    for (const auto& binary : result.outcomes[i].report.binaries) {
      EXPECT_EQ(binary.binary.sha256,
                support::sha256(binary.binary.bytes.span()))
          << "app " << i << " binary " << binary.binary.path;
      ++checked;
    }
  }
  return checked;
}

inline void expect_same_dedup(const BinaryDedupStats& got,
                              const BinaryDedupStats& want) {
  EXPECT_EQ(got.total, want.total);
  EXPECT_EQ(got.unique, want.unique);
  EXPECT_EQ(got.unique_dex, want.unique_dex);
  EXPECT_EQ(got.unique_native, want.unique_native);
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.unique_bytes, want.unique_bytes);
  EXPECT_EQ(got.max_reuse, want.max_reuse);
  EXPECT_EQ(got.blobs_written, want.blobs_written);
}

}  // namespace dydroid::driver
