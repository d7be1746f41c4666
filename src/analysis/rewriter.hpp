// App rewriter: unpacks, injects a permission into the manifest, repacks and
// re-signs — the apktool-based repackaging step DyDroid applies when an app
// lacks WRITE_EXTERNAL_STORAGE (the dynamic-analysis log lives on external
// storage). Repacking is strict: anti-repackaging CRC traps crash it
// (paper Table II "Rewriting failure").
#pragma once

#include <string_view>

#include "apk/apk.hpp"
#include "support/error.hpp"

namespace dydroid::analysis {

/// Key used to re-sign rewritten packages (the original developer key is
/// not available to the analyst).
inline constexpr std::string_view kResignKey = "dydroid-resign";

/// Add `permission` to the manifest of an already-parsed image and repack.
/// The strict full re-parse of the old path collapses to a CRC check over
/// the shared parse's file table — same traps, same error text, no second
/// deserialize. Returns a fresh image (the one repack that must serialize),
/// or failure when an anti-repackaging trap or malformed manifest trips it.
support::Result<apk::ApkImage> rewrite_with_permission(
    const apk::ApkImage& image, std::string_view permission);

}  // namespace dydroid::analysis
