// Decompiler: the baksmali/apktool front-end of Figure 1. Unpacks a SimApk
// and produces the intermediate representation (manifest + parsed dex +
// entry table) that the static filter, the rewriter and the obfuscation
// analyzer read. The smali text is rendered only on demand (Ir::smali(),
// `dydroid disasm`); no analysis reads it.
//
// Decompilation intentionally inherits the tooling's strictness: a poisoned
// debug_info section (anti-decompilation) fails the disassembler's check
// (dex::check_debug_info), and the whole app is recorded as "failed reverse
// engineering" — the paper's 54 apps ("The decompiler crashes and does not
// generate the smali code").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "apk/apk.hpp"
#include "dex/dexfile.hpp"
#include "manifest/manifest.hpp"
#include "support/error.hpp"

namespace dydroid::analysis {

/// Decompiled intermediate representation of one app.
struct Ir {
  manifest::Manifest manifest;
  std::optional<dex::DexFile> classes_dex;  // absent if no classes.dex entry
  std::vector<std::string> entries;         // package file table
  apk::ApkImage image;                      // shared parse of the container

  /// Smali-like disassembly of classes_dex, rendered on each call ("" if
  /// no dex).
  [[nodiscard]] std::string smali() const;
};

/// Decompile an already-parsed APK image (the pipeline path — no re-parse).
/// Fails (like apktool/baksmali) on malformed manifests/bytecode and on
/// anti-decompilation-poisoned dex.
support::Result<Ir> decompile(const apk::ApkImage& image);

/// Decompile from raw bytes: parses the container first (one parse), then
/// delegates. Kept for callers outside the staged pipeline.
support::Result<Ir> decompile(std::span<const std::uint8_t> apk_bytes);

/// True if the IR contains a locally packed file whose format can store
/// bytecode (assets payloads, extra dex/jar entries) — obfuscation rule 2's
/// second clause.
bool has_local_bytecode_store(const Ir& ir);

}  // namespace dydroid::analysis
