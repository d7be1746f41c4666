// Smali-like text disassembler for SimDex — the baksmali analogue.
//
// Deliberately stricter than the VM: it parses the optional "debug_info"
// extra section (instruction index -> source line), which the VM ignores.
// Malformed debug info therefore crashes the *tooling* while leaving the app
// runnable — the mechanism real anti-decompilation packers exploit against
// apktool (paper §III-D).
#pragma once

#include <string>

#include "dex/dexfile.hpp"

namespace dydroid::dex {

/// Parsed debug-info entry (see ExtraSection "debug_info").
struct DebugLine {
  std::uint32_t pc = 0;
  std::uint32_t line = 0;
};

/// Disassemble to smali-like text: check_debug_info, then validate(), then
/// render. Throws support::ParseError if the file's debug_info section is
/// malformed (anti-decompilation) or the file does not validate.
std::string disassemble(const DexFile& dex);

/// The tooling strictness the VM lacks: parse every debug_info extra
/// section. Throws support::ParseError on a malformed one — the check
/// anti-decompilation poison trips.
void check_debug_info(const DexFile& dex);

/// Name of the debug-info extra section.
inline constexpr std::string_view kDebugInfoSection = "debug_info";

/// Encode a debug_info section body (pairs of u32 pc, u32 line; pcs must be
/// strictly increasing and in range for the method count check).
support::Bytes encode_debug_info(const std::vector<DebugLine>& lines);

/// Parse a debug_info section; throws support::ParseError if entries are
/// truncated or pcs are not strictly increasing.
std::vector<DebugLine> parse_debug_info(std::span<const std::uint8_t> data);

}  // namespace dydroid::dex
