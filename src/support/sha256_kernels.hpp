// SHA-256 block kernels behind support::Sha256 (internal to support/ and
// its tests). Each kernel compresses whole 64-byte blocks into an eight-word
// state (FIPS 180-4 §6.2.2); padding and buffering stay in Sha256. The
// kernel Sha256 runs is picked once, by CPUID: the SHA-NI kernel on x86-64
// CPUs with the SHA extensions, the portable one everywhere else. Both are
// exposed here so tests can run them against each other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dydroid::support::sha256_kernels {

/// A block kernel: compress `blocks` consecutive 64-byte blocks at `data`
/// into `state`.
using BlockKernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                             std::size_t blocks);

/// Portable scalar kernel.
void blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                     std::size_t blocks);

#if defined(__x86_64__)
/// x86-64 SHA-NI kernel, same contract. Only call when shani_supported().
void blocks_shani(std::uint32_t* state, const std::uint8_t* data,
                  std::size_t blocks);
#endif

/// True when this CPU can run blocks_shani (and so Sha256 uses it).
bool shani_supported();

}  // namespace dydroid::support::sha256_kernels
