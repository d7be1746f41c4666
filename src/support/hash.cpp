#include "support/hash.hpp"

#include <algorithm>
#include <array>
#include <atomic>

#include "support/sha256_kernels.hpp"

namespace dydroid::support {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// CRC-32 (zlib polynomial) lookup tables for slicing-by-8: tables[0] is
/// the classic byte-at-a-time table; tables[j] advances a byte that sits
/// j positions deeper in the stream. Produces bit-identical CRCs to the
/// scalar loop while consuming 8 bytes per iteration — the checksum is on
/// the journal append hot path (docs/CHECKPOINT.md) and in SimApk entry
/// verification.
std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t j = 1; j < 8; ++j) {
      c = tables[0][c & 0xff] ^ (c >> 8);
      tables[j][i] = c;
    }
  }
  return tables;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) {
  std::uint64_t h = kFnvOffset;
  for (const auto b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
}

// ---- SHA-256 (FIPS 180-4) --------------------------------------------------

namespace {

constexpr std::array<std::uint32_t, 8> kSha256Init = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

using sha256_kernels::BlockKernel;

/// The block kernel this CPU runs, chosen by CPUID on first use. A relaxed
/// atomic rather than a function-local static: racing first uses pick the
/// same kernel, and there is no initialization guard for a pool worker
/// forked mid-initialization to inherit locked (it may run at static-init
/// time, from other translation units' constants, too).
std::atomic<BlockKernel> g_block_kernel{nullptr};

BlockKernel block_kernel() {
  BlockKernel kernel = g_block_kernel.load(std::memory_order_relaxed);
  if (kernel == nullptr) {
    kernel = &sha256_kernels::blocks_portable;
#if defined(__x86_64__)
    if (sha256_kernels::shani_supported()) {
      kernel = &sha256_kernels::blocks_shani;
    }
#endif
    g_block_kernel.store(kernel, std::memory_order_relaxed);
  }
  return kernel;
}

}  // namespace

Sha256::Sha256() { state_ = kSha256Init; }

void Sha256::compress(const std::uint8_t* blocks, std::size_t count) {
  block_kernel()(state_.data(), blocks, count);
}

void Sha256::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::copy_n(p, take, buffer_.begin() + static_cast<long>(buffered_));
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == buffer_.size()) {
      compress(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (n >= 64) {
    compress(p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::copy_n(p, n, buffer_.begin());
    buffered_ = n;
  }
}

void Sha256::update(std::string_view s) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Sha256Digest Sha256::digest() {
  // Pad in place: 0x80, zeros to byte 56 of a block, the 64-bit big-endian
  // bit length. A tail past byte 55 spills the padding into a second block.
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<long>(buffered_), buffer_.end(), 0);
    compress(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<long>(buffered_),
            buffer_.begin() + 56, 0);
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  compress(buffer_.data(), 1);
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(64, '0');
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out[2 * i] = kHex[bytes[i] >> 4];
    out[2 * i + 1] = kHex[bytes[i] & 0xf];
  }
  return out;
}

std::uint64_t Sha256Digest::prefix64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 hasher;
  hasher.update(data);
  return hasher.digest();
}

Sha256Digest sha256(std::string_view s) {
  Sha256 hasher;
  hasher.update(s);
  return hasher.digest();
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  static const auto tables = make_crc_tables();
  std::uint32_t c = 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
        tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^
        tables[3][hi & 0xff] ^ tables[2][(hi >> 8) & 0xff] ^
        tables[1][(hi >> 16) & 0xff] ^ tables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tables[0][(c ^ *p++) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace dydroid::support
