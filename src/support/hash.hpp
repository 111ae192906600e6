#pragma once
// Non-cryptographic hashing used by the *simulated* signature scheme and for
// content addressing of blocks/transactions. See crypto/signature.hpp for why
// a simulated scheme is sound in this model.

#include <cstdint>
#include <string_view>

namespace xcp {

/// FNV-1a 64-bit over a byte string.
std::uint64_t fnv1a64(std::string_view bytes);

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xffffffff) — the checksum
/// framing the write-ahead journal uses to detect torn and corrupt records
/// (net/wal.hpp). Table-driven, byte-at-a-time.
std::uint32_t crc32(const void* data, std::size_t size);
inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// Order-dependent combinator (boost-style golden-ratio mix).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

/// Hashes structured data in a canonical, platform-independent order
/// (little-endian integers, length-prefixed strings). All protocol objects
/// that get signed or content-addressed serialize through this.
///
/// FNV-1a is a streaming hash, so the writer keeps only the running state:
/// digest() equals fnv1a64() over the concatenated bytes, without buffering
/// them (no allocation on the vote-signing path).
class HashWriter {
 public:
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_u32(std::uint32_t v);
  void write_str(std::string_view s);

  /// Digest of everything written so far.
  std::uint64_t digest() const { return state_; }

 private:
  void write_byte(unsigned char c) {
    state_ ^= c;
    state_ *= kFnvPrime;
  }

  static constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;
  std::uint64_t state_ = kFnvOffset;
};

}  // namespace xcp
