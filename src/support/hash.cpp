#include "support/hash.hpp"

#include <array>

namespace xcp {

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint32_t crc32(const void* data, std::size_t size) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  // 64-bit analogue of boost::hash_combine.
  return seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

void HashWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) write_byte(static_cast<unsigned char>(v >> (8 * i)));
}

void HashWriter::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void HashWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) write_byte(static_cast<unsigned char>(v >> (8 * i)));
}

void HashWriter::write_str(std::string_view s) {
  write_u64(s.size());
  for (unsigned char c : s) write_byte(c);
}

}  // namespace xcp
