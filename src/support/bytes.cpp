#include "support/bytes.hpp"

#include <cstdio>

namespace xcp::support {

// ------------------------------------------------------------------ writer

void ByteWriter::str(std::string_view s, std::size_t cap, const char* field) {
  if (s.size() > cap || s.size() > 0xffff) {
    throw ByteError(std::string("cannot serialize ") + field + ": " +
                        std::to_string(s.size()) + " bytes exceeds cap " +
                        std::to_string(cap),
                    out_.size());
  }
  u16(static_cast<std::uint16_t>(s.size()));
  bytes(s);
}

void ByteWriter::header(std::uint32_t magic, std::uint16_t version) {
  u32(magic);
  u16(version);
  u16(0);  // flags
}

void ByteWriter::patch_u32(std::size_t at, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    out_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// ------------------------------------------------------------------ reader

void ByteReader::fail_at(std::size_t offset, const std::string& msg) const {
  throw ByteError(std::string(context_) + ": " + msg + " at offset " +
                      std::to_string(offset),
                  offset);
}

void ByteReader::fail_truncated(std::size_t n) const {
  fail("truncated: need " + std::to_string(n) + " byte(s), " +
       std::to_string(left()) + " left");
}

bool ByteReader::flag(const char* field) {
  const std::size_t at = offset();
  const std::uint8_t v = u8();
  if (v > 1) {
    fail_at(at, std::string(field) + " flag byte " + std::to_string(v) +
                    " is not 0/1");
  }
  return v == 1;
}

std::string ByteReader::str(std::size_t cap, const char* field) {
  const std::size_t at = offset();
  const std::uint16_t n = u16();
  if (n > cap) {
    fail_at(at, std::string(field) + " length " + std::to_string(n) +
                    " exceeds cap " + std::to_string(cap));
  }
  const std::span<const std::uint8_t> s = bytes(n);
  return std::string(s.begin(), s.end());
}

std::uint16_t ByteReader::header(std::uint32_t magic,
                                 std::uint16_t min_version,
                                 std::uint16_t max_version) {
  const std::size_t magic_at = offset();
  const std::uint32_t got = u32();
  if (got != magic) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", got);
    fail_at(magic_at, std::string("bad magic 0x") + buf);
  }
  const std::size_t version_at = offset();
  const std::uint16_t version = u16();
  if (version < min_version || version > max_version) {
    fail_at(version_at, "unsupported version " + std::to_string(version) +
                            " (this build speaks " +
                            std::to_string(min_version) + ".." +
                            std::to_string(max_version) + ")");
  }
  const std::size_t flags_at = offset();
  const std::uint16_t flags = u16();
  if (flags != 0) fail_at(flags_at, "nonzero flags " + std::to_string(flags));
  return version;
}

void ByteReader::expect_consumed() const {
  if (left() != 0) fail(std::to_string(left()) + " trailing byte(s)");
}

}  // namespace xcp::support
