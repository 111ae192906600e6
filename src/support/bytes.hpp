#pragma once
// The one byte codec under every binary format in the tree: protocol
// frames (net/wire, "XCPM") and the notary journal (net/wal, "XCPJ").
// Each format keeps its own magic, version constant and uint8 kind enum;
// this file owns the primitives they share, so the truncation, corruption
// and canonical-flag properties hold once, here:
//
//  - every integer is little-endian at a fixed width, written byte-wise,
//    so encodings are identical across host endianness;
//  - strings are u16-length-prefixed and capped per field;
//  - a header is `magic u32 | version u16 | flags u16 (= 0)`;
//  - every read is bounds-checked, and every failure is one ByteError
//    naming the decode context and the absolute byte offset.
//
// docs/WIRE.md, "Byte codec", is the reference for the two formats and
// the rejection taxonomy.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace xcp::support {

/// A malformed, truncated or unencodable byte string. what() names the
/// decode context and the byte offset, e.g.
///   "VoteMsg: truncated: need 8 byte(s), 2 left at offset 23"
class ByteError : public std::runtime_error {
 public:
  ByteError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}

  /// Byte offset into the whole input at which decoding failed.
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_ = 0;
};

/// Appends to a caller-owned buffer, so a reused buffer never allocates
/// once it has reached its high-water mark.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  std::size_t size() const { return out_.size(); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void bytes(const std::uint8_t* data, std::size_t n) {
    out_.insert(out_.end(), data, data + n);
  }
  void bytes(std::string_view s) {
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// u16 length + bytes; throws ByteError when `s` exceeds `cap`.
  void str(std::string_view s, std::size_t cap, const char* field);

  /// `magic u32 | version u16 | flags u16 (= 0)`.
  void header(std::uint32_t magic, std::uint16_t version);

  /// Overwrites the u32 at `at` (a placeholder written earlier).
  void patch_u32(std::size_t at, std::uint32_t v);

 private:
  void put_le(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked cursor over untrusted bytes. A sub-reader made by sub()
/// covers one nested frame but reports offsets into the whole input.
class ByteReader {
 public:
  /// `context` must outlive the reader (string literals, or a string the
  /// caller keeps alive); it prefixes every error message.
  ByteReader(const std::uint8_t* data, std::size_t size,
             std::string_view context, std::size_t origin = 0)
      : data_(data), size_(size), origin_(origin), context_(context) {}

  /// Absolute offset of the next byte.
  std::size_t offset() const { return origin_ + pos_; }
  std::size_t left() const { return size_ - pos_; }
  /// The unread bytes, without consuming them.
  std::span<const std::uint8_t> remaining() const {
    return {data_ + pos_, left()};
  }

  /// Names what is being decoded from here on.
  void set_context(std::string_view context) { context_ = context; }

  /// Throws ByteError "<context>: <msg> at offset <N>".
  [[noreturn]] void fail(const std::string& msg) const {
    fail_at(offset(), msg);
  }
  [[noreturn]] void fail_at(std::size_t offset, const std::string& msg) const;

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  /// A flag byte that must be exactly 0 or 1: any other value would parse
  /// but not re-serialize to the same bytes.
  bool flag(const char* field);

  /// u16 length + bytes, the length capped at `cap`.
  std::string str(std::size_t cap, const char* field);

  /// The next `n` bytes, as a view into the input.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

  /// Checks `magic u32 | version u16 | flags u16`: the magic must match,
  /// min_version <= version <= max_version, flags must be 0. Returns the
  /// version.
  std::uint16_t header(std::uint32_t magic, std::uint16_t min_version,
                       std::uint16_t max_version);

  /// Consumes the next `len` bytes and returns a reader over just them.
  ByteReader sub(std::size_t len, std::string_view context) {
    need(len);
    ByteReader out(data_ + pos_, len, context, offset());
    pos_ += len;
    return out;
  }

  /// Fails unless every byte has been read.
  void expect_consumed() const;

 private:
  void need(std::size_t n) const {
    if (left() < n) fail_truncated(n);
  }
  [[noreturn]] void fail_truncated(std::size_t n) const;

  std::uint64_t get_le(std::size_t width) {
    need(width);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t origin_;
  std::string_view context_;
};

}  // namespace xcp::support
