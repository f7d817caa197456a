// The one byte codec behind every wire and file format: big-endian
// integers, u16/u32-length-prefixed fields, and the non-throwing parse.
//
// Writer appends. A value or length that does not fit its field is a bug
// in the caller's data, so it throws tre::Error.
//
// Reader never reads past the end of its input and never throws. An
// overrun latches a failure flag; from then on every read returns zero
// or an empty span. finish() is true only when no read overran and the
// input was consumed exactly, so it rejects truncation and trailing bytes
// in one check. Non-throwing parsers of hostile bytes (daemon/frame.cpp)
// test it directly; throwing codecs turn a false finish() into a
// tre::Error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/error.h"

namespace tre::wire {

class Writer {
 public:
  Writer& u8(std::uint64_t v) { return be(v, 1, "wire: value exceeds u8"); }
  Writer& u16(std::uint64_t v) { return be(v, 2, "wire: value exceeds u16"); }
  Writer& u32(std::uint64_t v) { return be(v, 4, "wire: value exceeds u32"); }
  Writer& u64(std::uint64_t v) { return be(v, 8, ""); }

  /// The bytes as they are, with no length prefix.
  Writer& raw(ByteSpan b);
  Writer& raw(std::string_view s) {
    return raw(ByteSpan(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  /// A field preceded by its length as a u16 (u32).
  Writer& bytes16(ByteSpan b) { return u16(b.size()).raw(b); }
  Writer& bytes16(std::string_view s) { return u16(s.size()).raw(s); }
  Writer& bytes32(ByteSpan b) { return u32(b.size()).raw(b); }

  Bytes take() { return std::move(out_); }

 private:
  Writer& be(std::uint64_t v, unsigned width, const char* overflow) {
    require(width == 8 || v >> (8 * width) == 0, overflow);
    std::uint8_t buf[8];
    for (unsigned i = 0; i < width; ++i) {
      buf[i] = static_cast<std::uint8_t>(v >> (8 * (width - 1 - i)));
    }
    return raw(ByteSpan(buf, width));
  }

  Bytes out_;
};

class Reader {
 public:
  /// `in` must outlive the Reader and every span it returns.
  explicit Reader(ByteSpan in) : in_(in) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(be(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(be(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be(4)); }
  std::uint64_t u64() { return be(8); }

  /// The next `n` bytes, or an empty span (and the failure latched) when
  /// fewer remain.
  ByteSpan raw(size_t n) {
    if (failed_ || n > in_.size() - pos_) {
      failed_ = true;
      return {};
    }
    ByteSpan out = in_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// A field preceded by its length as a u16 (u32).
  ByteSpan bytes16() { return raw(u16()); }
  ByteSpan bytes32() { return raw(u32()); }
  std::string str16() {
    ByteSpan b = bytes16();
    return std::string(b.begin(), b.end());
  }

  /// Everything not yet read.
  ByteSpan rest() { return raw(remaining()); }
  size_t remaining() const { return failed_ ? 0 : in_.size() - pos_; }

  bool ok() const { return !failed_; }
  bool finish() const { return !failed_ && pos_ == in_.size(); }

 private:
  std::uint64_t be(size_t width) {
    std::uint64_t v = 0;
    for (std::uint8_t b : raw(width)) v = v << 8 | b;
    return v;
  }

  ByteSpan in_;
  size_t pos_ = 0;
  bool failed_ = false;
};

/// An owned copy of a field a Reader returned.
inline Bytes owned(ByteSpan b) { return Bytes(b.begin(), b.end()); }

/// `T::from_bytes(args...)` for bytes from untrusted sources (mirrors,
/// the wire): nullopt wherever it throws tre::Error, so a hostile input
/// cannot drive control flow through exceptions. A parsed artifact is
/// well-formed but not authenticated.
template <class T, class... Args>
std::optional<T> try_parse(Args&&... args) {
  try {
    return T::from_bytes(std::forward<Args>(args)...);
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace tre::wire
