#include "daemon/frame.h"

#include <algorithm>

#include "common/wire.h"

namespace tre::daemon {

bool known_frame_type(std::uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kGetKey:
    case FrameType::kGetUpdate:
    case FrameType::kGetRange:
    case FrameType::kPing:
    case FrameType::kGetPartial:
    case FrameType::kKeyReply:
    case FrameType::kUpdateReply:
    case FrameType::kRangeReply:
    case FrameType::kPong:
    case FrameType::kPartialReply:
    case FrameType::kError:
      return true;
  }
  return false;
}

Bytes encode_frame(FrameType type, ByteSpan payload) {
  require(payload.size() <= kMaxPayload, "encode_frame: payload over the wire cap");
  return wire::Writer()
      .raw(kMagic)
      .u8(kVersion)
      .u8(static_cast<std::uint8_t>(type))
      .bytes32(payload)
      .take();
}

const char* frame_error_name(FrameError e) {
  switch (e) {
    case FrameError::kNone: return "none";
    case FrameError::kBadMagic: return "bad magic";
    case FrameError::kBadVersion: return "bad version";
    case FrameError::kUnknownType: return "unknown frame type";
    case FrameError::kOversized: return "oversized payload";
  }
  return "unknown";
}

void FrameReader::feed(ByteSpan data) {
  if (err_ != FrameError::kNone) return;  // broken: drop everything
  // Compact once the consumed prefix dominates, keeping feed() amortized
  // O(bytes) without per-frame erases.
  if (off_ > 0 && off_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<Frame> FrameReader::next() {
  if (err_ != FrameError::kNone) return std::nullopt;
  wire::Reader r(ByteSpan(buf_).subspan(off_));
  ByteSpan magic = r.raw(kMagic.size());
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::uint32_t len = r.u32();
  if (!r.ok()) return std::nullopt;  // header still incomplete
  if (!std::equal(magic.begin(), magic.end(), kMagic.begin())) {
    err_ = FrameError::kBadMagic;
    return std::nullopt;
  }
  if (version != kVersion) {
    err_ = FrameError::kBadVersion;
    return std::nullopt;
  }
  if (!known_frame_type(type)) {
    err_ = FrameError::kUnknownType;
    return std::nullopt;
  }
  if (len > max_payload_) {
    err_ = FrameError::kOversized;
    return std::nullopt;
  }
  ByteSpan payload = r.raw(len);
  if (!r.ok()) return std::nullopt;  // need more bytes
  off_ += kHeaderBytes + payload.size();
  return Frame{static_cast<FrameType>(type), wire::owned(payload)};
}

// --- kError ------------------------------------------------------------------

std::uint8_t errc_wire_code(Errc code) {
  switch (code) {
    case Errc::kFutureInstant: return 1;
    case Errc::kBadRange: return 2;
    case Errc::kConflict: return 3;
    case Errc::kMalformed: return 4;
    case Errc::kSelftestFailed: return 5;
    case Errc::kNotFound: return 6;
    case Errc::kOverloaded: return 7;
    case Errc::kUnsupportedVersion: return 8;
    case Errc::kBadPartial: return 9;
    case Errc::kInsufficientPartials: return 10;
    case Errc::kDkgComplaint: return 11;
  }
  return 0;
}

std::optional<Errc> errc_from_wire(std::uint8_t raw) {
  switch (raw) {
    case 1: return Errc::kFutureInstant;
    case 2: return Errc::kBadRange;
    case 3: return Errc::kConflict;
    case 4: return Errc::kMalformed;
    case 5: return Errc::kSelftestFailed;
    case 6: return Errc::kNotFound;
    case 7: return Errc::kOverloaded;
    case 8: return Errc::kUnsupportedVersion;
    case 9: return Errc::kBadPartial;
    case 10: return Errc::kInsufficientPartials;
    case 11: return Errc::kDkgComplaint;
  }
  return std::nullopt;
}

Bytes encode_error(Errc code, std::string_view message) {
  return wire::Writer().u8(errc_wire_code(code)).raw(message).take();
}

std::optional<WireError> try_parse_error(ByteSpan payload) {
  wire::Reader r(payload);
  std::optional<Errc> code = errc_from_wire(r.u8());
  ByteSpan message = r.rest();
  if (!r.ok() || !code) return std::nullopt;
  return WireError{*code, std::string(message.begin(), message.end())};
}

// --- kKeyReply ---------------------------------------------------------------

Bytes encode_key_reply(std::string_view set_name, ByteSpan pub) {
  return wire::Writer().u8(set_name.size()).raw(set_name).raw(pub).take();
}

std::optional<KeyReply> try_parse_key_reply(ByteSpan payload) {
  wire::Reader r(payload);
  ByteSpan name = r.raw(r.u8());
  ByteSpan pub = r.rest();
  if (!r.ok() || pub.empty()) return std::nullopt;  // empty: a reply without a key
  return KeyReply{std::string(name.begin(), name.end()), wire::owned(pub)};
}

// --- kGetRange / kRangeReply -------------------------------------------------

Bytes encode_get_range(std::uint64_t start, std::uint32_t max_count) {
  return wire::Writer().u64(start).u32(max_count).take();
}

std::optional<RangeRequest> try_parse_get_range(ByteSpan payload) {
  wire::Reader r(payload);
  RangeRequest req{r.u64(), r.u32()};
  if (!r.finish()) return std::nullopt;
  return req;
}

Bytes encode_range_reply(std::uint64_t total, std::uint64_t start,
                         const std::vector<Bytes>& updates) {
  wire::Writer w;
  w.u64(total).u64(start).u32(updates.size());
  for (const Bytes& u : updates) w.bytes32(u);
  Bytes out = w.take();
  require(out.size() <= kMaxPayload, "encode_range_reply: reply over the wire cap");
  return out;
}

std::optional<RangeReply> try_parse_range_reply(ByteSpan payload) {
  wire::Reader r(payload);
  RangeReply reply;
  reply.total = r.u64();
  reply.start = r.u64();
  const std::uint32_t count = r.u32();
  // Each item needs at least its 4-byte length; a hostile count stops at
  // the end of the payload instead of pre-reserving unbounded memory.
  reply.updates.reserve(std::min<size_t>(count, r.remaining() / 4));
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    reply.updates.push_back(wire::owned(r.bytes32()));
  }
  if (!r.finish()) return std::nullopt;
  return reply;
}

}  // namespace tre::daemon
