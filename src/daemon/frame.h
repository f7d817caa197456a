// The tred wire protocol: self-describing versioned frames.
//
// Everything the daemon sends or receives is one frame:
//
//     0      4   magic "TREd"
//     4      1   protocol version (kVersion)
//     5      1   frame type (FrameType)
//     6      4   payload length N, big-endian
//     10     N   payload
//
// The framing layer is deliberately dumb: payloads are opaque bytes.
// Key updates travel exactly as core::BasicKeyUpdate<B>::to_bytes()
// emits them, so the daemon never parses group elements — the paper's
// self-authentication argument means the TRUST boundary lives in the
// client (parse -> tag -> pairing check, client/fetcher.h), and the
// server side stays a byte shuffler that scales.
//
// Error discipline (the PR-2 tre::Errc convention): nothing in this
// header throws on wire input. FrameReader::next() returns frames until
// the buffer is exhausted or framing damage is detected; damage latches
// broken() and the connection owner decides what to do (the daemon
// replies kError and closes). Only the encode_* builders — which operate
// on OUR data, not the peer's — enforce contracts with tre::require.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace tre::daemon {

inline constexpr std::array<std::uint8_t, 4> kMagic = {'T', 'R', 'E', 'd'};
inline constexpr std::uint8_t kVersion = 1;
inline constexpr size_t kHeaderBytes = 10;

/// Hard ceiling on a frame payload, both directions; range replies are
/// packed to fit it.
inline constexpr size_t kMaxPayload = size_t{1} << 20;  // 1 MiB

/// Requests are tiny (a tag, a cursor); a peer claiming more is hostile.
inline constexpr size_t kMaxRequestPayload = 4096;

/// Request types occupy the low half, replies have the top bit set.
enum class FrameType : std::uint8_t {
  kGetKey = 0x01,      ///< -> kKeyReply: the server public key
  kGetUpdate = 0x02,   ///< payload = tag bytes -> kUpdateReply
  kGetRange = 0x03,    ///< payload = be64 start, be32 max -> kRangeReply
  kPing = 0x04,        ///< liveness probe -> kPong (payload echoed)
  kGetPartial = 0x05,  ///< payload = tag bytes -> kPartialReply (beacon nodes)
  kKeyReply = 0x81,
  kUpdateReply = 0x82,
  kRangeReply = 0x83,
  kPong = 0x84,
  /// Payload = threshold::BasicPartialUpdate<B>::to_bytes() verbatim: a
  /// beacon node's s_i·H1(tag). Like updates, the daemon never parses it.
  kPartialReply = 0x85,
  kError = 0xff,  ///< payload = 1-byte wire code, then a UTF-8 message
};

bool known_frame_type(std::uint8_t raw);

struct Frame {
  FrameType type = FrameType::kError;
  Bytes payload;
};

/// Serializes one frame. Throws tre::Error if `payload` exceeds
/// kMaxPayload (a caller bug, never a peer-controlled condition).
Bytes encode_frame(FrameType type, ByteSpan payload);

enum class FrameError : std::uint8_t {
  kNone,
  kBadMagic,
  kBadVersion,
  kUnknownType,
  kOversized,
};

const char* frame_error_name(FrameError e);

/// Incremental, non-throwing frame decoder for one connection.
///
/// feed() appends wire bytes as they arrive; next() pops complete
/// frames. The first header that fails validation (wrong magic, wrong
/// version, unknown type, length beyond `max_payload`) latches broken():
/// no further frames are produced and the connection should be torn
/// down — resynchronizing inside a hostile byte stream is a non-goal.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kMaxPayload)
      : max_payload_(max_payload) {}

  void feed(ByteSpan data);
  std::optional<Frame> next();

  bool broken() const { return err_ != FrameError::kNone; }
  FrameError error() const { return err_; }
  size_t buffered() const { return buf_.size() - off_; }

 private:
  size_t max_payload_;
  Bytes buf_;
  size_t off_ = 0;  // consumed prefix; compacted opportunistically
  FrameError err_ = FrameError::kNone;
};

// --- Typed payload codecs ----------------------------------------------------
// Each has an encode_* builder and a non-throwing try_parse_* reader.

/// kError payload: wire code byte, then the message.
struct WireError {
  Errc code = Errc::kMalformed;
  std::string message;
};
std::uint8_t errc_wire_code(Errc code);
std::optional<Errc> errc_from_wire(std::uint8_t raw);
Bytes encode_error(Errc code, std::string_view message);
std::optional<WireError> try_parse_error(ByteSpan payload);

/// kKeyReply payload: 1-byte set-name length, set name, raw public key.
struct KeyReply {
  std::string set_name;
  Bytes pub;
};
Bytes encode_key_reply(std::string_view set_name, ByteSpan pub);
std::optional<KeyReply> try_parse_key_reply(ByteSpan payload);

/// kGetRange payload: be64 start position, be32 max item count.
struct RangeRequest {
  std::uint64_t start = 0;
  std::uint32_t max_count = 0;
};
Bytes encode_get_range(std::uint64_t start, std::uint32_t max_count);
std::optional<RangeRequest> try_parse_get_range(ByteSpan payload);

/// kRangeReply payload: be64 archive total, be64 start, be32 count,
/// then count x (be32 length, update bytes). `total` lets a catch-up
/// client know how far behind it still is after a capped reply.
struct RangeReply {
  std::uint64_t total = 0;
  std::uint64_t start = 0;
  std::vector<Bytes> updates;
};
Bytes encode_range_reply(std::uint64_t total, std::uint64_t start,
                         const std::vector<Bytes>& updates);
std::optional<RangeReply> try_parse_range_reply(ByteSpan payload);

}  // namespace tre::daemon
