#ifndef QTF_NET_WIRE_H_
#define QTF_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "service/api.h"

namespace qtf {
namespace net {

/// The qtfd wire protocol: length-prefixed binary frames over a byte
/// stream (docs/serving.md has the full layout). Everything here is pure
/// serialization — no sockets — so the whole protocol is unit- and
/// fuzz-testable in-process (tests/test_wire.cc).
///
/// Frame header, 16 bytes, little-endian:
///
///   offset 0  u32  magic         0x51544657 ("QTFW")
///   offset 4  u8   version       kWireVersion
///   offset 5  u8   type          MessageType
///   offset 6  u16  reserved      must be 0
///   offset 8  u32  request_id    echoed verbatim in the response frame
///   offset 12 u32  payload_bytes length of the payload that follows
///
/// The request id exists for out-of-order completion: a server executing
/// requests on a worker pool writes each response frame as it finishes,
/// tagged with the id of the request it answers, so one connection can
/// have many requests in flight.
inline constexpr uint32_t kFrameMagic = 0x51544657;  // "QTFW"
inline constexpr uint8_t kWireVersion = 3;
inline constexpr size_t kFrameHeaderBytes = 16;
/// Upper bound on a frame payload. Anything larger is a protocol error
/// (the connection is closed), which also caps what a hostile peer can
/// make the server buffer.
inline constexpr uint32_t kMaxPayloadBytes = 16u << 20;

enum class MessageType : uint8_t {
  /// Error response: payload is {i32 wire status code, string message}.
  kError = 0,
  kGenerateRequest = 1,
  kGenerateResponse = 2,
  // 3 and 4 carried the Optimize pair of wire version 1, which SqlRequest
  // subsumes. They stay unused, and frames carrying them are rejected as
  // an unknown type.
  kCompressSuiteRequest = 5,
  kCompressSuiteResponse = 6,
  kCorrectnessRequest = 7,
  kCorrectnessResponse = 8,
  kMetricsRequest = 9,
  kMetricsResponse = 10,
  kSqlRequest = 11,
  kSqlResponse = 12,
  kLoadRulesRequest = 13,
  kLoadRulesResponse = 14,
  kListRulesRequest = 15,
  kListRulesResponse = 16,
};

const char* MessageTypeToString(MessageType type);
bool IsRequestType(MessageType type);
/// The response type answering a given request type (kError aside).
MessageType ResponseTypeFor(MessageType request_type);

/// One complete decoded frame.
struct Frame {
  MessageType type = MessageType::kError;
  uint32_t request_id = 0;
  std::string payload;
};

/// Serializes a complete frame (header + payload).
std::string EncodeFrame(MessageType type, uint32_t request_id,
                        std::string_view payload);

/// Incremental frame extractor for a byte stream. Feed() whatever arrived;
/// Next() yields complete frames. Any malformed header — wrong magic,
/// unknown version or type, nonzero reserved bits, oversized payload —
/// returns kInvalidArgument, after which the stream is unsynchronized and
/// the connection must be closed. Truncation is not an error, just "need
/// more bytes".
class FrameDecoder {
 public:
  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// True + *frame filled when a complete frame was extracted; false when
  /// more bytes are needed; kInvalidArgument on a malformed header.
  Result<bool> Next(Frame* frame);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

// --- Payloads ---------------------------------------------------------------
//
// A payload is its message's fields in declaration order, as wire.cc
// lists them once per message (RequestOptions::cancel never travels):
// integers little-endian, doubles as their IEEE-754 bits, bools and enums
// one byte, strings and vectors a u32 count followed by the bytes or
// elements, nested structs inline.
// Encoding is deterministic (same struct -> same bytes); decoding accepts
// exactly what encoding produces and rejects truncated payloads, trailing
// bytes, out-of-range enums and counts the remaining bytes cannot hold
// with kInvalidArgument. This is what makes "byte-identical across
// transports" testable: the in-process response, encoded, must equal the
// wire payload.

/// The SQL pair, the service's hot path, also has typed entry points so
/// callers can encode or decode it without a variant.
std::string EncodeSqlRequest(const service::SqlRequest& request);
Result<service::SqlRequest> DecodeSqlRequest(std::string_view payload);
std::string EncodeSqlResponse(const service::SqlResponse& response);
Result<service::SqlResponse> DecodeSqlResponse(std::string_view payload);

/// kError payload: the Status a request failed with, via the frozen
/// StatusCodeToWire numbering (common/status.h).
std::string EncodeError(const Status& status);
/// Reconstructs the error Status carried by a kError payload into *error;
/// the return value is the decode outcome (Result<Status> would be
/// ambiguous — both alternatives are a Status).
Status DecodeError(std::string_view payload, Status* error);

// --- Variant-level dispatch ----------------------------------------------

/// Message type a given request/response variant travels as.
MessageType RequestType(const service::ServiceRequest& request);
MessageType ResponseType(const service::ServiceResponse& response);

std::string EncodeRequest(const service::ServiceRequest& request);
/// Decodes a request payload of the given type; kInvalidArgument for
/// non-request types or malformed payloads.
Result<service::ServiceRequest> DecodeRequest(MessageType type,
                                              std::string_view payload);
std::string EncodeResponse(const service::ServiceResponse& response);
Result<service::ServiceResponse> DecodeResponse(MessageType type,
                                                std::string_view payload);

}  // namespace net
}  // namespace qtf

#endif  // QTF_NET_WIRE_H_
