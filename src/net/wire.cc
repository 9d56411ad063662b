#include "net/wire.h"

#include <array>
#include <concepts>
#include <cstring>
#include <iterator>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace qtf {
namespace net {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24);
}

// --- Type table -----------------------------------------------------------

/// One request/response pair. Row i of kMessages is alternative i of both
/// ServiceRequest and ServiceResponse.
struct MessagePair {
  MessageType request;
  MessageType response;
  const char* request_name;
  const char* response_name;
};

constexpr MessagePair kMessages[] = {
    {MessageType::kGenerateRequest, MessageType::kGenerateResponse,
     "generate_request", "generate_response"},
    {MessageType::kCompressSuiteRequest, MessageType::kCompressSuiteResponse,
     "compress_suite_request", "compress_suite_response"},
    {MessageType::kCorrectnessRequest, MessageType::kCorrectnessResponse,
     "correctness_request", "correctness_response"},
    {MessageType::kSqlRequest, MessageType::kSqlResponse, "sql_request",
     "sql_response"},
    {MessageType::kLoadRulesRequest, MessageType::kLoadRulesResponse,
     "load_rules_request", "load_rules_response"},
    {MessageType::kListRulesRequest, MessageType::kListRulesResponse,
     "list_rules_request", "list_rules_response"},
    {MessageType::kMetricsRequest, MessageType::kMetricsResponse,
     "metrics_request", "metrics_response"},
};
static_assert(std::size(kMessages) ==
                  std::variant_size_v<service::ServiceRequest> &&
              std::size(kMessages) ==
                  std::variant_size_v<service::ServiceResponse>);

/// Index of the row carrying `type` as its request or response; -1 for
/// kError and unknown types.
int RowOf(MessageType type) {
  for (size_t i = 0; i < std::size(kMessages); ++i) {
    if (kMessages[i].request == type || kMessages[i].response == type) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// --- Field lists ----------------------------------------------------------
//
// Each message's fields, in wire order, written once. The encoder, the
// decoder and the decoder's minimum-size bounds are all derived from
// these lists. `Of<T> auto& m` binds a const message (encoding) as well
// as a mutable one (decoding); CorrectnessRequest derives from
// CompressSuiteRequest and so shares its list.

template <typename M, typename T>
concept Of = std::derived_from<std::remove_const_t<M>, T>;

/// The kError payload: the failed request's code, in the frozen
/// StatusCodeToWire numbering, and its message.
struct ErrorPayload {
  int32_t code = 0;
  std::string message;
};

auto Fields(Of<ErrorPayload> auto& m) { return std::tie(m.code, m.message); }

// `cancel` does not travel: the deadline is a remote caller's only stop,
// since an admitted request runs to completion even after its connection
// closes.
auto Fields(Of<service::RequestOptions> auto& m) {
  return std::tie(m.deadline_seconds);
}

auto Fields(Of<service::SuiteSpec> auto& m) {
  return std::tie(m.n_rules, m.pairs, m.k, m.method, m.max_trials,
                  m.extra_ops, m.seed);
}

auto Fields(Of<service::ViolationSummary> auto& m) {
  return std::tie(m.target, m.query, m.target_name, m.sql, m.base_rows,
                  m.restricted_rows);
}

auto Fields(Of<service::RuleInfo> auto& m) {
  return std::tie(m.id, m.name, m.type, m.pattern, m.origin);
}

auto Fields(Of<service::GenerateRequest> auto& m) {
  return std::tie(m.targets, m.method, m.max_trials, m.extra_ops, m.seed,
                  m.require_relevant, m.options);
}

auto Fields(Of<service::GenerateResponse> auto& m) {
  return std::tie(m.success, m.sql, m.rule_set, m.cost, m.operator_count,
                  m.trials);
}

auto Fields(Of<service::CompressSuiteRequest> auto& m) {
  return std::tie(m.suite, m.algorithm, m.exploit_monotonicity, m.options);
}

auto Fields(Of<service::CompressSuiteResponse> auto& m) {
  return std::tie(m.suite_queries, m.assignment, m.total_cost,
                  m.optimizer_calls, m.degraded_targets, m.estimated_edges);
}

auto Fields(Of<service::CorrectnessResponse> auto& m) {
  return std::tie(m.plans_executed, m.skipped_identical_plans,
                  m.skipped_unavailable, m.violations);
}

auto Fields(Of<service::SqlRequest> auto& m) {
  return std::tie(m.sql, m.mode, m.options, m.disabled_rules);
}

auto Fields(Of<service::SqlResponse> auto& m) {
  return std::tie(m.fingerprint, m.canonical_sql, m.operator_count, m.cost,
                  m.exercised_rules, m.group_count, m.expr_count,
                  m.budget_exhausted, m.plans_executed,
                  m.skipped_identical_plans, m.skipped_unavailable,
                  m.violations);
}

auto Fields(Of<service::LoadRulesRequest> auto& m) {
  return std::tie(m.text, m.dry_run, m.options);
}

auto Fields(Of<service::LoadRulesResponse> auto& m) {
  return std::tie(m.ids, m.names, m.compiled);
}

auto Fields(Of<service::ListRulesRequest> auto&) { return std::tie(); }

auto Fields(Of<service::ListRulesResponse> auto& m) {
  return std::tie(m.rules);
}

auto Fields(Of<service::MetricsRequest> auto& m) { return std::tie(m.text); }

auto Fields(Of<service::MetricsResponse> auto& m) { return std::tie(m.body); }

/// Highest valid value of each enum on the wire; decoding rejects larger.
constexpr GenerationMethod MaxValue(GenerationMethod) {
  return GenerationMethod::kPattern;
}
constexpr service::CompressionAlgorithm MaxValue(
    service::CompressionAlgorithm) {
  return service::CompressionAlgorithm::kNoSharingMatching;
}
constexpr service::SqlMode MaxValue(service::SqlMode) {
  return service::SqlMode::kCorrectness;
}

template <typename T>
concept Message = requires(T& m) { Fields(m); };

template <typename T>
concept Enum = std::is_enum_v<T>;

/// Fewest bytes an encoded T can take: what a count-prefixed vector of T
/// must have left per element before the decoder allocates for it.
template <typename T>
constexpr size_t MinBytes() {
  if constexpr (Message<T>) {
    using Tuple = decltype(Fields(std::declval<T&>()));
    return []<size_t... I>(std::index_sequence<I...>) {
      return (size_t{0} + ... +
              MinBytes<std::remove_cvref_t<std::tuple_element_t<I, Tuple>>>());
    }(std::make_index_sequence<std::tuple_size_v<Tuple>>{});
  } else if constexpr (std::is_same_v<T, bool> || Enum<T>) {
    return 1;
  } else if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else {
    return 4;  // strings and vectors: their u32 count
  }
}

// --- Encoder / decoder ----------------------------------------------------

class Writer {
 public:
  void Put(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void Put(bool v) { Put(static_cast<uint8_t>(v ? 1 : 0)); }
  void Put(int32_t v) { AppendU32(&out_, static_cast<uint32_t>(v)); }
  void Put(uint64_t v) {
    AppendU32(&out_, static_cast<uint32_t>(v & 0xffffffffu));
    AppendU32(&out_, static_cast<uint32_t>(v >> 32));
  }
  void Put(int64_t v) { Put(static_cast<uint64_t>(v)); }
  void Put(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    Put(bits);
  }
  void Put(const std::string& v) {
    AppendU32(&out_, static_cast<uint32_t>(v.size()));
    out_.append(v);
  }
  void Put(Enum auto v) { Put(static_cast<uint8_t>(v)); }
  template <typename T>
  void Put(const std::vector<T>& v) {
    AppendU32(&out_, static_cast<uint32_t>(v.size()));
    for (const T& element : v) Put(element);
  }
  void Put(const Message auto& m) {
    std::apply([this](const auto&... field) { (Put(field), ...); },
               Fields(m));
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked consumer. The first problem (a read past the end, an
/// out-of-range enum, a count the remaining bytes cannot hold) is kept and
/// every later read yields zero values; Finish reports it, or trailing
/// bytes, so malformed payloads surface as kInvalidArgument instead of
/// crashes, giant allocations or silent misparses.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  void Get(uint8_t& v) {
    const char* p = Take(1);
    v = p == nullptr ? 0 : static_cast<uint8_t>(*p);
  }
  void Get(bool& v) {
    uint8_t byte = 0;
    Get(byte);
    v = byte != 0;
  }
  void Get(int32_t& v) { v = static_cast<int32_t>(U32()); }
  void Get(uint64_t& v) {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    v = lo | (hi << 32);
  }
  void Get(int64_t& v) {
    uint64_t bits = 0;
    Get(bits);
    v = static_cast<int64_t>(bits);
  }
  void Get(double& v) {
    uint64_t bits = 0;
    Get(bits);
    std::memcpy(&v, &bits, sizeof(v));
  }
  void Get(std::string& v) {
    const uint32_t n = U32();
    // Checked against the bytes actually present: a garbage length fails
    // the read instead of allocating.
    if (const char* p = Take(n)) v.assign(p, n);
  }
  template <Enum E>
  void Get(E& v) {
    uint8_t raw = 0;
    Get(raw);
    if (raw > static_cast<uint8_t>(MaxValue(E{}))) {
      Fail("enum value " + std::to_string(raw) + " out of range");
      return;
    }
    v = static_cast<E>(raw);
  }
  template <typename T>
  void Get(std::vector<T>& v) {
    static_assert(MinBytes<T>() > 0);
    const uint32_t n = U32();
    // A count the remaining bytes cannot hold fails here, before the
    // allocation, rather than after a giant resize.
    if (error_.empty() && (data_.size() - pos_) / MinBytes<T>() < n) {
      Fail("truncated");
    }
    if (!error_.empty()) return;
    v.resize(n);
    for (T& element : v) Get(element);
  }
  void Get(Message auto& m) {
    std::apply([this](auto&... field) { (Get(field), ...); }, Fields(m));
  }

  /// kInvalidArgument naming `what` unless the payload parsed cleanly and
  /// completely.
  Status Finish(const char* what) const {
    if (error_.empty() && pos_ == data_.size()) return Status::OK();
    return Status::InvalidArgument(
        std::string("wire: malformed ") + what + " payload (" +
        (error_.empty() ? std::string("trailing bytes") : error_) + ")");
  }

 private:
  const char* Take(size_t n) {
    if (!error_.empty() || data_.size() - pos_ < n) {
      Fail("truncated");
      return nullptr;
    }
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  uint32_t U32() {
    const char* p = Take(4);
    return p == nullptr ? 0 : ReadU32(p);
  }
  void Fail(std::string why) {
    if (error_.empty()) error_ = std::move(why);
  }

  std::string_view data_;
  size_t pos_ = 0;
  std::string error_;  // the first problem; empty while the parse is clean
};

template <typename M>
std::string Encode(const M& message) {
  Writer writer;
  writer.Put(message);
  return writer.Take();
}

template <typename M>
Result<M> Decode(std::string_view payload, const char* what) {
  Reader reader(payload);
  M message;
  reader.Get(message);
  QTF_RETURN_NOT_OK(reader.Finish(what));
  return message;
}

/// Decodes `payload` as alternative I of Variant.
template <typename Variant, size_t I>
Result<Variant> DecodeAlternative(std::string_view payload,
                                  const char* what) {
  QTF_ASSIGN_OR_RETURN(
      auto message,
      (Decode<std::variant_alternative_t<I, Variant>>(payload, what)));
  return Variant(std::in_place_index<I>, std::move(message));
}

/// Decodes a payload of `type` into the Variant alternative whose row in
/// kMessages carries `type` on the given side (request or response).
template <typename Variant>
Result<Variant> DecodeVariant(MessageType type, std::string_view payload,
                              MessageType MessagePair::*side,
                              const char* kind) {
  using Decoder = Result<Variant> (*)(std::string_view, const char*);
  static constexpr auto kDecoders = []<size_t... I>(std::index_sequence<I...>) {
    return std::array<Decoder, sizeof...(I)>{
        &DecodeAlternative<Variant, I>...};
  }(std::make_index_sequence<std::variant_size_v<Variant>>{});
  const int row = RowOf(type);
  if (row < 0 || kMessages[row].*side != type) {
    return Status::InvalidArgument(std::string("wire: not a ") + kind +
                                   " message type: " +
                                   MessageTypeToString(type));
  }
  return kDecoders[static_cast<size_t>(row)](payload,
                                             MessageTypeToString(type));
}

}  // namespace

const char* MessageTypeToString(MessageType type) {
  if (type == MessageType::kError) return "error";
  const int row = RowOf(type);
  if (row < 0) return "unknown";
  return kMessages[row].request == type ? kMessages[row].request_name
                                        : kMessages[row].response_name;
}

bool IsRequestType(MessageType type) {
  const int row = RowOf(type);
  return row >= 0 && kMessages[row].request == type;
}

MessageType ResponseTypeFor(MessageType request_type) {
  QTF_CHECK(IsRequestType(request_type));
  return kMessages[RowOf(request_type)].response;
}

std::string EncodeFrame(MessageType type, uint32_t request_id,
                        std::string_view payload) {
  QTF_CHECK(payload.size() <= kMaxPayloadBytes);
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, kFrameMagic);
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(0);  // reserved
  out.push_back(0);
  AppendU32(&out, request_id);
  AppendU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

Result<bool> FrameDecoder::Next(Frame* frame) {
  if (buffer_.size() < kFrameHeaderBytes) return false;
  const char* p = buffer_.data();
  const uint32_t magic = ReadU32(p);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  const uint8_t version = static_cast<uint8_t>(p[4]);
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported protocol version " +
                                   std::to_string(version));
  }
  const uint8_t type = static_cast<uint8_t>(p[5]);
  if (type != 0 && RowOf(static_cast<MessageType>(type)) < 0) {
    return Status::InvalidArgument("wire: unknown message type " +
                                   std::to_string(type));
  }
  if (p[6] != 0 || p[7] != 0) {
    return Status::InvalidArgument("wire: nonzero reserved header bits");
  }
  const uint32_t payload_bytes = ReadU32(p + 12);
  if (payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument("wire: payload of " +
                                   std::to_string(payload_bytes) +
                                   " bytes exceeds frame limit");
  }
  if (buffer_.size() < kFrameHeaderBytes + payload_bytes) return false;
  frame->type = static_cast<MessageType>(type);
  frame->request_id = ReadU32(p + 8);
  frame->payload.assign(buffer_, kFrameHeaderBytes, payload_bytes);
  buffer_.erase(0, kFrameHeaderBytes + payload_bytes);
  return true;
}

std::string EncodeSqlRequest(const service::SqlRequest& request) {
  return Encode(request);
}

Result<service::SqlRequest> DecodeSqlRequest(std::string_view payload) {
  return Decode<service::SqlRequest>(
      payload, MessageTypeToString(MessageType::kSqlRequest));
}

std::string EncodeSqlResponse(const service::SqlResponse& response) {
  return Encode(response);
}

Result<service::SqlResponse> DecodeSqlResponse(std::string_view payload) {
  return Decode<service::SqlResponse>(
      payload, MessageTypeToString(MessageType::kSqlResponse));
}

std::string EncodeError(const Status& status) {
  return Encode(ErrorPayload{StatusCodeToWire(status.code()),
                             status.message()});
}

Status DecodeError(std::string_view payload, Status* error) {
  QTF_ASSIGN_OR_RETURN(ErrorPayload decoded,
                       Decode<ErrorPayload>(payload, "error"));
  *error = Status(StatusCodeFromWire(decoded.code), std::move(decoded.message));
  return Status::OK();
}

MessageType RequestType(const service::ServiceRequest& request) {
  return kMessages[request.index()].request;
}

MessageType ResponseType(const service::ServiceResponse& response) {
  return kMessages[response.index()].response;
}

std::string EncodeRequest(const service::ServiceRequest& request) {
  return std::visit([](const auto& message) { return Encode(message); },
                    request);
}

Result<service::ServiceRequest> DecodeRequest(MessageType type,
                                              std::string_view payload) {
  return DecodeVariant<service::ServiceRequest>(type, payload,
                                                &MessagePair::request,
                                                "request");
}

std::string EncodeResponse(const service::ServiceResponse& response) {
  return std::visit([](const auto& message) { return Encode(message); },
                    response);
}

Result<service::ServiceResponse> DecodeResponse(MessageType type,
                                                std::string_view payload) {
  return DecodeVariant<service::ServiceResponse>(type, payload,
                                                 &MessagePair::response,
                                                 "response");
}

}  // namespace net
}  // namespace qtf
