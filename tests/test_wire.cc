// The qtfd wire protocol (src/net/wire.h): frame round-trips through an
// incrementally-fed decoder, golden payloads that pin every message's
// bytes, rejection of every class of malformed input, and a seeded fuzz
// loop — truncations, bit flips and pure garbage must come back as clean
// kInvalidArgument results, never a crash, hang or giant allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.h"

namespace qtf {
namespace net {
namespace {

/// One line of tests/wire_golden.txt, after its message type's name.
struct Golden {
  std::string payload;
  /// The payload's first hex word on its own (see the file's header).
  std::string first_word;
};

std::string Unhex(const std::string& hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

/// The golden payloads keyed by message type name.
std::map<std::string, Golden> LoadGoldens() {
  std::ifstream in(std::string(QTF_SOURCE_DIR) + "/tests/wire_golden.txt");
  EXPECT_TRUE(in.good()) << "cannot read tests/wire_golden.txt";
  std::map<std::string, Golden> goldens;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream words(line);
    std::string name;
    words >> name;
    Golden& golden = goldens[name];
    std::string word;
    while (words >> word) {
      if (golden.payload.empty()) golden.first_word = Unhex(word);
      golden.payload += Unhex(word);
    }
  }
  return goldens;
}

service::RequestOptions Options(double deadline_seconds) {
  service::RequestOptions options;
  options.deadline_seconds = deadline_seconds;
  return options;
}

/// The messages tests/wire_golden.txt holds, encoded, keyed by type name.
/// No two fields of one type in a message hold the same value, so
/// encoding these against the goldens catches two fields trading places,
/// which a decode/re-encode round trip cannot.
std::vector<std::pair<std::string, std::string>> EncodedSamples() {
  service::GenerateRequest generate;
  generate.targets = {3, -2, 17};
  generate.method = GenerationMethod::kPattern;
  generate.max_trials = 123;
  generate.extra_ops = -4;
  generate.seed = 0xfedcba9876543210ULL;
  generate.require_relevant = true;
  generate.options = Options(2.25);

  service::GenerateResponse generated;
  generated.success = true;
  generated.sql = "SELECT l_orderkey AS c0 FROM lineitem";
  generated.rule_set = {1, 4, 9};
  generated.cost = -12.75;
  generated.operator_count = -6;
  generated.trials = 42;

  service::CompressSuiteRequest compress;
  compress.suite = {-1, true, 5, GenerationMethod::kPattern, 77, -2,
                    0x0123456789abcdefULL};
  compress.algorithm = service::CompressionAlgorithm::kNoSharingMatching;
  compress.exploit_monotonicity = false;
  compress.options = Options(9.75);

  service::CompressSuiteResponse compressed;
  compressed.suite_queries = 6;
  compressed.assignment = {{0, 2}, {-1}, {1, 3, 5}};
  compressed.total_cost = 123.5;
  compressed.optimizer_calls = -77;
  compressed.degraded_targets = 1;
  compressed.estimated_edges = -12;

  service::CorrectnessRequest correctness;
  correctness.suite = {6, true, -3, GenerationMethod::kPattern, 9, 4, 99};
  correctness.algorithm = service::CompressionAlgorithm::kNoSharingMatching;
  correctness.exploit_monotonicity = false;
  correctness.options = Options(0.125);

  service::CorrectnessResponse checked;
  checked.plans_executed = 9;
  checked.skipped_identical_plans = -3;
  checked.skipped_unavailable = 1;
  checked.violations = {{2, 4, "R3+R7", "SELECT * FROM nation", 100, -90},
                        {-1, 0, "R0", "SELECT r_name FROM region", -5, 7}};

  service::SqlRequest sql;
  sql.sql = "SELECT l_orderkey FROM lineitem WHERE l_quantity < 25";
  sql.mode = service::SqlMode::kCorrectness;
  sql.options = Options(3.5);
  sql.disabled_rules = {6, 14};

  service::SqlResponse answered;
  answered.fingerprint = 0xabcdef0123456789ULL;
  answered.canonical_sql = "SELECT l_orderkey AS c1 FROM lineitem";
  answered.operator_count = -3;
  answered.cost = 17.25;
  answered.exercised_rules = {1, 4};
  answered.group_count = 8;
  answered.expr_count = -21;
  answered.budget_exhausted = true;
  answered.plans_executed = 2;
  answered.skipped_identical_plans = 1;
  answered.skipped_unavailable = -1;
  answered.violations = {{0, -2, "R4", "SELECT *", 10, 12}};

  service::LoadRulesRequest load;
  load.text = "rule R { match s: select(select($X)) rewrite $X }";
  load.dry_run = true;
  load.options = Options(2.5);

  service::LoadRulesResponse loaded;
  loaded.ids = {39, -40};
  loaded.names = {"RuleA", "RuleB"};
  loaded.compiled = -2;

  service::ListRulesResponse listed;
  listed.rules = {{37, "UnionAllToConcat", 1, "UnionAll(Any, Any)", 1},
                  {-1, "DslProbe", 1, "Select(Select(Any))", 1}};

  return {
      {"generate_request", EncodeRequest(generate)},
      {"generate_response", EncodeResponse(generated)},
      {"compress_suite_request", EncodeRequest(compress)},
      {"compress_suite_response", EncodeResponse(compressed)},
      {"correctness_request", EncodeRequest(correctness)},
      {"correctness_response", EncodeResponse(checked)},
      {"metrics_request", EncodeRequest(service::MetricsRequest{true})},
      {"metrics_response",
       EncodeResponse(service::MetricsResponse{
           "{\"counters\":{\"qtf.service.requests\":3}}"})},
      {"sql_request", EncodeSqlRequest(sql)},
      {"sql_response", EncodeSqlResponse(answered)},
      {"load_rules_request", EncodeRequest(load)},
      {"load_rules_response", EncodeResponse(loaded)},
      {"list_rules_request", EncodeRequest(service::ListRulesRequest{})},
      {"list_rules_response", EncodeResponse(listed)},
      {"error",
       EncodeError(Status::Unavailable("connection closed by server"))},
  };
}

/// Every type a frame may carry: kError plus each request and response.
std::vector<MessageType> KnownTypes() {
  std::vector<MessageType> types;
  for (int t = 0; t < 256; ++t) {
    const MessageType type = static_cast<MessageType>(t);
    if (std::strcmp(MessageTypeToString(type), "unknown") != 0) {
      types.push_back(type);
    }
  }
  return types;
}

MessageType TypeNamed(const std::string& name) {
  for (MessageType type : KnownTypes()) {
    if (name == MessageTypeToString(type)) return type;
  }
  ADD_FAILURE() << "no message type named " << name;
  return MessageType::kError;
}

/// Decodes a payload of any type and re-encodes it: the codec round trip
/// every golden and fuzz case goes through.
Result<std::string> Reencode(MessageType type, std::string_view payload) {
  if (type == MessageType::kError) {
    Status error;
    QTF_RETURN_NOT_OK(DecodeError(payload, &error));
    return EncodeError(error);
  }
  if (IsRequestType(type)) {
    QTF_ASSIGN_OR_RETURN(service::ServiceRequest request,
                         DecodeRequest(type, payload));
    EXPECT_EQ(RequestType(request), type);
    return EncodeRequest(request);
  }
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       DecodeResponse(type, payload));
  EXPECT_EQ(ResponseType(response), type);
  return EncodeResponse(response);
}

TEST(WireTest, FrameRoundTrip) {
  const std::string payload = "hello payload";
  const std::string bytes =
      EncodeFrame(MessageType::kMetricsRequest, 42, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame).value());
  EXPECT_EQ(frame.type, MessageType::kMetricsRequest);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_FALSE(decoder.Next(&frame).value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(WireTest, DecoderHandlesBytewiseFeedAndBackToBackFrames) {
  const std::string a = EncodeFrame(MessageType::kGenerateRequest, 1, "aa");
  const std::string b = EncodeFrame(MessageType::kSqlRequest, 2, "");
  const std::string stream = a + b;

  FrameDecoder decoder;
  int frames = 0;
  Frame frame;
  for (char c : stream) {
    decoder.Feed(std::string_view(&c, 1));
    while (decoder.Next(&frame).value()) {
      ++frames;
      if (frames == 1) {
        EXPECT_EQ(frame.type, MessageType::kGenerateRequest);
        EXPECT_EQ(frame.payload, "aa");
      } else {
        EXPECT_EQ(frame.type, MessageType::kSqlRequest);
        EXPECT_EQ(frame.request_id, 2u);
      }
    }
  }
  EXPECT_EQ(frames, 2);
}

TEST(WireTest, DecoderRejectsMalformedHeaders) {
  Frame frame;
  {
    // Wrong magic.
    FrameDecoder decoder;
    decoder.Feed(std::string(kFrameHeaderBytes, '\0'));
    Result<bool> got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Wrong version: version 1 and 2 frames are refused.
    for (char old_version : {1, 2}) {
      std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
      EXPECT_EQ(bytes[4], 3);
      bytes[4] = old_version;
      FrameDecoder decoder;
      decoder.Feed(bytes);
      EXPECT_FALSE(decoder.Next(&frame).ok());
    }
  }
  {
    // Unknown message type.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[5] = 100;
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  {
    // Nonzero reserved bits.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[6] = 1;
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
  {
    // Oversized payload length.
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[15] = 0x7f;  // payload_bytes high byte -> ~2 GiB
    FrameDecoder decoder;
    decoder.Feed(bytes);
    EXPECT_FALSE(decoder.Next(&frame).ok());
  }
}

TEST(WireTest, RetiredOptimizeTypesAreUnknown) {
  for (uint8_t retired : {3, 4}) {
    const MessageType type = static_cast<MessageType>(retired);
    EXPECT_STREQ(MessageTypeToString(type), "unknown");
    EXPECT_FALSE(IsRequestType(type));
    std::string bytes = EncodeFrame(MessageType::kMetricsRequest, 1, "");
    bytes[5] = static_cast<char>(retired);
    FrameDecoder decoder;
    decoder.Feed(bytes);
    Frame frame;
    Result<bool> got = decoder.Next(&frame);
    ASSERT_FALSE(got.ok()) << "type " << int{retired};
    EXPECT_NE(got.status().message().find("unknown message type"),
              std::string::npos)
        << got.status().ToString();
  }
}

TEST(WireTest, TypeTableNumbersEveryPairAdjacently) {
  const std::vector<MessageType> known = KnownTypes();
  // kError plus seven request/response pairs; 3 and 4 stay retired.
  ASSERT_EQ(known.size(), 15u);
  EXPECT_EQ(known.front(), MessageType::kError);
  for (MessageType type : known) {
    if (!IsRequestType(type)) continue;
    EXPECT_EQ(static_cast<int>(ResponseTypeFor(type)),
              static_cast<int>(type) + 1)
        << MessageTypeToString(type);
    EXPECT_FALSE(IsRequestType(ResponseTypeFor(type)));
  }
}

TEST(WireGoldenTest, SamplesEncodeToTheGoldenBytesAndBack) {
  const std::map<std::string, Golden> goldens = LoadGoldens();
  const auto samples = EncodedSamples();
  // One sample, and one golden, per type a frame can carry.
  ASSERT_EQ(samples.size(), KnownTypes().size());
  ASSERT_EQ(goldens.size(), samples.size());
  for (const auto& [name, payload] : samples) {
    SCOPED_TRACE(name);
    const std::string& golden = goldens.at(name).payload;
    EXPECT_EQ(payload, golden);
    Result<std::string> reencoded = Reencode(TypeNamed(name), golden);
    ASSERT_TRUE(reencoded.ok()) << reencoded.status().ToString();
    EXPECT_EQ(*reencoded, golden);
  }
}

TEST(WireGoldenTest, EveryPrefixAndTrailingByteIsRejected) {
  for (const auto& [name, golden] : LoadGoldens()) {
    SCOPED_TRACE(name);
    const MessageType type = TypeNamed(name);
    const std::string_view payload = golden.payload;
    for (size_t n = 0; n < payload.size(); ++n) {
      Result<std::string> decoded = Reencode(type, payload.substr(0, n));
      ASSERT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
    Result<std::string> trailing = Reencode(type, golden.payload + "x");
    ASSERT_FALSE(trailing.ok());
    EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireGoldenTest, SqlRequestAppendsDisabledRulesToTheVersion1Layout) {
  const Golden golden = LoadGoldens().at("sql_request");
  auto decoded = DecodeSqlRequest(golden.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mode, service::SqlMode::kCorrectness);
  EXPECT_EQ(decoded->disabled_rules, (std::vector<RuleId>{6, 14}));
  EXPECT_EQ(decoded->options.deadline_seconds, 3.5);
  // Without disabled rules the payload is version 1's, less the 20 budget
  // bytes version 3 deleted, plus an empty count.
  decoded->disabled_rules.clear();
  EXPECT_EQ(EncodeSqlRequest(*decoded),
            golden.first_word + std::string(4, '\0'));
}

TEST(WireTest, SqlRequestRejectsUnknownMode) {
  service::SqlRequest request;
  request.sql = "SELECT l_orderkey FROM lineitem WHERE l_quantity < 25";
  std::string payload = EncodeSqlRequest(request);
  // The mode byte sits right after the length-prefixed sql string.
  payload[4 + request.sql.size()] = 9;
  auto decoded = DecodeSqlRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, GarbageCountsAreRejectedBeforeAllocating) {
  // An empty ids vector, then 0xffffffff as the name count with no bytes
  // behind it: the count-vs-remaining guard must reject it, not reserve.
  std::string huge_count(4, '\0');
  huge_count += std::string(4, '\xff');
  auto decoded = DecodeResponse(MessageType::kLoadRulesResponse, huge_count);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  // The same for a vector of structs (a ListRulesResponse's rules).
  auto rules = DecodeResponse(MessageType::kListRulesResponse,
                              std::string(4, '\xff'));
  ASSERT_FALSE(rules.ok());
  EXPECT_EQ(rules.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, ErrorRoundTripUsesFrozenWireCodes) {
  const Status error =
      Status::ResourceExhausted("admission queue full; retry with backoff");
  Status decoded;
  ASSERT_TRUE(DecodeError(EncodeError(error), &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), error.message());
}

TEST(WireTest, VariantDispatchRoundTripsEveryRequestType) {
  service::SqlRequest sql;
  sql.sql = "SELECT n_name FROM nation";
  sql.disabled_rules = {0};
  const std::vector<service::ServiceRequest> requests = {
      service::GenerateRequest{},
      service::CompressSuiteRequest{},
      service::CorrectnessRequest{},
      sql,
      service::LoadRulesRequest{"rule R { match s: select($X) rewrite $X }",
                                true, {}},
      service::ListRulesRequest{},
      service::MetricsRequest{true}};
  for (const service::ServiceRequest& request : requests) {
    const MessageType type = RequestType(request);
    EXPECT_TRUE(IsRequestType(type));
    auto decoded = DecodeRequest(type, EncodeRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->index(), request.index());
    EXPECT_EQ(EncodeRequest(*decoded), EncodeRequest(request));
  }
  // Request payloads are not responses, and vice versa.
  EXPECT_FALSE(DecodeRequest(MessageType::kSqlResponse, "").ok());
  EXPECT_FALSE(DecodeResponse(MessageType::kSqlRequest, "").ok());
  EXPECT_FALSE(DecodeRequest(MessageType::kError, "").ok());
}

TEST(WireTest, FuzzedPayloadsNeverCrashDecoders) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> length(0, 300);
  const std::vector<MessageType> types = KnownTypes();
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string junk(static_cast<size_t>(length(rng)), '\0');
    for (char& c : junk) c = static_cast<char>(byte(rng));
    for (MessageType type : types) (void)Reencode(type, junk);
  }
}

TEST(WireTest, FuzzedFrameStreamsNeverCrashTheDecoder) {
  std::mt19937_64 rng(4242);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> chunk_len(1, 64);
  std::uniform_int_distribution<int> mode(0, 2);
  const std::string generate = EncodeRequest(service::GenerateRequest{});

  for (int iteration = 0; iteration < 500; ++iteration) {
    // Build a stream: valid frames, bit-flipped frames, or pure garbage.
    std::string stream;
    const int kind = mode(rng);
    if (kind == 0) {
      stream = EncodeFrame(MessageType::kGenerateRequest, iteration, generate);
    } else if (kind == 1) {
      stream = EncodeFrame(MessageType::kMetricsRequest, iteration, "");
      const size_t flip = rng() % stream.size();
      stream[flip] = static_cast<char>(stream[flip] ^ (1 << (rng() % 8)));
    } else {
      stream.resize(16 + rng() % 128);
      for (char& c : stream) c = static_cast<char>(byte(rng));
    }

    FrameDecoder decoder;
    size_t fed = 0;
    bool dead = false;
    while (fed < stream.size() && !dead) {
      const size_t n =
          std::min(stream.size() - fed, static_cast<size_t>(chunk_len(rng)));
      decoder.Feed(std::string_view(stream).substr(fed, n));
      fed += n;
      for (;;) {
        Frame frame;
        Result<bool> got = decoder.Next(&frame);
        if (!got.ok()) {
          // Malformed header: a real server closes the connection here.
          EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
          dead = true;
          break;
        }
        if (!got.value()) break;
        // Extracted frames route through payload decoding like the server.
        if (IsRequestType(frame.type)) {
          (void)DecodeRequest(frame.type, frame.payload);
        }
      }
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace qtf
