#ifndef QTF_CLIENT_CLIENT_H_
#define QTF_CLIENT_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "net/wire.h"
#include "service/api.h"

namespace qtf {
namespace client {

/// Thin synchronous client for a qtfd server: one TCP connection, one
/// request in flight at a time (issue concurrent requests from multiple
/// clients — qtfd multiplexes connections, and the protocol's request ids
/// exist so richer clients can pipeline later). The typed calls mirror
/// RuleTestService exactly: a remote Generate() returns the same
/// Result<GenerateResponse> an in-process call would, with server-side
/// errors (shed, deadline, validation) decoded back into their Status.
class ServiceClient {
 public:
  /// Connects to a numeric IPv4 address ("127.0.0.1"), no name resolution.
  static Result<std::unique_ptr<ServiceClient>> Connect(
      const std::string& host, uint16_t port);

  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  Result<service::GenerateResponse> Generate(
      const service::GenerateRequest& request);
  Result<service::CompressSuiteResponse> CompressSuite(
      const service::CompressSuiteRequest& request);
  Result<service::SqlResponse> Sql(const service::SqlRequest& request);
  Result<service::LoadRulesResponse> LoadRules(
      const service::LoadRulesRequest& request);
  Result<service::ListRulesResponse> ListRules(
      const service::ListRulesRequest& request);
  Result<service::MetricsResponse> Metrics(
      const service::MetricsRequest& request);

  /// Sends any request variant and decodes the matching response variant.
  /// kError frames come back as their carried Status (a shed request is
  /// kResourceExhausted here, exactly as in-process).
  Result<service::ServiceResponse> Call(const service::ServiceRequest& request);

  /// Sends a raw frame and returns the raw response frame, no payload
  /// decoding. This is the byte-identity test hook: the returned payload
  /// can be compared bit-for-bit against a local EncodeResponse().
  Result<net::Frame> CallRaw(net::MessageType type, std::string_view payload);

 private:
  explicit ServiceClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  uint32_t next_request_id_ = 1;
  net::FrameDecoder decoder_;
};

}  // namespace client
}  // namespace qtf

#endif  // QTF_CLIENT_CLIENT_H_
