#include "client/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace qtf {
namespace client {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("send(): ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ServiceClient>> ServiceClient::Connect(
    const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        "host must be a numeric IPv4 address, got \"" + host + "\"");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect(" + host + ":" +
                               std::to_string(port) + "): " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<ServiceClient>(new ServiceClient(fd));
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<net::Frame> ServiceClient::CallRaw(net::MessageType type,
                                          std::string_view payload) {
  const uint32_t request_id = next_request_id_++;
  QTF_RETURN_NOT_OK(SendAll(fd_, net::EncodeFrame(type, request_id, payload)));

  char buf[64 * 1024];
  for (;;) {
    net::Frame frame;
    QTF_ASSIGN_OR_RETURN(bool got, decoder_.Next(&frame));
    if (got) {
      if (frame.request_id != request_id) {
        // One request in flight per client; anything else is a server bug
        // or a stale frame from a protocol violation.
        return Status::Internal(
            "response for unexpected request id " +
            std::to_string(frame.request_id) + " (expected " +
            std::to_string(request_id) + ")");
      }
      return frame;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Unavailable(std::string("recv(): ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      return Status::Unavailable("connection closed by server");
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
}

Result<service::ServiceResponse> ServiceClient::Call(
    const service::ServiceRequest& request) {
  const net::MessageType type = net::RequestType(request);
  QTF_ASSIGN_OR_RETURN(net::Frame frame,
                       CallRaw(type, net::EncodeRequest(request)));
  if (frame.type == net::MessageType::kError) {
    Status error;
    QTF_RETURN_NOT_OK(net::DecodeError(frame.payload, &error));
    if (error.ok()) {
      return Status::Internal("server sent an error frame carrying OK");
    }
    return error;
  }
  if (frame.type != net::ResponseTypeFor(type)) {
    return Status::Internal(std::string("unexpected response type ") +
                            net::MessageTypeToString(frame.type));
  }
  return net::DecodeResponse(frame.type, frame.payload);
}

Result<service::GenerateResponse> ServiceClient::Generate(
    const service::GenerateRequest& request) {
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       Call(service::ServiceRequest(request)));
  return std::get<service::GenerateResponse>(std::move(response));
}

Result<service::CompressSuiteResponse> ServiceClient::CompressSuite(
    const service::CompressSuiteRequest& request) {
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       Call(service::ServiceRequest(request)));
  return std::get<service::CompressSuiteResponse>(std::move(response));
}

Result<service::SqlResponse> ServiceClient::Sql(
    const service::SqlRequest& request) {
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       Call(service::ServiceRequest(request)));
  return std::get<service::SqlResponse>(std::move(response));
}

Result<service::LoadRulesResponse> ServiceClient::LoadRules(
    const service::LoadRulesRequest& request) {
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       Call(service::ServiceRequest(request)));
  return std::get<service::LoadRulesResponse>(std::move(response));
}

Result<service::ListRulesResponse> ServiceClient::ListRules(
    const service::ListRulesRequest& request) {
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       Call(service::ServiceRequest(request)));
  return std::get<service::ListRulesResponse>(std::move(response));
}

Result<service::MetricsResponse> ServiceClient::Metrics(
    const service::MetricsRequest& request) {
  QTF_ASSIGN_OR_RETURN(service::ServiceResponse response,
                       Call(service::ServiceRequest(request)));
  return std::get<service::MetricsResponse>(std::move(response));
}

}  // namespace client
}  // namespace qtf
