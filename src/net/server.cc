#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace qtf {
namespace net {

namespace {

// Linux always has MSG_NOSIGNAL; the fallback keeps the file portable to
// platforms that suppress SIGPIPE differently (qtfd_main ignores SIGPIPE
// process-wide as well).
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<ServiceServer>> ServiceServer::Start(
    service::RuleTestService* service, ServerConfig config) {
  QTF_CHECK(service != nullptr);
  if (config.workers < 1) {
    return Status::InvalidArgument("ServerConfig::workers must be >= 1, got " +
                                   std::to_string(config.workers));
  }
  std::unique_ptr<ServiceServer> server(
      new ServiceServer(service, std::move(config)));
  QTF_RETURN_NOT_OK(server->Bind());
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

ServiceServer::ServiceServer(service::RuleTestService* service,
                             ServerConfig config)
    : service_(service), config_(std::move(config)) {
  // Queue sized so every admitted request fits without Submit() ever
  // blocking a session reader: the admission gate bounds in-flight
  // requests at max_queue_depth before anything is enqueued.
  const size_t queue_capacity = service_->admission()->max_depth() +
                                static_cast<size_t>(config_.workers) + 8;
  pool_ = std::make_unique<ThreadPool>(config_.workers, queue_capacity);
  obs::MetricsRegistry* metrics = service_->metrics();
  active_sessions_ = metrics->gauge("qtf.service.active_sessions");
  sessions_total_ = metrics->counter("qtf.service.sessions_total");
  bad_frames_ = metrics->counter("qtf.service.bad_frames");
  bytes_in_ = metrics->counter("qtf.service.bytes_in");
  bytes_out_ = metrics->counter("qtf.service.bytes_out");
}

ServiceServer::~ServiceServer() { Shutdown(); }

Status ServiceServer::Bind() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  listen_fd_.store(fd);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("ServerConfig::host must be a numeric "
                                   "IPv4 address, got \"" +
                                   config_.host + "\"");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Status::Unavailable("bind(" + config_.host + ":" +
                               std::to_string(config_.port) +
                               "): " + std::strerror(errno));
  }
  if (::listen(fd, 64) < 0) {
    return Status::Unavailable(std::string("listen(): ") +
                               std::strerror(errno));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    return Status::Unavailable(std::string("getsockname(): ") +
                               std::strerror(errno));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

void ServiceServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Shutdown() closed the listening socket (or it genuinely broke);
      // either way the accept loop is done.
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto session = std::make_shared<Session>();
    session->fd = fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      sessions_.push_back(session);
      sessions_total_->Increment();
      active_sessions_->Add(1);
      session_threads_.emplace_back(
          [this, session] { ServeConnection(session); });
    }
  }
}

void ServiceServer::ServeConnection(std::shared_ptr<Session> session) {
  FrameDecoder decoder;
  char buf[64 * 1024];
  bool protocol_error = false;

  while (!protocol_error) {
    const ssize_t n = ::recv(session->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, connection error, or SHUT_RD drain
    bytes_in_->Increment(n);
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));

    for (;;) {
      Frame frame;
      Result<bool> got = decoder.Next(&frame);
      if (!got.ok()) {
        // Unsynchronized stream: count it and drop the connection. Frames
        // already extracted were already dispatched.
        bad_frames_->Increment();
        protocol_error = true;
        break;
      }
      if (!got.value()) break;
      if (!IsRequestType(frame.type)) {
        bad_frames_->Increment();
        protocol_error = true;
        break;
      }

      if (frame.type == MessageType::kMetricsRequest) {
        // Inline on the reader, no admission: metrics must stay readable
        // exactly when the gate is shedding everything else.
        HandleFrame(session, std::move(frame));
        continue;
      }

      service::AdmissionGate::Ticket ticket =
          service_->admission()->TryEnter();
      if (!ticket) {
        WriteFrame(session, MessageType::kError, frame.request_id,
                   EncodeError(Status::ResourceExhausted(
                       "admission queue full (" +
                       std::to_string(service_->admission()->max_depth()) +
                       " requests in flight); retry with backoff")));
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(session->write_mu);
        ++session->pending;
      }
      pool_->Submit([this, session, frame = std::move(frame),
                     ticket = std::move(ticket)]() mutable {
        HandleFrame(session, std::move(frame));
        ticket.Release();
        {
          std::lock_guard<std::mutex> lock(session->write_mu);
          --session->pending;
        }
        session->drained.notify_all();
      });
    }
  }

  // Let in-flight workers finish writing their responses, then close
  // (under write_mu: Shutdown pokes session->fd from another thread).
  {
    std::unique_lock<std::mutex> lock(session->write_mu);
    session->drained.wait(lock, [&] { return session->pending == 0; });
    ::close(session->fd);
    session->fd = -1;
  }
  active_sessions_->Add(-1);
}

void ServiceServer::HandleFrame(const std::shared_ptr<Session>& session,
                                Frame frame) {
  Result<service::ServiceRequest> request =
      DecodeRequest(frame.type, frame.payload);
  if (!request.ok()) {
    // Malformed payload in a well-formed frame: the stream is still
    // synchronized, so answer the error and keep the connection.
    WriteFrame(session, MessageType::kError, frame.request_id,
               EncodeError(request.status()));
    return;
  }
  Result<service::ServiceResponse> response =
      service_->ExecuteAdmitted(request.value());
  if (!response.ok()) {
    WriteFrame(session, MessageType::kError, frame.request_id,
               EncodeError(response.status()));
    return;
  }
  WriteFrame(session, ResponseTypeFor(frame.type), frame.request_id,
             EncodeResponse(response.value()));
}

void ServiceServer::WriteFrame(const std::shared_ptr<Session>& session,
                               MessageType type, uint32_t request_id,
                               std::string_view payload) {
  const std::string frame = EncodeFrame(type, request_id, payload);
  std::lock_guard<std::mutex> lock(session->write_mu);
  if (session->fd < 0) return;
  if (SendAll(session->fd, frame.data(), frame.size())) {
    bytes_out_->Increment(static_cast<int64_t>(frame.size()));
  }
  // A failed send is not fatal here: the reader notices the dead
  // connection on its next recv and tears the session down.
}

void ServiceServer::Shutdown() {
  // One caller at a time; a second concurrent Shutdown blocks here until
  // the first finishes its joins, then finds everything already torn down.
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);

  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::thread> session_threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    sessions.swap(sessions_);
    session_threads.swap(session_threads_);
  }

  // Stop accepting: closing the listening socket makes accept() fail and
  // the accept loop return.
  const int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) {
    ::shutdown(listen_fd, SHUT_RDWR);
    ::close(listen_fd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain: wake each reader (recv returns 0 after SHUT_RD), let it wait
  // out its in-flight requests, write their responses, and close.
  for (const auto& session : sessions) {
    std::lock_guard<std::mutex> lock(session->write_mu);
    if (session->fd >= 0) ::shutdown(session->fd, SHUT_RD);
  }
  for (std::thread& t : session_threads) {
    if (t.joinable()) t.join();
  }

  // All readers gone, all their tasks done; now the pool can go.
  if (pool_ != nullptr) pool_->Shutdown();
}

}  // namespace net
}  // namespace qtf
