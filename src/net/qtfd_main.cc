// qtfd — the rule-testing framework as a daemon.
//
// One resident RuleTestFramework (warm plan cache, interner, metrics)
// served over the wire.h TCP protocol to any number of concurrent clients.
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, finish every
// admitted request, answer it, exit 0.
//
// Usage:
//   qtfd [--host 127.0.0.1] [--port 7433] [--workers 4] [--threads N]
//        [--queue-depth 128] [--plan-cache 4096] [--tpch-scale 1]
//        [--fault-seed 0] [--default-deadline SECONDS]

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "net/server.h"
#include "service/service.h"

namespace {

volatile sig_atomic_t g_stop = 0;

void HandleStopSignal(int /*signum*/) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host IP] [--port N] [--workers N] [--threads N]\n"
      "          [--queue-depth N] [--plan-cache N] [--tpch-scale N]\n"
      "          [--fault-seed N] [--default-deadline SECONDS]\n",
      argv0);
}

/// Parses a whole unsigned decimal number no larger than `max`. Signs,
/// blanks and empty text are refused, so "-1" never wraps to a huge count.
bool ParseCount(const char* s, unsigned long long max,
                unsigned long long* out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0' || n > max) return false;
  *out = n;
  return true;
}

/// Parses seconds, fractions allowed: finite and not negative.
bool ParseSeconds(const char* s, double* out) {
  char* end = nullptr;
  const double seconds = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(seconds) || seconds < 0.0) {
    return false;
  }
  *out = seconds;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  qtf::net::ServerConfig server_config;
  server_config.port = 7433;
  qtf::service::RuleTestService::Config service_config;

  // Counts stay within int, which also keeps the server's queue capacity
  // (queue depth + workers + 8) from wrapping.
  constexpr unsigned long long kMaxCount = std::numeric_limits<int>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    }
    const char* value = (i + 1 < argc) ? argv[++i] : nullptr;
    unsigned long long n = 0;
    bool ok = value != nullptr;
    if (!ok) {
      // Reported below.
    } else if (arg == "--host") {
      server_config.host = value;
    } else if (arg == "--port") {
      ok = ParseCount(value, std::numeric_limits<uint16_t>::max(), &n);
      server_config.port = static_cast<uint16_t>(n);
    } else if (arg == "--workers") {
      ok = ParseCount(value, kMaxCount, &n);
      server_config.workers = static_cast<int>(n);
    } else if (arg == "--threads") {
      ok = ParseCount(value, kMaxCount, &n);
      service_config.framework.threads = static_cast<int>(n);
    } else if (arg == "--queue-depth") {
      ok = ParseCount(value, kMaxCount, &n);
      service_config.max_queue_depth = static_cast<size_t>(n);
    } else if (arg == "--plan-cache") {
      ok = ParseCount(value, kMaxCount, &n);
      service_config.framework.plan_cache_capacity = static_cast<size_t>(n);
    } else if (arg == "--tpch-scale") {
      ok = ParseCount(value, kMaxCount, &n);
      service_config.framework.tpch.scale = static_cast<int>(n);
    } else if (arg == "--fault-seed") {
      ok = ParseCount(value, std::numeric_limits<uint64_t>::max(), &n);
      service_config.framework.fault_injector.seed = static_cast<uint64_t>(n);
      service_config.framework.fault_injector.fault_probability = 0.05;
    } else if (arg == "--default-deadline") {
      ok = ParseSeconds(value, &service_config.default_deadline_seconds);
    } else {
      std::fprintf(stderr, "qtfd: unknown flag %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "qtfd: bad or missing value for %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  // A client vanishing mid-write must not kill the daemon (send also
  // passes MSG_NOSIGNAL, but belt and braces).
  std::signal(SIGPIPE, SIG_IGN);

  auto service_or =
      qtf::service::RuleTestService::Create(std::move(service_config));
  if (!service_or.ok()) {
    std::fprintf(stderr, "qtfd: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<qtf::service::RuleTestService> service =
      std::move(service_or).value();

  auto server_or =
      qtf::net::ServiceServer::Start(service.get(), server_config);
  if (!server_or.ok()) {
    std::fprintf(stderr, "qtfd: %s\n", server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<qtf::net::ServiceServer> server =
      std::move(server_or).value();

  std::signal(SIGTERM, HandleStopSignal);
  std::signal(SIGINT, HandleStopSignal);

  // The CI smoke test and scripts wait for this line before connecting;
  // keep its shape stable and flushed.
  std::printf("qtfd listening on %s:%u\n", server_config.host.c_str(),
              static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  while (g_stop == 0) {
    // Sleep in short slices so a stop signal is honored promptly even if
    // it lands between the check and the sleep.
    ::usleep(50 * 1000);
  }

  std::fprintf(stderr, "qtfd: draining...\n");
  server->Shutdown();

  // Optional shutdown metrics dump for CI artifacts.
  if (const char* path = std::getenv("QTF_METRICS_JSON")) {
    if (std::FILE* f = std::fopen(path, "w")) {
      const std::string json = service->metrics()->Snapshot().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::fprintf(stderr, "qtfd: drained, exiting\n");
  return 0;
}
