#include "common/fault_injection.h"

#include "common/hash.h"

namespace qtf {
namespace {

/// Uniform double in [0, 1) from the top 53 bits of a mixed hash.
double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool FaultInjector::ShouldFault(const char* site, uint64_t key) const {
  if (config_.fault_probability <= 0.0) return false;
  uint64_t h = Mix64(config_.seed ^ Mix64(Fnv1a(site) ^ key));
  return ToUnit(h) < config_.fault_probability;
}

Status FaultInjector::Probe(const char* site, uint64_t key) const {
  if (!enabled()) return Status::OK();
  if (config_.latency_probability > 0.0 && config_.latency_micros > 0.0) {
    // Distinct salt so latency and fault decisions are independent.
    uint64_t h =
        Mix64(config_.seed ^ Mix64(Fnv1a(site) ^ key ^ 0x5851f42d4c957f2dULL));
    if (ToUnit(h) < config_.latency_probability) {
      if (latency_total_ != nullptr) latency_total_->Increment();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(config_.latency_micros));
    }
  }
  if (!ShouldFault(site, key)) return Status::OK();
  if (faults_total_ != nullptr) faults_total_->Increment();
  if (obs::Counter* per_site = SiteCounter(site)) per_site->Increment();
  return Status::Unavailable(std::string("injected fault at ") + site);
}

double FaultInjector::JitterFactor(uint64_t key, int attempt,
                                   double fraction) const {
  if (fraction <= 0.0 || config_.seed == 0) return 1.0;
  uint64_t h = Mix64(config_.seed ^ Mix64(key ^ 0x94d049bb133111ebULL) ^
                     static_cast<uint64_t>(attempt));
  return 1.0 - fraction + 2.0 * fraction * ToUnit(h);
}

}  // namespace qtf
