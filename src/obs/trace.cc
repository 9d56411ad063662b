#include "obs/trace.h"

#include <functional>
#include <thread>

namespace qtf {
namespace obs {

namespace {

uint64_t ThisThreadHash() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

}  // namespace

void CollectingTraceSink::OnEvent(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
}

std::vector<TraceEvent> CollectingTraceSink::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<TraceEvent> CollectingTraceSink::TakeEvents() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.swap(events_);
  return out;
}

PhaseSpan::PhaseSpan(TraceSink* sink, const char* phase)
    : sink_(sink), phase_(phase) {
  if (sink_ == nullptr) return;
  start_ = std::chrono::steady_clock::now();
  TraceEvent event;
  event.kind = TraceEvent::Kind::kBegin;
  event.phase = phase_;
  event.thread_hash = ThisThreadHash();
  sink_->OnEvent(event);
}

PhaseSpan::~PhaseSpan() {
  if (sink_ == nullptr) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::kEnd;
  event.phase = phase_;
  event.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  event.thread_hash = ThisThreadHash();
  sink_->OnEvent(event);
}

ScopedTimer::ScopedTimer(Histogram* histogram, double* out)
    : histogram_(histogram), out_(out) {
  if (histogram_ == nullptr && out_ == nullptr) return;
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr && out_ == nullptr) return;
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  if (histogram_ != nullptr) histogram_->Observe(seconds);
  if (out_ != nullptr) *out_ = seconds;
}

}  // namespace obs
}  // namespace qtf
