#ifndef QTF_OBS_TRACE_H_
#define QTF_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace qtf {
namespace obs {

/// One phase-tracing event. Begin events carry seconds == 0; end events
/// carry the span's elapsed wall-clock seconds. thread_hash identifies the
/// emitting thread (stable within a process run, not across runs).
struct TraceEvent {
  enum class Kind { kBegin, kEnd };

  Kind kind = Kind::kBegin;
  std::string phase;
  double seconds = 0.0;
  uint64_t thread_hash = 0;
};

/// Receiver for trace events. Implementations MUST be thread-safe: spans
/// are emitted from ThreadPool workers (parallel generation, prefetch
/// waves) as well as the coordinating thread.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

/// Buffers events in memory (mutex-protected). The test/bench sink.
class CollectingTraceSink : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override;

  std::vector<TraceEvent> Events() const;
  /// Drains and returns the buffer.
  std::vector<TraceEvent> TakeEvents();

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII phase span: emits a begin event on construction and an end event
/// (with elapsed seconds) on destruction, through the registry's pluggable
/// sink. With a null registry or no sink attached the span is inert — no
/// clock reads, no allocation — so instrumented code paths cost one branch
/// when tracing is off.
class PhaseSpan {
 public:
  PhaseSpan(MetricsRegistry* registry, const char* phase)
      : PhaseSpan(registry != nullptr ? registry->trace_sink() : nullptr,
                  phase) {}
  PhaseSpan(TraceSink* sink, const char* phase);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  TraceSink* sink_;
  const char* phase_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII timer recording elapsed wall-clock seconds into a histogram (and
/// optionally a double) on destruction. Null-safe: with both outputs null
/// the timer is inert.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram, double* out = nullptr);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  double* out_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace qtf

#endif  // QTF_OBS_TRACE_H_
