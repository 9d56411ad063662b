#ifndef QTF_PERFBENCH_BENCH_H_
#define QTF_PERFBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark: command-line arguments, the
// in-memory span recorder of the traced run, and the result every
// workload hands back to main() for reporting.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 2026;
  double seconds = 20.0;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines) at exit.
  std::string trace_out;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Maximum resident set size of the process so far, in MB.
double PeakRssMb();

/// Pins the calling thread, and every thread it starts later, to the first
/// CPU the process may use.
void PinToOneCpu();

/// Median of `values`; 0 when empty.
double Median(std::vector<double> values);

/// One recorded span. Times are seconds since the tracer's origin.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int64_t id = 0;
  int64_t parent = 0;  // 0: root
  int64_t op = 0;      // verdict or request id; 0 outside operations
  uint64_t thread = 0;
  bool program = false;  // emitted by the framework's own PhaseSpans
  /// Optimizer search time spent inside this span (summed over threads).
  double search_s = 0.0;
};

/// Span recorder of the traced run. Spans are kept in memory and written
/// out once, at exit. The framework's own phase spans arrive through the
/// obs::TraceSink interface and are re-parented under whichever benchmark
/// span is open on the emitting thread. A null Tracer* disables tracing:
/// every Span constructed with it is inert.
class Tracer : public qtf::obs::TraceSink {
 public:
  Tracer();
  int64_t Begin(const char* name, int64_t op);
  void End(int64_t id, double search_s = 0.0);
  void OnEvent(const qtf::obs::TraceEvent& event) override;
  std::vector<SpanRecord> Spans() const;
  /// Writes every span as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  double Rel() const { return Now() - origin_; }
  double origin_;
  mutable std::mutex mu_;  // guards spans_, open_, next_id_
  std::vector<SpanRecord> spans_;
  /// Open span indices per thread, innermost last.
  std::map<uint64_t, std::vector<size_t>> open_;
  int64_t next_id_ = 1;
};

/// RAII benchmark span around one call into the framework. When given the
/// optimizer's qtf.optimizer.search_seconds histogram, it also records how
/// much search time the call spent, so the split can charge that time to
/// the optimizer rather than to the calling module.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int64_t op = 0,
       const qtf::obs::Histogram* search = nullptr)
      : tracer_(tracer),
        search_(search),
        search_start_(tracer && search ? search->Sum() : 0.0),
        id_(tracer ? tracer->Begin(name, op) : 0) {}
  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->End(id_, search_ ? search_->Sum() - search_start_ : 0.0);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const qtf::obs::Histogram* search_;
  double search_start_;
  int64_t id_;
};

/// Self time per module (the span name's prefix before the first '.') over
/// the spans of timed operations (op != 0): each span's duration minus the
/// part covered by its children, with the optimizer search time recorded
/// on a span (at most its duration) moved to module "optimizer".
std::map<std::string, double> ModuleSelfSeconds(
    const std::vector<SpanRecord>& spans);

/// Latency samples in log-linear buckets, 128 per power of two (under 1 %
/// wide): fixed memory however many operations a run completes, so the
/// benchmark's own bookkeeping does not grow the RSS it measures.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kSub * kOctaves, 0) {}
  void Add(double ms);
  void Merge(const LatencyHistogram& other);
  int64_t count() const { return count_; }
  /// The q-quantile in ms, interpolated linearly by rank within its bucket.
  double Quantile(double q) const;

 private:
  static constexpr int kSub = 128;
  static constexpr int kOctaves = 40;  // 1 ns to 2^40 ns
  std::vector<uint32_t> counts_;
  int64_t count_ = 0;
};

/// What a workload run measured. Metric names and units are fixed by
/// BENCHMARK.json; main() turns this into the reported metrics.
struct WorkloadResult {
  /// Seconds from the start of each set-up repetition to the point where
  /// timing could begin.
  std::vector<double> setup_s;
  /// Suite workloads: wall time of every timed verdict that passed its
  /// checks, in ms.
  std::vector<double> op_ms;
  /// sql_service: median latency and completed requests per second of
  /// each 1-second window of the timed phase. The reported values are the
  /// medians over windows, so host contention that comes and goes within a
  /// run moves them less than a whole-run figure.
  std::vector<double> window_p50_ms;
  std::vector<double> window_ops_per_s;
  /// Maximum RSS of the process from start to the end of the timed phase.
  double peak_rss_mb = 0.0;
  /// Wall seconds of the timed phase.
  double timed_s = 0.0;
  /// Memo searches run in the timed phase, for the workloads whose timed
  /// phase is meant to run none (singleton_rerun, sql_service); -1 for
  /// pair_suite, which searches by design.
  double timed_searches = -1.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output checks that failed, one line each; any entry fails the run.
  std::vector<std::string> check_failures;
  /// Per-layer metrics (BENCHMARK.json "per_layer"); absent ones are 0.
  std::map<std::string, double> layer;
  /// Exact, seed-determined values printed for cross-run comparison.
  std::map<std::string, double> exact;
};

WorkloadResult RunPairSuite(const Args& args, Tracer* tracer);
WorkloadResult RunSingletonRerun(const Args& args, Tracer* tracer);
WorkloadResult RunSqlService(const Args& args, Tracer* tracer);

/// Catches each of the planted bugs of src/rules/buggy_rules.h with the
/// procedure of examples/bug_hunt.cpp. Untimed; appends a line to
/// `failures` for every bug that slips through.
void CheckPlantedBugsCaught(std::vector<std::string>* failures);

}  // namespace perfbench

#endif  // QTF_PERFBENCH_BENCH_H_
