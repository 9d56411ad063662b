#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench.h"

namespace perfbench {

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t pinned;
      CPU_ZERO(&pinned);
      CPU_SET(cpu, &pinned);
      sched_setaffinity(0, sizeof(pinned), &pinned);
      return;
    }
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void LatencyHistogram::Add(double ms) {
  const double ns = std::max(1.0, ms * 1e6);
  int octave = 0;
  const double mantissa = std::frexp(ns, &octave) * 2.0;  // [1, 2)
  octave = std::clamp(octave - 1, 0, kOctaves - 1);
  const int sub = std::clamp(static_cast<int>((mantissa - 1.0) * kSub), 0,
                             kSub - 1);
  ++counts_[static_cast<size_t>(octave * kSub + sub)];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  int64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const int64_t n = counts_[i];
    if (n == 0 || static_cast<double>(below + n) <= rank) {
      below += n;
      continue;
    }
    const double octave = std::ldexp(1.0, static_cast<int>(i) / kSub);
    const int sub = static_cast<int>(i) % kSub;
    const double lo = octave * (1.0 + static_cast<double>(sub) / kSub);
    const double width = octave / kSub;
    const double within =
        (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
    return (lo + within * width) / 1e6;
  }
  return 0.0;
}

namespace {

uint64_t ThisThread() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

Tracer::Tracer() : origin_(Now()) {}

int64_t Tracer::Begin(const char* name, int64_t op) {
  const double start = Rel();
  const uint64_t thread = ThisThread();
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord span;
  span.name = name;
  span.start = start;
  span.id = next_id_++;
  span.thread = thread;
  std::vector<size_t>& open = open_[thread];
  if (!open.empty()) {
    const SpanRecord& parent = spans_[open.back()];
    span.parent = parent.id;
    span.op = op != 0 ? op : parent.op;
  } else {
    span.op = op;
  }
  open.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int64_t id, double search_s) {
  const double end = Rel();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t>& open = open_[ThisThread()];
  // Spans close innermost first on their own thread.
  if (!open.empty() && spans_[open.back()].id == id) {
    spans_[open.back()].end = end;
    spans_[open.back()].search_s = search_s;
    open.pop_back();
  }
}

void Tracer::OnEvent(const qtf::obs::TraceEvent& event) {
  if (event.kind == qtf::obs::TraceEvent::Kind::kBegin) {
    const int64_t id = Begin(event.phase.c_str(), 0);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id - 1)].program = true;
    return;
  }
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<size_t>& open = open_[ThisThread()];
    if (!open.empty()) id = spans_[open.back()].id;
  }
  if (id != 0) End(id);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& s : Spans()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%lld,"
                 "\"parent\":%lld,\"op\":%lld,\"thread\":%llu,"
                 "\"program\":%s,\"search_s\":%.9f}\n",
                 s.name.c_str(), s.start, s.end, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op),
                 static_cast<unsigned long long>(s.thread),
                 s.program ? "true" : "false", s.search_s);
  }
  return std::fclose(out) == 0;
}

std::map<std::string, double> ModuleSelfSeconds(
    const std::vector<SpanRecord>& spans) {
  // Span ids are assigned densely from 1, so id - 1 indexes `spans`.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent > 0) {
      children[static_cast<size_t>(s.parent - 1)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.op == 0) continue;
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, s.end);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    std::string module = s.name.substr(0, s.name.find('.'));
    // The framework's correctness.run phase belongs to src/testing.
    if (module == "correctness") module = "testing";
    const double search = std::min(s.search_s, s.end - s.start);
    self[module] += std::max(0.0, (s.end - s.start) - covered) - search;
    self["optimizer"] += search;
  }
  return self;
}

}  // namespace perfbench
