// End-to-end benchmark program: runs one workload, checks its outputs and
// prints everything it measured as one JSON line on stdout. perfbench/run.py
// builds this binary, runs it and turns that line into the report.
//
//   perfbench --workload pair_suite --seed 2026 --seconds 20 --trace 0

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

void PrintMap(const char* key, const std::map<std::string, double>& values,
              bool last = false) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}%s", last ? "" : ",");
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload pair_suite|singleton_rerun|"
               "sql_service --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.seconds <= 0) return Usage();

  Tracer tracer;
  Tracer* trace = args.trace ? &tracer : nullptr;
  WorkloadResult result;
  if (args.workload == "pair_suite") {
    result = RunPairSuite(args, trace);
  } else if (args.workload == "singleton_rerun") {
    result = RunSingletonRerun(args, trace);
  } else if (args.workload == "sql_service") {
    result = RunSqlService(args, trace);
  } else {
    return Usage();
  }

  // A harness whose comparator always answered "equal" would pass every
  // check above; catching the planted bugs rules that out.
  const size_t before = result.check_failures.size();
  CheckPlantedBugsCaught(&result.check_failures);
  result.attempted += 3;
  result.failed += static_cast<int64_t>(result.check_failures.size() - before);

  std::map<std::string, double> e2e;
  e2e["setup_s"] = Median(result.setup_s);
  if (result.window_p50_ms.empty()) {
    // The suite workloads run one operation at a time, so the rate is the
    // inverse of the median operation time. A median, not the count over
    // the whole phase, keeps a burst of host contention that slows one
    // verdict out of the rate.
    const double ms = Median(result.op_ms);
    e2e["latency_p50_ms"] = ms;
    e2e["ops_per_s"] = ms > 0 ? 1e3 / ms : 0.0;
    result.layer["ops"] = static_cast<double>(result.op_ms.size());
  } else {
    e2e["latency_p50_ms"] = Median(result.window_p50_ms);
    e2e["ops_per_s"] = Median(result.window_ops_per_s);
  }
  e2e["peak_rss_mb"] = result.peak_rss_mb;
  result.layer["timed_s"] = result.timed_s;
  if (result.timed_searches >= 0) {
    result.layer["timed.searches"] = result.timed_searches;
  }

  if (trace != nullptr) {
    const std::vector<SpanRecord> spans = tracer.Spans();
    result.layer["trace.spans"] = static_cast<double>(spans.size());
    // Self-time shares of the timed operations, unless the workload split
    // its time itself (sql_service's requests run on the server's threads,
    // outside the benchmark's spans).
    if (result.layer.count("share.service") == 0) {
      const std::map<std::string, double> self = ModuleSelfSeconds(spans);
      double total = 0.0;
      for (const auto& [module, seconds] : self) total += seconds;
      for (const auto& [module, seconds] : self) {
        result.layer["share." + module] = total > 0 ? seconds / total : 0.0;
      }
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      result.check_failures.push_back("cannot write " + args.trace_out);
    }
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
              "\"attempted\":%lld,\"failed\":%lld,",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              result.check_failures.empty() ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  std::printf("\"setup_runs_s\":[");
  for (size_t i = 0; i < result.setup_s.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",", result.setup_s[i]);
  }
  // Suite workloads: every timed verdict, for the spread within a run.
  std::printf("],\"op_ms\":[");
  for (size_t i = 0; i < result.op_ms.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",", result.op_ms[i]);
  }
  std::printf("],\"checks\":[");
  for (size_t i = 0; i < result.check_failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ",",
                JsonEscape(result.check_failures[i]).c_str());
  }
  std::printf("],");
  PrintMap("end_to_end", e2e);
  PrintMap("per_layer", result.layer);
  PrintMap("exact", result.exact, /*last=*/true);
  std::printf("}\n");
  return result.check_failures.empty() ? 0 : 1;
}
