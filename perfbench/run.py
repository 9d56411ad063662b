#!/usr/bin/env python3
"""End-to-end benchmark of the rule-testing framework.

Builds the framework and the perfbench binary from source, runs one
workload (or all three) and checks the outputs. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Metric names and units come from BENCHMARK.json at the repository root:
with --trace 0 they are its end_to_end metrics, with --trace 1 its
per_layer metrics.

    python3 perfbench/run.py --workload pair_suite --seed 2026 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2026      # every workload, one table
    python3 perfbench/run.py --workload sql_service --split  # traced module split

Run it from the repository root. Exits non-zero when the build fails or an
output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair_suite", "singleton_rerun", "sql_service")
# ROADMAP's baseline table (seed 2026, TPC-H scale 1): memo searches and
# saturated searches of the suite build. pair_suite times that very suite
# (suite.*). singleton_rerun builds it untimed at scale 1 (baseline.*); its
# timed suite at scale 100 runs one search more.
ROADMAP_BASELINE = {
    "pair_suite": {"suite.searches": 191, "suite.saturated": 70},
    "singleton_rerun": {"baseline.searches": 226, "baseline.saturated": 10},
}
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory (relative to
    # the repository root); the CMake tree lives under it.
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds perfbench; returns its path or None."""
    out = build_dir()
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=str(out / "tmp"))
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    build_log = out / "build.log"
    with open(build_log, "w") as sink:
        if not (out / "CMakeCache.txt").exists():
            configure = subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sink, stderr=subprocess.STDOUT, env=env)
            if configure.returncode != 0:
                log(f"perfbench: configure failed, see {build_log}")
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        made = subprocess.run(
            ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
            stdout=sink, stderr=subprocess.STDOUT, env=env)
    if made.returncode != 0:
        log(f"perfbench: build failed, see {build_log}")
        return None
    # Flush the build's writes now, not while the workload is being timed.
    os.sync()
    return out / "perfbench"


def load_manifest():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its parsed report."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        trace_dir = build_dir() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        # One file per workload, overwritten by its next traced run: a
        # sql_service trace holds a span per request (tens of MB).
        command += ["--trace-out", str(trace_dir / f"{workload}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: {workload} printed nothing (exit {done.returncode})")
        return None
    report = json.loads(lines[-1])
    report["exit_code"] = done.returncode
    return report


def describe(report):
    """Human-readable lines: checks, exact values and the baseline tie."""
    lines = [f"{report['workload']} seed {report['seed']}: "
             f"{'all output checks passed' if report['correct'] else 'OUTPUT CHECK FAILED'}"
             f" ({report['attempted'] - report['failed']}/{report['attempted']} ok,"
             f" {int(report['per_layer'].get('ops', 0))} timed operations)"]
    for failure in report["checks"]:
        lines.append(f"  check failed: {failure}")
    layer = report["per_layer"]
    # singleton_rerun and sql_service time no searches by design; a change
    # that makes them search is flagged here (and shows in the times).
    if layer.get("timed.searches", 0) > 0:
        lines.append(f"  FLAG: {int(layer['timed.searches'])} memo searches in "
                     "the timed phase, which is meant to run none")
    if report["op_ms"]:
        times = sorted(report["op_ms"])
        lines.append(f"  operation times: min {times[0]:.6g} ms, median "
                     f"{report['end_to_end']['latency_p50_ms']:.6g} ms, "
                     f"max {times[-1]:.6g} ms")
    if report["workload"] == "sql_service":
        lines.append(f"  p99 {layer['client.req_p99_ms']:.6g} ms over "
                     f"{int(layer['ops'])} requests, "
                     f"{int(layer['client.beyond_p99'])} beyond it")
    exact = ", ".join(f"{k}={v:.17g}" for k, v in sorted(report["exact"].items()))
    lines.append(f"  exact: {exact}")
    baseline = ROADMAP_BASELINE.get(report["workload"])
    if baseline:
        same = all(report["exact"].get(k) == v for k, v in baseline.items())
        lines.append("  ROADMAP baseline "
                     f"({', '.join(f'{k}={v}' for k, v in baseline.items())}): "
                     f"{'reproduced' if same else 'differs'}")
    return lines


def result_line(report, manifest, trace):
    """The result line of one run: correct, attempted, failed, metrics."""
    section = "per_layer" if trace else "end_to_end"
    values = report["per_layer"] if trace else report["end_to_end"]
    metrics = {}
    for metric in manifest[section]:
        name = metric["name"]
        if not trace and name not in values:
            raise KeyError(f"perfbench did not report {name}")
        metrics[name] = {"value": values.get(name, 0.0), "unit": metric["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def run_one(binary, manifest, workload, seed, seconds, trace):
    report = run_binary(binary, workload, seed, seconds, trace)
    if report is None:
        return None
    report["correct"] = report["correct"] and report["exit_code"] == 0
    report["end_to_end"]["ok_share"] = (
        (report["attempted"] - report["failed"]) / report["attempted"])
    for line in describe(report):
        print(line)
    return report


def print_table(reports, manifest):
    names = [m["name"] for m in manifest["end_to_end"]]
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    width = max(len(w) for w in WORKLOADS)
    first = max(len(name) for name in names) + 2
    print(f"{'metric':<{first}}{'unit':<7}" +
          "".join(f"{w:>{width + 2}}" for w in reports))
    for name in names:
        row = "".join(f"{reports[w]['end_to_end'][name]:>{width + 2}.6g}"
                      for w in reports)
        print(f"{name:<{first}}{units[name]:<7}{row}")


def print_split(untraced, traced, manifest):
    """Per-module self time and per-layer metrics of the traced run, and
    the tracing overhead."""
    layer = traced["per_layer"]
    timed = layer.get("timed_s", 0.0)
    print(f"module self time over the timed phase ({timed:.3f} s wall, "
          f"{int(layer.get('trace.spans', 0))} spans):")
    for name in sorted(layer):
        if name.startswith("share."):
            print(f"  {name[len('share.'):]:<12} {100 * layer[name]:6.2f} %")
    print("per-layer metrics (per timed operation where counted):")
    for metric in manifest["per_layer"]:
        name = metric["name"]
        if not name.startswith("share."):
            print(f"  {name:<32} {layer.get(name, 0.0):<14.6g} {metric['unit']}")
    a = untraced["end_to_end"]["latency_p50_ms"]
    b = traced["end_to_end"]["latency_p50_ms"]
    print(f"tracing overhead: latency_p50_ms {a:.6g} untraced, {b:.6g} traced "
          f"({b - a:+.6g} ms, {100 * (b - a) / a:+.2f} %)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--split", action="store_true",
                        help="run untraced and traced, print the module split")
    args = parser.parse_args()

    manifest = load_manifest()
    seconds = args.seconds or manifest["run_seconds"]
    binary = build()
    if binary is None:
        return 1

    if args.split:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        ok = True
        for workload in workloads:
            untraced = run_one(binary, manifest, workload, args.seed, seconds, False)
            traced = run_one(binary, manifest, workload, args.seed, seconds, True)
            if untraced is None or traced is None:
                return 1
            print_split(untraced, traced, manifest)
            ok = ok and untraced["correct"] and traced["correct"]
        return 0 if ok else 1

    if args.workload == "all":
        reports = {}
        for workload in WORKLOADS:
            report = run_one(binary, manifest, workload, args.seed, seconds,
                             args.trace == 1)
            if report is None:
                return 1
            reports[workload] = report
        print_table(reports, manifest)
        summary = {w: result_line(r, manifest, args.trace == 1)
                   for w, r in reports.items()}
        print(json.dumps(summary, sort_keys=True))
        return 0 if all(r["correct"] for r in reports.values()) else 1

    report = run_one(binary, manifest, args.workload, args.seed, seconds,
                     args.trace == 1)
    if report is None:
        return 1
    print(json.dumps(result_line(report, manifest, args.trace == 1)))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
