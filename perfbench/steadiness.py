#!/usr/bin/env python3
"""Steadiness check: runs each workload once per seed and reports, for every
end-to-end metric, the per-run values, their median and quartiles and the
spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --seeds 1-10 --label backtoback
    python3 perfbench/steadiness.py --seeds 1-10 --idle 40 --label idle
    python3 perfbench/steadiness.py --compare backtoback idle

Results go to perfbench/results/<label>.json (raw values) and <label>.md.
A spread above a third of the bound is flagged; one above the bound fails.
--compare checks that the second set's medians are no worse than the first
set's by more than each bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(workload, seed):
    """One run: its end-to-end metrics and its exact (size) metrics."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {done.returncode}):\n"
                 f"{done.stdout}\n{done.stderr}")
    exact = {}
    for line in lines:
        if line.startswith("  exact: "):
            for item in line[len("  exact: "):].split(", "):
                name, value = item.split("=")
                exact[name] = float(value)
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}, exact


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def report(label, data, manifest):
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    lines = [f"# Steadiness set `{label}`", "",
             f"Seeds {data['seeds'][0]}-{data['seeds'][-1]}, "
             f"{manifest['run_seconds']} s per run, idle before each "
             f"workload: {data['idle']} s. Started {data['started']}.", ""]
    worst = 0.0
    for workload, runs in data["runs"].items():
        lines += [f"## {workload}", "",
                  "| metric | " + " | ".join(str(s) for s in data["seeds"]) +
                  " | median | Q1 | Q3 | spread | bound |",
                  "|---" * (len(data["seeds"]) + 6) + "|"]
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            s = summarize(values)
            ratio = s["spread"] / bound
            worst = max(worst, ratio)
            flag = " (over bound)" if ratio > 1 else (
                " (over bound/3)" if ratio > 1 / 3 else "")
            lines.append(
                f"| {name} | " + " | ".join(f"{v:.4g}" for v in values) +
                f" | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                f"{s['spread']:.3f}{flag} | {bound} |")
        lines.append("")
        sizes = data.get("sizes", {}).get(workload)
        if sizes and sizes[0]:
            lines += ["Exact sizes per seed (`suite.*`: the timed suite; "
                      "`baseline.*`: its build at scale 1; `corpus.*`: the "
                      "SQL corpus):",
                      "",
                      "| size | " + " | ".join(str(s) for s in data["seeds"]) + " |",
                      "|---" * (len(data["seeds"]) + 1) + "|"]
            for name in sorted(sizes[0]):
                lines.append(f"| {name} | " + " | ".join(
                    f"{size.get(name, 0):.6g}" for size in sizes) + " |")
            lines.append("")
    lines.append(f"Largest spread as a share of its bound: {worst:.2f}")
    return "\n".join(lines) + "\n", worst


def compare(first, second, manifest):
    a = json.loads((RESULTS / f"{first}.json").read_text())
    b = json.loads((RESULTS / f"{second}.json").read_text())
    ok = True
    for workload in a["runs"]:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            ma = statistics.median(r[name] for r in a["runs"][workload])
            mb = statistics.median(r[name] for r in b["runs"][workload])
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "ok" if worse <= bound else "WORSE THAN BOUND"
            ok = ok and worse <= bound
            print(f"{workload:16} {name:15} {ma:12.5g} {mb:12.5g} "
                  f"{100 * worse:+7.2f} %  (bound {100 * bound:.0f} %) {verdict}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--idle", type=int, default=0,
                        help="seconds to sleep before each workload's first run")
    parser.add_argument("--label")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, manifest)
    if not args.label:
        parser.error("--label is required unless --compare is given")

    seeds = parse_seeds(args.seeds)
    data = {"seeds": seeds, "idle": args.idle,
            "started": time.strftime("%Y-%m-%d %H:%M:%S %Z"), "runs": {}}
    for workload in (w["name"] for w in manifest["workloads"]):
        if args.idle:
            time.sleep(args.idle)
        data["runs"][workload] = []
        data.setdefault("sizes", {})[workload] = []
        for seed in seeds:
            metrics, exact = run(workload, seed)
            data["runs"][workload].append(metrics)
            data["sizes"][workload].append(exact)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.label}.json").write_text(json.dumps(data, indent=1) + "\n")
    text, worst = report(args.label, data, manifest)
    (RESULTS / f"{args.label}.md").write_text(text)
    print(text)
    return 0 if worst <= 1 else 1


if __name__ == "__main__":
    sys.exit(main())
