#!/usr/bin/env python3
"""Run the benchmark several times and summarise each metric.

    python3 perfbench/repeat.py --workload fig8-grid --seeds 1,2,3,4,5 \
        [--trace 0|1] [--seconds S] [--out summary.json]

Runs `BENCHMARK.json`'s command once per seed from the repository root
and prints, per metric, the median, the quartiles (Python's
`statistics.quantiles(values, n=4)`), the spread (q3 - q1) / median and,
for end-to-end metrics, the bound. `--out` also writes every run's raw
values and report line (provenance, checks, fingerprints). With
`--trace both`, each seed runs untraced and traced, and the tracing
overhead is the gap between the traced and untraced medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    took = time.time() - started
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    result = json.loads(lines[-1])
    report = json.loads(lines[-2]) if len(lines) > 1 else {}
    for name, check in report.get("checks", {}).items():
        if not check["ok"]:
            print(f"  seed {seed}: check {name} failed: {check['detail']}", flush=True)
    return {"seed": seed, "trace": trace, "wall_s": took, "result": result, "report": report}


def summarise(runs, bounds):
    names = list(runs[0]["result"]["metrics"])
    out = {}
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        unit = runs[0]["result"]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        out[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bounds.get(name), "values": values}
    return out


def print_table(workload, summary):
    print(f"# {workload}")
    for name, s in summary.items():
        bound = s["bound"]
        flag = ""
        if bound is not None:
            flag = "ok" if s["spread"] < bound / 3 else ("within" if s["spread"] <= bound else "WIDE")
            flag = f"bound {bound:<5} {flag}"
        print(f"{name:>34} {s['median']:>14.6g} {s['unit']:<6} spread {s['spread']:7.4f} {flag}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in a.seeds.split(",")]
    traces = [0, 1] if a.trace == "both" else [int(a.trace)]

    runs = {t: [] for t in traces}
    for seed in seeds:
        for t in traces:
            r = run_once(bench, a.workload, seed, seconds, t)
            res = r["result"]
            print(f"seed {seed} trace {t}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} ({r['wall_s']:.1f} s)", flush=True)
            runs[t].append(r)

    doc = {"workload": a.workload, "seconds": seconds, "seeds": seeds, "runs": runs}
    for t in traces:
        summary = summarise(runs[t], bounds if t == 0 else {})
        doc[f"summary_trace{t}"] = summary
        print_table(f"{a.workload} (trace {t})", summary)
    if len(traces) == 2:
        plain, traced = doc["summary_trace0"], doc["summary_trace1"]
        overhead = {}
        for ours, theirs in (("composes_per_s", "traced.composes_per_s"),
                             ("session_setup_p50_ms", "traced.session_setup_p50_ms")):
            if ours in plain and theirs in traced and plain[ours]["median"]:
                overhead[ours] = traced[theirs]["median"] / plain[ours]["median"] - 1
        doc["tracing_overhead"] = overhead
        print("tracing overhead (traced / untraced median - 1):", json.dumps(overhead))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(doc, f, indent=1)


if __name__ == "__main__":
    main()
