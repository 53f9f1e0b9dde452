#!/usr/bin/env python3
"""Steadiness check for the benchmark: run each workload with several
seeds, report each end-to-end metric's median and quartile spread
(Q3 - Q1 as a share of the median) against a third of its bound, and
append every run to a JSON-lines noise record.

Run from the repository root:

    python3 simbench/steadiness.py --workloads replay sweep serve \
        --seeds 10 --record simbench/noise/runs.jsonl

Each run uses the `command` and `run_seconds` of BENCHMARK.json. The
`host.calib_ms` diagnostic printed by the benchmark on standard error is
stored with each run so a slow host phase can be told from a
regression; it normalises nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diag = {}
    for line in proc.stderr.splitlines():
        if line.startswith("simbench: diag "):
            diag = json.loads(line[len("simbench: diag "):])
    return result, diag, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values), statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["replay", "sweep", "serve"])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0,
                    help="1 runs the traced pass: per-layer metrics, which have no bound")
    ap.add_argument("--record", help="append every run to this JSON-lines file")
    ap.add_argument("--label", default="", help="free-form label stored with each run")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in opts.workloads:
        values = {}
        calib = []
        for seed in range(1, opts.seeds + 1):
            result, diag, wall = run_once(bench["command"], workload, seed,
                                          bench["run_seconds"], opts.trace)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if "host.calib_ms" in diag:
                calib.append(diag["host.calib_ms"])
            if opts.record:
                with open(opts.record, "a") as f:
                    f.write(json.dumps({"label": opts.label, "workload": workload,
                                        "seed": seed, "trace": opts.trace,
                                        "wall_s": round(wall, 2), "diag": diag,
                                        "result": result}) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s", flush=True)
        print(f"== {workload}: {opts.seeds} seeds"
              + (" (per-layer metrics: no bounds)" if opts.trace else ""))
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s, med = spread(vals)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if s < bound / 3 else ("WITHIN BOUND" if s <= bound else "TOO NOISY")
                if name != "setup_s" and s > bound:
                    ok = False
            print(f"  {name:28s} median {med:14.6g}  spread {100 * s:6.2f}%"
                  + (f"  bound/3 {100 * bound / 3:5.2f}%  {verdict}" if verdict else ""))
        if len(calib) >= 2:
            s, med = spread(calib)
            print(f"  {'host.calib_ms (diagnostic)':28s} median {med:14.6g}  spread {100 * s:6.2f}%")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
