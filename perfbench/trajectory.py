#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/trajectory.py [--runs 10] [--workloads a,b]
        [--first-seed 1] [--seconds S] [--append] [--note TEXT]

Run from the repository root. For every workload it runs
perfbench/run.py once per seed (--trace 0), then prints, per end-to-end
metric, the median, the quartiles (statistics.quantiles(n=4)) and the
spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. With --append the summary is added as one line to
perfbench/history.jsonl, the benchmark's result history, together with
the commit and the host.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit(f"trajectory.py: {workload} seed {seed} failed")
    env = next((l[len("env: "):] for l in lines if l.startswith("env: ")),
               "{}")
    return json.loads(lines[-1]), json.loads(env)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--note", default="")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, env = {}, {}
    for workload in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            res, env = run_once(workload, seed, args.seconds)
            if not res["correct"] or res["failed"]:
                sys.exit(f"trajectory.py: {workload} seed {seed}: "
                         f"{res['failed']} failed operations")
            for name, m in res["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(
                    m["value"])
        summary[workload] = {}
        for name, (vals, unit) in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "unit": unit}
            print(f"{workload:12s} {name:16s} median {med:14.6g} {unit:5s}"
                  f" q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f}"
                  f" (bound {bounds.get(name, float('nan'))})", flush=True)

    if args.append:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
        entry = {
            "date": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "commit": commit or "unknown",
            "host": {"nproc": os.cpu_count(), "cpu": cpu_model()},
            "build_type": env.get("build_type", "unknown"),
            "run_seconds": args.seconds,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "note": args.note,
            "workloads": summary,
        }
        with open(os.path.join(HERE, "history.jsonl"), "a") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
