#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics, to set and check bounds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S

Runs perfbench/run.py once per seed (sequentially) and prints, per metric,
the median, the quartiles (statistics.quantiles(n=4)) and the quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
Raw per-seed values go to $CARGO_TARGET_DIR/perfbench/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()

    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    runs = []
    for s in seeds(a.seeds):
        r = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                            a.workload, "--seed", str(s), "--seconds",
                            a.seconds, "--trace", a.trace],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, cwd=ROOT)
        if r.returncode != 0:
            sys.exit(f"seed {s}: run.py exited with {r.returncode}")
        res = json.loads(r.stdout.strip().splitlines()[-1])
        runs.append({"seed": s, **res})
        vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
        print(f"seed {s}: correct={res['correct']} "
              f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    (out / f"spread-{a.workload}.json").write_text(json.dumps(runs, indent=1))
    print(f"{'metric':28s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'iqr/med':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        v = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, 0, med)
        rel = (q3 - q1) / med if med else 0.0
        b = bounds.get(name)
        print(f"{name:28s} {med:11.5g} {q1:11.5g} {q3:11.5g} {rel:8.4f} "
              f"{'' if b is None else b:>6}")


if __name__ == "__main__":
    main()
