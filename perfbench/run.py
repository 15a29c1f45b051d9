#!/usr/bin/env python3
"""End-to-end benchmark of the hodlrx HODLR solver.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which builds the library
from ../CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload in its own process with a pinned
environment, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes a Chrome trace. `--workload all` runs the three workloads
one after another, each in its own process, and reports every workload's
metrics as "<workload>/<metric>". See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bie_direct", "gp_shift_sweep", "helmholtz_precond")
THREADS = 2
DEADLINE_S = 170  # every run ends within 180 s, build excluded
BEYOND = 10  # samples the tail percentile must leave beyond it

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the C++ program computes all but the two speed-ups.
PER_LAYER = {
    "tree.s": "s",
    "gen.entries": "count", "gen.busy_s": "s", "gen.entries_per_s": "1/s",
    "gen.stored_per_entry": "ratio",
    "build.s": "s", "build.gflop": "GFLOP", "build.max_rank": "count",
    "build.rank_sum": "count", "build.mb": "MB", "build.gen_share": "ratio",
    "build.aca_stalls": "count", "build.aca_retries": "count",
    "build.svd_nonconverged": "count",
    "pack.s": "s", "pack.mb": "MB", "pack.fill_ratio": "ratio",
    "factor.s": "s", "factor.gflop": "GFLOP", "factor.gflops": "GFLOP/s",
    "factor.roofline_frac": "ratio", "factor.mb": "MB",
    "factor.lu_pivot_retries": "count", "factor.max_pivot_growth": "ratio",
    "solve.s": "s", "solve.gflop": "GFLOP", "solve.flop_per_byte": "flop/B",
    "logdet.s": "s", "apply.s": "s", "apply.calls": "count",
    "apply.flop_per_byte": "flop/B",
    "gmres.iters": "count", "gmres.self_s": "s", "gmres.stagnated": "count",
    "batched.qr_panel_launches": "count", "batched.svd_sweep_launches": "count",
    "batched.svd_nonconverged": "count", "batched.simd_groups": "count",
    "batched.gemm_shared_packs": "count",
    "kernel.gemm_peak_gflops": "GFLOP/s", "kernel.gemm_gflop": "GFLOP",
    "kernel.lu_gflop": "GFLOP", "kernel.trsm_gflop": "GFLOP",
    "kernel.other_gflop": "GFLOP",
    "sched.threads": "count", "sched.graphs_run": "count",
    "sched.nodes": "count", "sched.steals": "count",
    "device.peak_mb": "MB", "device.h2d_mb": "MB", "device.launches": "count",
    "build.speedup_1t": "ratio", "factor.speedup_1t": "ratio",
    "trace.overhead_frac": "ratio",
}


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def out_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configure once, then an incremental build (a no-op when current)."""
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "hodlrx_perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "hodlrx_perfbench"


def pinned_env(threads):
    """The library sees a fixed thread count and none of its other switches."""
    cleared = sorted(k for k in os.environ
                     if k.startswith("HODLRX_") and k != "HODLRX_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if not k.startswith("HODLRX_")}
    env["HODLRX_NUM_THREADS"] = str(threads)
    env["OMP_NUM_THREADS"] = str(threads)
    return env, cleared


def code_version():
    """The git commit, or a hash of the sources when there is no .git."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(HERE.glob("*"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_program(exe, args, threads, deadline):
    env, _ = pinned_env(threads)
    left = deadline - time.monotonic()
    if left <= 0:
        raise RuntimeError("no time left for " + " ".join(args))
    r = subprocess.run([str(exe), *args], env=env, stdout=subprocess.PIPE,
                       text=True, timeout=left)
    if r.returncode != 0:
        raise RuntimeError(f"hodlrx_perfbench exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with >= BEYOND samples above it (the minimum when
    there are too few samples): (value, percentile, samples beyond)."""
    v = sorted(values)
    k = max(len(v) - BEYOND - 1, 0)
    return v[k], 100.0 * (k + 1) / len(v), len(v) - k - 1


def finite(x):
    # A failed request counts as infinitely slow; JSON has no infinity.
    return x if math.isfinite(x) else sys.float_info.max


def measure(exe, out, workload, seed, seconds, trace):
    """One workload in its own process: prints its summary, returns the result."""
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    trace_file = out / "traces" / f"{workload}-seed{seed}.json"
    if trace:
        args += ["--trace-file", str(trace_file)]
    raw = run_program(exe, args, THREADS, deadline)

    _, cleared = pinned_env(THREADS)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "threads": raw["threads"], "hw": raw["hw"],
              "code": code_version(), "cleared_env": cleared}
    correct = raw["failed"] == 0 and raw["threads"] == THREADS
    summary = []
    if not trace:
        lat = [s if ok and s is not None else math.inf
               for s, ok in zip(raw["latency_s"], raw["ok"])]
        p50 = statistics.median(lat)
        tail_s, pct, beyond = tail(lat)
        values = {"latency_p50_s": p50, "latency_tail_s": tail_s,
                  "setup_s": raw["init_s"] + statistics.median(raw["setup_s"]),
                  "peak_rss_mb": raw["peak_rss_mb"]}
        units = END_TO_END
        summary.append(f"  latency samples {len(lat)}; tail = p{pct:.1f} "
                       f"({beyond} of {len(lat)} samples beyond); set-up = "
                       f"init {raw['init_s']:.4f} s + median of "
                       f"{len(raw['setup_s'])} repetitions")
        record.update(latency_samples=len(lat), tail_percentile=pct,
                      init_s=raw["init_s"], setup_reps=raw["setup_s"])
    else:
        values = dict(raw["layer"])
        # Plain single-thread pass of bie_direct against the same pass at
        # the benchmark's thread count: the scaling baseline.
        stages = {}
        for t in (1, THREADS):
            stages[t] = run_program(exe, ["--workload", "bie_direct", "--seed",
                                          str(seed), "--requests", "3"],
                                    t, deadline)["stage_s"]
        for st in ("build", "factor"):
            values[f"{st}.speedup_1t"] = stages[1][st] / stages[THREADS][st]
        units = PER_LAYER
        check = raw["layer_check"]
        correct = correct and check["ok"]
        summary.append(f"  layer-share check: {'pass' if check['ok'] else 'FAIL'}"
                       f" ({check['detail']}); trace: {trace_file}")
        record["layer_check"] = check
    if raw["failures"]:
        summary.append("  failures: " + "; ".join(raw["failures"][:5]))
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics missing: {missing}")
    metrics = {k: {"value": finite(float(values[k] if values[k] is not None
                                         else math.nan)),
                   "unit": u} for k, u in units.items()}
    result = {"correct": bool(correct), "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record.update(result)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (out / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))

    hw = raw["hw"]
    print(f"{workload} seed={seed} threads={raw['threads']} trace={trace} "
          f"code={record['code']} hw={hw['family']}/{hw['vendor']} "
          f"l1d={hw['l1d']} l2={hw['l2']} l3={hw['l3']} cpus={hw['logical_cpus']}")
    print(f"  failed/attempted {raw['failed']}/{raw['attempted']}")
    for k, m in metrics.items():
        print(f"  {k:28s} {m['value']:.6g} {m['unit']}")
    for line in summary:
        print(line)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    out = out_dir()
    exe = build(out)
    (out / "results").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    names = WORKLOADS if a.workload == "all" else (a.workload,)
    results = {w: measure(exe, out, w, a.seed, a.seconds, a.trace)
               for w in names}
    if len(names) == 1:
        final = results[a.workload]
    else:  # every workload's metrics, as "<workload>/<metric>"
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}/{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
