"""Benchmark entry point: run one workload of algflow and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an algflow checkout; the library is imported from its
``src`` directory.  Every run starts the workload in fresh processes with one
BLAS thread.  An untraced run launches the workload once to fill the
bytecode cache, SETUP_PROBES times up to its first timed operation (half
before and half after the measured launch) for the set-up time, and once
for S seconds of closed-loop operations, whose times are expressed in
reference seconds (see hostspeed.py).  A traced run sizes a fixed number
of whole rounds from S, runs each untraced and traced, and reports the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 4
# Seconds a worker may take beyond --seconds before it is stopped.
WORKER_GRACE_S = 100


def pin_to_fastest_cpu() -> int | None:
    """Pin this process, and so every worker it starts, to its fastest CPU.

    On the reference host either of the two CPUs often runs Python about
    1.5x slower than the other (it shares a core with other load), in spells
    from seconds to minutes.  A process the scheduler moves between them
    mixes the two speeds; pinned at start to the faster one, it keeps that
    CPU for the whole run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    rates = dict.fromkeys(cpus, 0.0)
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            rates[cpu] += hostspeed.rate_for(0.03)
    best = max(rates, key=rates.get)
    os.sched_setaffinity(0, {best})
    return best


def worker(args, out_dir: Path, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    calib_before = hostspeed.rate_for(hostspeed.SETUP_CALIB_S)
    launched = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--launched-ns", str(launched)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.exit(f"error: worker exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    rate = (calib_before + report["setup_calib_per_s"]) / 2
    report["setup_ref_s"] = report["setup_s"] * rate / hostspeed.REFERENCE_PER_S
    return report


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def run(args) -> int:
    if not (ROOT / "src" / "algflow" / "__init__.py").is_file():
        print(f"error: no algflow sources under {ROOT / 'src'}; run from the root "
              "of an algflow checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cpu = pin_to_fastest_cpu()
    print(f"{args.workload}: pinned to cpu {cpu}")
    if args.trace:
        report = worker(args, out_dir)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["metrics"].items()}
        print(f"{args.workload}: {report['attempted']} ops, half of them traced; "
              f"spans in {out_dir.name}/trace_{args.workload}.csv")
    else:
        # The first launch also fills the bytecode cache; it is not counted.
        # Half the probes run before the measured process and half after,
        # so that one slow spell of the host does not set the median.
        worker(args, out_dir, setup_only=True)
        probes = [worker(args, out_dir, setup_only=True) for _ in range(SETUP_PROBES // 2)]
        report = worker(args, out_dir)
        probes.append(report)
        probes += [worker(args, out_dir, setup_only=True)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        metrics = {
            "ops_per_s": {"value": report["ops_per_s"], "unit": "1/s"},
            "latency_p50_us": {"value": report["latency_p50_us"], "unit": "us"},
            "setup_s": {"value": statistics.median(p["setup_ref_s"] for p in probes),
                        "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        tail = report.get("tail")
        tail_text = (f", p{tail['percentile']:g} {tail['us']:.1f} us"
                     if tail else ", too few samples for a tail")
        print(f"{args.workload}: {report['attempted']} ops; wall time: "
              f"{report['raw_ops_per_s']:.4g} ops/s, p50 {report['raw_latency_p50_us']:.1f} us"
              f"{tail_text}, setup "
              f"{statistics.median(p['setup_s'] for p in probes):.3f} s; "
              f"host.calib_per_s {report['calib_per_s']:.1f} "
              f"(reference {hostspeed.REFERENCE_PER_S:g}); "
              f"iso_search found {report['found'][0]}/{report['found'][1]}")
    for error in report["errors"]:
        print(f"FAILED: {error}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {report['attempted']}, failed = {report['failed']}")
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
