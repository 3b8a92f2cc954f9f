"""One workload in one fresh process: set up, run a closed loop, report.

Started by run.py, never by hand.  The parent passes the monotonic time at
which it launched this process; the time from then to the first timed
operation is this process's set-up time.  The last line of stdout is a JSON
report for the parent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import time

import hostspeed
import tracing
from oracles import OracleMismatch
from workloads import WORKLOADS

# Share of --seconds each of the two passes of a traced run is sized to.
TRACE_SHARE = 0.25


class Loop:
    """Runs whole rounds, timing each operation and checking its output."""

    def __init__(self, workload, tracer: tracing.Tracer | None = None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.starts_ns: list[int] = []
        self.latencies_ns: list[int] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []
        self.meter = hostspeed.Meter()
        self._work_ns = 0

    def op(self, op) -> None:
        clock = time.perf_counter_ns
        if self.tracer is not None:
            self.tracer.op += 1
        start = clock()
        try:
            out = self.workload.run(op)
        except Exception as exc:  # a raising operation is a failed one
            self._timed(start, clock() - start)
            self._record(f"raised {type(exc).__name__}: {exc}")
        else:
            self._timed(start, clock() - start)
            try:
                self.workload.check(op, out)
            except OracleMismatch as exc:
                self._record(str(exc))
            else:
                self._record(None)
        self.meter.keep_up(self._work_ns)

    def _timed(self, start: int, took: int) -> None:
        self.starts_ns.append(start)
        self.latencies_ns.append(took)
        self._work_ns += took

    def _record(self, error: str | None) -> None:
        self.ok.append(error is None)
        if error is not None and len(self.errors) < 5:
            self.errors.append(error)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def round(self, ops) -> None:
        for op in ops:
            self.op(op)

    def run_for(self, seconds: float) -> None:
        """Whole rounds of the pool, in order, until `seconds` have passed.

        Calibration blocks bracket the run and follow the operations (see
        hostspeed), so every operation has blocks on both sides.
        """
        self.meter.measure()
        pool = self.workload.rounds
        deadline = time.perf_counter() + seconds
        n_rounds = 0
        while n_rounds == 0 or time.perf_counter() < deadline:
            self.round(pool[n_rounds % len(pool)])
            n_rounds += 1
        self.meter.measure()

    def reference_ns(self) -> list[float]:
        """Each operation's time in reference nanoseconds (see hostspeed)."""
        return [self.meter.reference_ns(start, took)
                for start, took in zip(self.starts_ns, self.latencies_ns)]

    @property
    def timed_s(self) -> float:
        return self._work_ns / 1e9


def summary(loop: Loop) -> dict:
    """End-to-end figures from the operations' times in reference seconds.

    The raw wall-time figures and the tail go to the human-readable lines.
    """
    adjusted = loop.reference_ns()
    lat = sorted(loop.latencies_ns)
    n = len(lat)
    completed = n - loop.failed
    out = {
        "attempted": n,
        "failed": loop.failed,
        "errors": loop.errors,
        "ops_per_s": completed / (sum(adjusted) / 1e9),
        "latency_p50_us": statistics.median(adjusted) / 1e3,
        "raw_ops_per_s": completed / loop.timed_s,
        "raw_latency_p50_us": statistics.median(lat) / 1e3,
        "calib_per_s": loop.meter.rate,
    }
    # The highest of p90, p99, p99.9 with at least ten samples beyond it.
    tail = [p for p in (90.0, 99.0, 99.9) if n * (1 - p / 100) >= 10 and n >= 40]
    if tail:
        p = tail[-1]
        out["tail"] = {"percentile": p, "us": lat[min(n - 1, math.ceil(n * p / 100) - 1)] / 1e3}
    return out


def traced_metrics(workload, seconds: float, out_dir: str) -> tuple[dict, list[Loop]]:
    """Per-layer metrics from whole rounds run both untraced and traced.

    Each round runs once untraced and once traced, in alternating order, so
    host drift falls on both passes alike and the difference of their wall
    times is the tracing overhead.
    """
    count = max(1, round(seconds * TRACE_SHARE / workload.round_s))
    tracer = tracing.Tracer()
    plain, traced = Loop(workload), Loop(workload, tracer)
    pool = workload.rounds
    for i in range(count):
        ops = pool[i % len(pool)]
        for loop in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            if loop is traced:
                tracer.enable()
                try:
                    loop.round(ops)
                finally:
                    tracer.disable()
            else:
                loop.round(ops)
    totals = tracer.totals()
    metrics = {}
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name, flops in tracer.flops.items():
        self_s = totals[name][1]
        metrics[f"{name}.gflops"] = (flops / self_s / 1e9 if self_s else 0.0, "GFLOP/s")
    metrics["isomorphism.iso_search.found_ratio"] = (
        workload.found / workload.searched_iso if workload.searched_iso else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced.timed_s - plain.timed_s, "s")
    blocks = plain.meter.count + traced.meter.count
    metrics["host.calib_per_s"] = (blocks / (plain.meter.seconds + traced.meter.seconds), "1/s")
    tracer.write(os.path.join(out_dir, f"trace_{workload.name}.csv"))
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    ready = time.monotonic_ns()
    # The host's speed just after set-up; run.py times it just before launch.
    report = {"setup_s": (ready - args.launched_ns) / 1e9,
              "setup_calib_per_s": hostspeed.rate_for(hostspeed.SETUP_CALIB_S)}
    try:
        if args.setup_only:
            pass  # set-up time only
        elif args.trace:
            metrics, loops = traced_metrics(workload, args.seconds, args.out_dir)
            report["metrics"] = metrics
            report.update(attempted=sum(len(p.ok) for p in loops),
                          failed=sum(p.failed for p in loops),
                          errors=[e for p in loops for e in p.errors])
        else:
            loop = Loop(workload)
            loop.run_for(args.seconds)
            report.update(summary(loop))
            report["found"] = [workload.found, workload.searched_iso]
    finally:
        workload.close()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
