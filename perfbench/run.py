"""jetinv benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload codim --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports `src/jetinv`). The run
times set-up in fresh processes, then runs the workload in one more fresh
process (worker.py) and prints a summary followed, as the last line, by
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits 2 without a result when
the checkout has no jetinv sources, 1 when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from clock import calibrate, scale
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6  # set-up samples besides the worker's own; setup_s is their median
DEADLINE = 170.0  # seconds for the whole run, so that it always ends within three minutes


class RunError(RuntimeError):
    pass


def _remaining(start: float) -> float:
    left = DEADLINE - (perf_counter() - start)
    if left <= 0:
        raise RunError("out of time")
    return left


def start_worker(cmd: list[str], start: float) -> tuple[subprocess.Popen, float, float]:
    """Spawn a worker and wait for its `ready` line; returns it with the set-up
    time in seconds, raw and scaled to the reference machine speed."""
    cal_ms = statistics.median(calibrate() for _ in range(3))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line != "ready\n":
        finish(proc, start)
        raise RunError(f"worker did not become ready: {line!r}")
    return proc, setup, scale(setup, cal_ms)


def finish(proc: subprocess.Popen, start: float) -> str:
    """Wait for a worker to exit and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=_remaining(start))
    except (subprocess.TimeoutExpired, RunError):
        proc.kill()
        proc.communicate()
        raise RunError("worker timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="jetinv benchmark run")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()

    if not (ROOT / "src" / "jetinv" / "cli.py").is_file():
        print(f"no jetinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    try:
        # One untimed probe first, so every timed one finds the bytecode cache written.
        finish(start_worker(base + ["--probe"], start)[0], start)
        setup, raw_setup = [], []
        for _ in range(SETUP_PROBES):
            proc, raw, scaled = start_worker(base + ["--probe"], start)
            finish(proc, start)
            setup.append(scaled)
            raw_setup.append(raw)
        cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc, raw, scaled = start_worker(cmd, start)
        setup.append(scaled)
        raw_setup.append(raw)
        out = finish(proc, start)
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        print("benchmark failed: the worker printed no result", file=sys.stderr)
        return 1

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {res['cycles']} cycles, "
          f"{attempted} ops in {res['seconds']:.1f} s, closed loop, one client")
    print(f"failed_ratio {failed / attempted} ({failed} of {attempted}); "
          f"checks run: {', '.join(res['checks'])}")
    print(res["note"])
    if not args.trace:
        print(f"unscaled: setup_s {statistics.median(raw_setup):.4f}")
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
