"""One workload run in a fresh process: closed loop, one client, in-process CLI.

The worker imports jetinv, checks every argv of the workload against the CLI
parser (the whole warm-up), prints `ready`, then runs cycles of the op list,
each cycle in an order shuffled from the workload seed, timing each
`jetinv.cli.main(argv)` call and checking its result outside the timed
interval. It prints one JSON object as its last line. `--probe` stops after
`ready`; run.py times probes to measure set-up.

With `--trace 1` cycles alternate traced and untraced, starting traced: the
traced cycles give the per-layer numbers, the untraced ones the overhead, and
both must print the same bytes for the same argv.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from clock import calibrate, scale  # noqa: E402

MAX_SECONDS = 120  # hard stop, so that a run on a slow machine still ends in time
REFERENCE = HERE / "reference.json"
CAL_PER_GAP = 3  # calibration loops before each op; a cycle's ops scale by their median

# Per-layer extras beyond calls and self_ms: (metric, suffix, unit, value from totals).
_EXTRAS = [
    ("exact.kernel", "cells", "count", lambda t: t.get("cells", 0)),
    ("exact.kernel", "nnz_ratio", "1", lambda t: _ratio(t.get("nnz", 0), t.get("cells", 0))),
    ("exact.kernel", "max_bits", "bits", lambda t: t.get("max_bits", 0)),
    ("exact.rank", "cells", "count", lambda t: t.get("cells", 0)),
    ("embedding.phi", "nnz", "count", lambda t: t.get("nnz", 0)),
    ("embedding.wedge", "terms", "count", lambda t: t.get("terms", 0)),
    ("invariants.generator_set", "kept_ratio", "1",
     lambda t: _ratio(t.get("kept", 0), t.get("candidates", 0))),
    ("invariants.verify_suite", "minors", "count", lambda t: t.get("minors", 0)),
    ("invariants.test_curve_system", "cells", "count", lambda t: t.get("cells", 0)),
    ("orbits.limit_point", "terms_in", "count", lambda t: t.get("terms_in", 0)),
    ("orbits.limit_point", "kept_ratio", "1", lambda t: _ratio(t.get("kept", 0), t.get("terms_in", 0))),
]
# Extras that are ratios or maxima are not divided by the number of cycles.
_PER_RUN = {"nnz_ratio", "max_bits", "kept_ratio"}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _per_cycle(total, cycles):
    value = total / cycles
    return int(value) if value == int(value) else value


def run_op(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """Call the CLI in-process; returns (ms, exit code or error, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = f"SystemExit({exc.code})"
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
        ms = (perf_counter() - start) * 1000.0
    return ms, rc, out.getvalue(), err.getvalue()


class Run:
    """State of one measured run: timings, verdicts and digests per op."""

    def __init__(self, cli, ops: list[list[str]], reference: dict[str, str]):
        self.cli = cli
        self.ops = ops
        self.reference = reference
        self.pairs = workloads.limit_pairs(ops)
        self.digests: dict[int, str] = {}
        self.records: list[dict] = []  # one per op run: cycle, ms, ok, traced
        self.failures: list[str] = []
        self.checks: set[str] = set()

    def fail(self, rec: dict, argv: list[str], msg: str) -> None:
        if rec["ok"]:
            rec["ok"] = False
            self.failures.append(f"{' '.join(argv)}: {msg}")

    def cycle(self, order: list[int], cycle: int, traced: bool, tracer) -> int:
        """Run one cycle; returns the stdout bytes it produced."""
        terms: dict[int, tuple[dict, list]] = {}
        out_bytes = 0
        cals: list[float] = []
        recs: list[dict] = []
        for i in order:
            argv = self.ops[i]
            cals += [calibrate() for _ in range(CAL_PER_GAP)]
            if tracer is not None:
                tracer.op_id = len(self.records) + len(recs)
            ms, rc, text, err = run_op(self.cli, argv)
            rec = {"cycle": cycle, "raw_ms": ms, "ok": True, "traced": traced}
            recs.append(rec)
            data = text.encode()
            out_bytes += len(data)
            self.checks.add("exit_code")
            if rc != 0:
                self.fail(rec, argv, f"exit {rc}: {err.strip()[:200]}")
                continue
            try:
                payload = json.loads(text)
            except ValueError as exc:
                self.fail(rec, argv, f"stdout is not JSON: {exc}")
                continue
            self.checks.add("verdict")
            msg = workloads.check_payload(argv, payload)
            if msg:
                self.fail(rec, argv, msg)
            digest = hashlib.sha256(data).hexdigest()
            self.checks.add("determinism")
            if self.digests.setdefault(i, digest) != digest:
                self.fail(rec, argv, "stdout differs from an earlier run of the same argv")
            key = " ".join(argv)
            if key in self.reference:
                self.checks.add("reference")
                if self.reference[key] != digest:
                    self.fail(rec, argv, "stdout differs from the recorded reference")
            if i in self.pairs or i in self.pairs.values():
                terms[i] = (rec, payload.get("terms"))
        cals += [calibrate() for _ in range(CAL_PER_GAP)]
        cal_ms = statistics.median(cals)
        for rec in recs:
            rec["ms"] = scale(rec["raw_ms"], cal_ms)
        self.records += recs
        for lim, closed in self.pairs.items():
            self.checks.add("limit_terms")
            rec, lim_terms = terms.get(lim, (None, None))
            if rec is not None and rec["ok"] and lim_terms != terms.get(closed, (None, None))[1]:
                self.fail(rec, self.ops[lim], "limit terms differ from the closed form")
        return out_bytes


def _timings(records: list[dict], key: str, tail_pct: int) -> tuple[float, float, float, int]:
    """(ops_per_s, op_ms_p50, op_ms_tail, samples beyond the tail) over one time field."""
    ms = [r[key] for r in records]
    ok = sum(r["ok"] for r in records)
    # The median over cycles of each cycle's median: a mix with a gap (codim
    # has three ops under 0.1 s and three over 0.4 s) has a pooled median that
    # is the mean of two extreme samples, which swings from run to run.
    by_cycle: dict[int, list[float]] = {}
    for r in records:
        by_cycle.setdefault(r["cycle"], []).append(r[key])
    p50 = statistics.median(statistics.median(v) for v in by_cycle.values())
    tail = statistics.quantiles(ms, n=100, method="inclusive")[tail_pct - 1]
    return ok / (sum(ms) / 1000.0), p50, tail, sum(x > tail for x in ms)


def e2e_metrics(records: list[dict], tail_pct: int) -> tuple[dict, str]:
    rate, p50, tail, beyond = _timings(records, "ms", tail_pct)
    raw_rate, raw_p50, raw_tail, _ = _timings(records, "raw_ms", tail_pct)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": {"value": rate, "unit": "ops/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_tail": {"value": tail, "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    note = (f"op_ms_tail is p{tail_pct} with {beyond} of {len(records)} samples beyond it\n"
            f"unscaled: ops_per_s {raw_rate:.4f}, op_ms_p50 {raw_p50:.2f}, op_ms_tail {raw_tail:.2f}")
    return metrics, note


def layer_metrics(tracer, records: list[dict], traced_cycles: int, out_bytes: int,
                  first_cycle_cache: dict) -> dict:
    from spans import METRICS

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for metric in METRICS:
        tot = tracer.totals[metric]
        put(f"{metric}.calls", _per_cycle(tot["calls"], traced_cycles), "count")
        put(f"{metric}.self_ms", tot["self_ns"] / 1e6 / traced_cycles, "ms")
    for metric, suffix, unit, fn in _EXTRAS:
        value = fn(tracer.totals[metric])
        put(f"{metric}.{suffix}", value if suffix in _PER_RUN else _per_cycle(value, traced_cycles), unit)
    put("symbasis.sym_basis.calls", _per_cycle(tracer.sym_basis["calls"], traced_cycles), "count")
    looked_up = first_cycle_cache["hits"] + first_cycle_cache["misses"]
    put("symbasis.cache_hit_ratio", _ratio(first_cycle_cache["hits"], looked_up), "1")
    put("cli.out_bytes", _per_cycle(out_bytes, traced_cycles), "B")

    # Overhead: traced against untraced cycles, leaving out the cold first cycle.
    def rate(traced):
        sel = [r for r in records if r["traced"] == traced and r["cycle"] > 0]
        return len(sel) / (sum(r["ms"] for r in sel) / 1000.0)

    traced_rate, plain_rate = rate(True), rate(False)
    put("trace.ops_per_s", traced_rate, "ops/s")
    put("trace.untraced_ops_per_s", plain_rate, "ops/s")
    put("trace.overhead_pct", (plain_rate - traced_rate) / plain_rate * 100.0, "%")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    import jetinv.cli as cli

    ops = workloads.argvs(args.workload, args.seed)
    parser = cli.build_parser()
    for op in ops:
        parser.parse_args(op)
    print("ready", flush=True)
    if args.probe:
        return 0

    reference = json.loads(REFERENCE.read_text())
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    run = Run(cli, ops, reference)
    orders = workloads.cycle_orders(args.workload, args.seed, len(ops))
    tail_pct = workloads.TAIL_PCT[args.workload]
    min_ops = math.ceil(10 / (1 - tail_pct / 100))  # ten samples beyond the tail
    traced_cycles = out_bytes = 0
    first_cycle_cache = None
    start = perf_counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 0
        if traced:
            tracer.install()
        try:
            produced = run.cycle(next(orders), cycle, traced, tracer)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_cycles += 1
            out_bytes += produced
            if first_cycle_cache is None:
                first_cycle_cache = dict(tracer.sym_basis)
        cycle += 1
        elapsed = perf_counter() - start
        enough = elapsed >= args.seconds and len(run.records) >= min_ops
        if elapsed >= MAX_SECONDS or (enough and (tracer is None or cycle >= 3)):
            break

    if tracer is None:
        metrics, note = e2e_metrics(run.records, tail_pct)
    else:
        metrics = layer_metrics(tracer, run.records, traced_cycles, out_bytes, first_cycle_cache)
        spans = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        n = tracer.write_spans(spans)
        note = f"per-layer values are per traced cycle; {n} spans written to {spans}"
    failed = sum(not r["ok"] for r in run.records)
    result = {
        "attempted": len(run.records),
        "failed": failed,
        "cycles": cycle,
        "seconds": elapsed,
        "checks": sorted(run.checks),
        "failures": run.failures[:20],
        "note": note,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
