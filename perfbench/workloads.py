"""The four operation mixes and the per-operation verdict checks.

Each workload is a fixed list of `jetinv` CLI invocations. Ops marked seeded
get a `--seed` drawn once per run from the workload seed, so every cycle of a
run repeats the same argv and must print the same bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    seeded: bool = False


def _orbit(*args: str) -> Op:
    return Op(("orbit",) + args + ("--json",))


def _codim() -> list[Op]:
    ops = [_orbit("codim-report", "--k", str(k)) for k in (4, 5)]
    ops += [_orbit("stabilizer", "--k", str(k), "--M", str(m)) for k in (4, 5) for m in (1, 2)]
    return ops


def _invariance() -> list[Op]:
    shapes = [("3", "3", "10"), ("2", "4", "10"), ("3", "4", "2")]
    return [
        Op(("generators", "--n", n, "--k", k, "--verify", "--trials", t, "--json"), seeded=True)
        for n, k, t in shapes
    ]


def _limits() -> list[Op]:
    ops = [_orbit("closed-form", "--k", "6", "--sigma", str(s), "--kind", "lambda") for s in range(2, 7)]
    ops += [_orbit("closed-form", "--k", "6", "--sigma", str(s), "--kind", "mu") for s in range(2, 6)]
    ops += [
        _orbit("limit", "--k", "6", "--sigma", str(s), "--kind", "lambda", "--eps", "1/8")
        for s in range(2, 7)
    ]
    ops.append(_orbit("closed-form", "--k", "7", "--sigma", "3", "--kind", "lambda", "--force"))
    return ops


def _test_curve() -> list[Op]:
    shapes = [("4", "4", "1"), ("4", "4", "2"), ("3", "3", "2"), ("5", "5", "1")]
    ops = [
        Op(("test-curve", "--k", k, "--n", n, "--N", big_n, "--json"), seeded=True)
        for k, n, big_n in shapes
    ]
    ops.append(Op(("test-curve", "--p", "2", "--k", "3", "--n", "4", "--json"), seeded=True))
    return ops


WORKLOADS = {
    "codim": _codim,
    "invariance": _invariance,
    "limits": _limits,
    "test-curve": _test_curve,
}

# op_ms_tail percentile: the highest of p50/p75/p90 that has ten samples
# beyond it in a 25 s run. Invariance makes only three ops per ~3 s cycle, so
# ten samples beyond p75 would take 14 cycles (45 s); its tail is p50, which
# equals its op_ms_p50, and its slow op shows in ops_per_s instead.
TAIL_PCT = {"codim": 75, "invariance": 50, "limits": 75, "test-curve": 75}


def argvs(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv list, with per-op seeds drawn from the workload seed."""
    rng = random.Random(f"{workload}:{seed}:argv")
    out = []
    for op in WORKLOADS[workload]():
        argv = list(op.argv)
        if op.seeded:
            argv += ["--seed", str(rng.randrange(1, 1 << 30))]
        out.append(argv)
    return out


def cycle_orders(workload: str, seed: int, n_ops: int):
    """Endless per-cycle op orders, shuffled from the workload seed."""
    rng = random.Random(f"{workload}:{seed}:order")
    while True:
        yield rng.sample(range(n_ops), n_ops)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_payload(argv: list[str], payload: dict) -> str | None:
    """The op's own verdict fields; returns a failure message or None."""
    cmd = argv[1] if argv[0] == "orbit" else argv[0]
    if cmd == "codim-report":
        k = int(_flag(argv, "--k"))
        if payload.get("all_bounds_ok") is not True:
            return "all_bounds_ok is not true"
        if payload.get("base_stabilizer_dim") != k - 1:
            return f"base_stabilizer_dim {payload.get('base_stabilizer_dim')} != {k - 1}"
    elif cmd == "stabilizer":
        if payload.get("dimension") != payload.get("expected"):
            return f"dimension {payload.get('dimension')} != expected {payload.get('expected')}"
    elif cmd == "generators":
        ver = payload.get("verification") or {}
        if ver.get("ok") is not True:
            return "verification.ok is not true"
        if ver.get("trials") != int(_flag(argv, "--trials")):
            return f"verification ran {ver.get('trials')} trials"
    elif cmd == "test-curve":
        if payload.get("rank") != payload.get("expected_codimension"):
            return f"rank {payload.get('rank')} != {payload.get('expected_codimension')}"
        if payload.get("solution_space_equals_perp") is not True:
            return "solution_space_equals_perp is not true"
    elif cmd == "closed-form":
        if payload.get("matches_limit") is not True:
            return "matches_limit is not true"
    elif cmd == "limit":
        if not payload.get("terms"):
            return "limit has no terms"
    else:
        return f"no check for {cmd}"
    return None


def limit_pairs(ops: list[list[str]]) -> dict[int, int]:
    """Map each `orbit limit --eps` op to the closed form with the same
    (k, sigma, kind): the two must have exactly the same terms."""
    closed = {}
    for i, argv in enumerate(ops):
        if argv[:2] == ["orbit", "closed-form"]:
            closed[(_flag(argv, "--k"), _flag(argv, "--sigma"), _flag(argv, "--kind"))] = i
    return {
        i: closed[(_flag(argv, "--k"), _flag(argv, "--sigma"), _flag(argv, "--kind"))]
        for i, argv in enumerate(ops)
        if argv[:2] == ["orbit", "limit"]
    }
