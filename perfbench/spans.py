"""Spans around the public functions of every jetinv layer, installed from outside.

The program has no instrumentation of its own, so the traced run replaces
each named function at every place it is bound: the defining module, every
module that imported it by name, and the class for methods. Only the outermost
call of one metric opens a span (Matrix.kernel_basis calling kernel_basis is
one kernel call). A span's self time is its duration minus the wrapper time of
its child spans, which also keeps the cost of measuring sizes out of every
self time. Spans stay in memory as flat integer records and are written out
when the run ends. Hot dunder methods (EpsWeight.__add__,
SparsePolynomial.__mul__) stay unwrapped: their cost belongs to the span that
calls them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter_ns

# Fields of one span record in Tracer.spans.
SPAN_FIELDS = ("span_id", "parent_id", "op_id", "metric", "start_ns", "end_ns", "size")


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            num = getattr(x, "numerator", x)
            den = getattr(x, "denominator", 1)
            best = max(best, abs(num).bit_length(), den.bit_length())
    return best


def _shape(rows, ncols=None) -> dict:
    rows = list(rows)
    cols = ncols if ncols is not None else (len(rows[0]) if rows else 0)
    nnz = sum(1 for row in rows for x in row if x != 0)
    return {"cells": len(rows) * cols, "nnz": nnz, "max_bits": _max_bits(rows)}


def _kernel_in(args, kwargs) -> dict:
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    return _shape(rows, ncols)


def _matrix_in(args, kwargs) -> dict:
    m = args[0]
    return _shape(m.data, m.cols)


def _rank_in(args, kwargs) -> dict:
    return {"cells": _shape(args[0])["cells"]}


def _matrix_rank_in(args, kwargs) -> dict:
    return {"cells": args[0].rows * args[0].cols}


def _det_metric(args) -> str:
    poly = args[0].data and any(hasattr(x, "ring") for row in args[0].data for x in row)
    return "exact.det_poly" if poly else "exact.det"


def _verify_in(args, kwargs) -> dict:
    gens = args[0]
    trials = args[1] if len(args) > 1 else kwargs.get("trials", 100)
    return {"minors": len(gens) * trials * 3}


def _generator_set_out(args, kwargs, result) -> dict:
    from jetinv.invariants import count_candidate_minors

    n, k = args[0], args[1]
    p = args[2] if len(args) > 2 else kwargs.get("p", 1)
    return {"kept": len(result), "candidates": count_candidate_minors(n, k, p)}


# (module, attribute path, metric, size before the call, size after the call).
# The size hooks return dicts whose values are summed per metric, except
# max_bits, which keeps the largest value.
PATCHES = [
    ("exact", "kernel_basis", "exact.kernel", _kernel_in, None),
    ("exact", "Matrix.kernel_basis", "exact.kernel", _matrix_in, None),
    ("exact", "rank", "exact.rank", _rank_in, None),
    ("exact", "Matrix.rank", "exact.rank", _matrix_rank_in, None),
    ("exact", "Matrix.det", _det_metric, None, None),
    ("jets", "compose", "jets.compose", None, None),
    ("embedding", "phi", "embedding.phi", None,
     lambda a, kw, r: {"nnz": sum(len(c) for c in r.columns)}),
    ("embedding", "PhiMatrix.submatrix", "embedding.submatrix", None, None),
    ("embedding", "wedge_of_sparse_vectors", "embedding.wedge", None,
     lambda a, kw, r: {"terms": len(r.terms)}),
    ("invariants", "generator_set", "invariants.generator_set", None, _generator_set_out),
    ("invariants", "verify_generator_suite", "invariants.verify_suite", _verify_in, None),
    ("invariants", "test_curve_system", "invariants.test_curve_system", None,
     lambda a, kw, r: {"cells": r.matrix.rows * r.matrix.cols}),
    ("invariants", "solution_space_equals_perp", "invariants.perp_check", None, None),
    ("orbits", "limit_point", "orbits.limit_point",
     lambda a, kw: {"terms_in": len(a[0].terms)},
     lambda a, kw, r: {"kept": len(r.terms)}),
    ("orbits", "z_closed_form", "orbits.z_closed_form", None, None),
    ("orbits", "infinitesimal_stabilizer", "orbits.stabilizer", None, None),
    ("orbits", "codim_report", "orbits.codim_report", None, None),
    ("cli", "main", "cli.main", None, None),
]

METRICS = sorted({m for _, _, m, _, _ in PATCHES if isinstance(m, str)} | {"exact.det", "exact.det_poly"})
_METRIC_INDEX = {m: i for i, m in enumerate(METRICS)}


class Tracer:
    """Span recorder plus the bindings it swaps in and out of jetinv."""

    def __init__(self):
        self.spans = array("q")
        self.totals = {m: {"calls": 0, "self_ns": 0} for m in METRICS}
        self.sym_basis = {"calls": 0, "hits": 0, "misses": 0}
        self.op_id = 0
        self._sizing = False  # size hooks may call counted functions
        self._stack: list[list] = []  # [metric, span_id, covered_ns]
        self._next_id = 1
        self._swaps = self._plan()

    # -- bindings ---------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, name, original, wrapper) for every binding site."""
        import jetinv.cli  # noqa: F401  (loads every layer)

        mods = {n: m for n, m in sys.modules.items() if n == "jetinv" or n.startswith("jetinv.")}
        swaps = []
        for mod, path, metric, pre, post in PATCHES:
            owner = mods["jetinv." + mod]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                swaps.append((cls, attr, original, self._wrap(original, metric, pre, post)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, metric, pre, post)
            for m in mods.values():
                for name, value in list(vars(m).items()):
                    if value is original:
                        swaps.append((m, name, original, wrapper))
        symbasis = mods["jetinv.symbasis"]
        original = symbasis.sym_basis
        counter = self._count_sym_basis(original, symbasis._sym_basis_cached)
        for m in mods.values():
            for name, value in list(vars(m).items()):
                if value is original:
                    swaps.append((m, name, original, counter))
        return swaps

    def install(self) -> None:
        for owner, name, _original, wrapper in self._swaps:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _wrapper in self._swaps:
            setattr(owner, name, original)

    # -- wrappers ---------------------------------------------------------

    def _count_sym_basis(self, fn, cached):
        tracer = self
        stats = self.sym_basis

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._sizing:
                return fn(*args, **kwargs)
            before = cached.cache_info()
            result = fn(*args, **kwargs)
            after = cached.cache_info()
            stats["calls"] += 1
            stats["hits"] += after.hits - before.hits
            stats["misses"] += after.misses - before.misses
            return result

        return counted

    def _wrap(self, fn, metric, pre, post):
        tracer = self
        metric_of = metric if callable(metric) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter_ns()
            name = metric_of(args) if metric_of else metric
            stack = tracer._stack
            if any(frame[0] == name for frame in stack):
                return fn(*args, **kwargs)
            tracer._sizing = True
            sizes = pre(args, kwargs) if pre else {}
            tracer._sizing = False
            frame = [name, tracer._next_id, 0]
            tracer._next_id += 1
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
            if post:
                tracer._sizing = True
                sizes.update(post(args, kwargs, result))
                tracer._sizing = False
            tot = tracer.totals[name]
            tot["calls"] += 1
            tot["self_ns"] += end - start - frame[2]
            for key, value in sizes.items():
                tot[key] = max(tot.get(key, 0), value) if key == "max_bits" else tot.get(key, 0) + value
            tracer.spans.extend(
                (frame[1], parent, tracer.op_id, _METRIC_INDEX[name], start, end,
                 next(iter(sizes.values()), 0))
            )
            if stack:
                stack[-1][2] += perf_counter_ns() - enter
            return result

        return wrapper

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.spans) // len(SPAN_FIELDS)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS, "metrics": METRICS}) + "\n")
            for i in range(n):
                rec = self.spans[i * len(SPAN_FIELDS):(i + 1) * len(SPAN_FIELDS)]
                fh.write(json.dumps(list(rec)) + "\n")
        return n
