"""Command-line surface: every computation with machine-readable output.

Exit codes: 0 success, 1 a computation reported a violated expectation,
2 invalid input, 3 resource limit exceeded, 4 internal error, 141 the reader
closed stdout before the output ended.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import sys
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, filterfalse, islice, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import is_, itemgetter
from pathlib import Path

from .exact import ResourceLimitError
from .invariants import (
    generator_set,
    solution_space_equals_perp,
    test_curve_system,
    verify_generator_suite,
)
from .jets import (
    JetMap,
    gkp_entry,
    group_matrix,
    random_jet,
    symbolic_jet,
    symbolic_reparam,
)
from .embedding import phi
from .orbits import (
    closed_form_matches_limit,
    codim_report,
    distinguished_stabilizer,
    limit_of_distinguished,
    probe_stabilizer_conjecture,
    z_closed_form,
)
from .symbasis import sym_basis, sym_dim

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a filter SIGPIPE ended

# Largest output matrix, in cells, that group-matrix, phi and test-curve build
# without --force (test-curve --k 8 --n 8, 102,952 cells, takes 0.5 s in a
# fresh process on a 2-vCPU x86-64 box).
OUTPUT_CELL_CEILING = 100_000


# Arrays longer than this are rendered, and written out, BATCH items at a time.
BATCH = 256

_ARRAYS = frozenset((list, tuple))
_FILED = frozenset((int, str))  # the item types of the arrays filed by id

# C encoder for every scalar but str; a type JSON cannot take raises TypeError
_scalar = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", ", ", True, False, True)


def canonical_json(obj) -> Iterator[str]:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for str dict
    keys, as chunks of text to be written in order.  The cost follows the
    payload's shape: a few key sets, a few monomials, repeated thousands of
    times, so values are rendered a column at a time.

    ``_Writer.render`` takes a list of values at one indent and returns their
    texts.  Values are grouped by type; a column of strs or of ints is one
    C-level ``map``.  Dicts whose keys come in one insertion order take one
    sorted head, cached per order and indent, and each key's column is read
    with ``itemgetter`` and rendered at the next indent.  An array led by an
    int or a str is first looked up by id among the texts filed at its indent;
    the ones not found, each once, are rendered and, when all their items
    are ints or all are strs, filed: a wedge's thousands of factors are a few
    dozen monomials, and a term list's exponents are the minor table's
    shared tuples.  Every filed array is held by obj for the whole call, so
    no two live objects share an id.  A run of equal-length arrays with items
    of several types, no longer than the run, such as (exponent, coeff)
    pairs, is rendered column by column; any other run of arrays is
    flattened, rendered as one column and regrouped.  Each record is one
    ``"".join`` over a ``zip`` of its columns with the repeated prefixes and
    separators.

    Dicts, and arrays led by a dict, that hold an array of more than BATCH
    items are walked key by key and item by item.  Such an array is rendered
    and yielded BATCH items at a time, and the text before a batch goes out
    with it, so a payload holding no such array is a single chunk."""
    writer = _Writer()
    for _ in writer.stream(obj, "\n"):
        yield "".join(writer.parts)
        writer.parts.clear()
    yield "".join(writer.parts)


class _Writer:
    """One canonical_json call: the texts filed by id at each indent, and the
    text not yet yielded.  A class rather than closures that call each other,
    so a finished call leaves no reference cycle behind for the collector."""

    def __init__(self) -> None:
        self.shared: defaultdict[str, dict[int, str]] = defaultdict(dict)  # newline -> id(array) -> text
        self.parts: list[str] = []

    def render(self, values, newline: str) -> list[str]:
        """The text of each value at the line whose break and indent is newline."""
        kinds = set(map(type, values))
        if len(kinds) != 1:
            return _scatter(values, map(type, values), lambda group: self.render(group, newline))
        return self.render_as(kinds.pop(), values, newline)

    def render_as(self, kind: type, values, newline: str) -> list[str]:
        """render, for values all of type kind."""
        if kind is str:
            return list(map(encode_basestring_ascii, values))
        if kind is int:
            return list(map(int.__repr__, values))
        if issubclass(kind, (list, tuple)):
            return self.arrays(values, newline)
        if issubclass(kind, dict):
            return self.dicts(values, newline)
        return ["".join(_scalar(v, 0)) for v in values]

    def dicts(self, values, newline: str) -> list[str]:
        """render, for dicts: one column per key of each insertion order of keys."""
        orders = set(map(tuple, values))
        if len(orders) > 1:
            return _scatter(values, map(tuple, values), lambda group: self.dicts(group, newline))
        keys, prefixes = _head(orders.pop(), newline)
        if not keys:
            return ["{}"] * len(values)
        inner, end = newline + "  ", newline + "}"
        if len(keys) > len(values):  # fewer records than keys: their values as one column
            texts = iter(self.render([d[k] for d in values for k in keys], inner))
            return ["".join(chain.from_iterable(zip(prefixes, islice(texts, len(keys))))) + end for _ in values]
        columns = []
        for key, prefix in zip(keys, prefixes):
            columns += (repeat(prefix), self.render(list(map(itemgetter(key), values)), inner))
        return list(map("".join, zip(*columns, repeat(end))))

    def arrays(self, values, newline: str) -> list[str]:
        """render, for arrays: those led by an int or a str go through the memo."""
        lead = values[0]
        if not lead or type(lead[0]) not in _FILED:
            return self.records(values, newline)
        memo = self.shared[newline]
        ids = list(map(id, values))
        texts = list(map(memo.get, ids))
        if all(texts):
            return texts
        todo = dict(zip(ids, values))
        if memo:
            unfiled = list(filterfalse(memo.__contains__, todo))
            todo = dict(zip(unfiled, map(todo.__getitem__, unfiled)))
        fresh = dict(zip(todo, self.records(list(todo.values()), newline)))
        if set(map(type, chain.from_iterable(todo.values()))) in ({int}, {str}):
            memo.update(fresh)
        return list(map(fresh.get, ids, texts))

    def records(self, values, newline: str) -> list[str]:
        """render, for arrays, each rendered here: column by column, or
        flattened and regrouped."""
        inner = newline + "  "
        lengths = list(map(len, values))
        width = lengths[0]
        items = list(chain.from_iterable(values))
        if lengths.count(width) < len(lengths):
            return _regroup(self.render(items, inner), lengths, newline)
        if not width:
            return ["[]"] * len(values)
        kinds = set(map(type, items))
        if len(kinds) == 1 or width > len(values):
            texts = iter(self.render_as(kinds.pop(), items, inner) if len(kinds) == 1 else self.render(items, inner))
            return list(map("".join, zip(repeat("[" + inner), map(("," + inner).join, zip(*[texts] * width)),
                                         repeat(newline + "]"))))
        columns = [repeat("[" + inner)]
        for j in range(width):
            columns += (self.render(list(map(itemgetter(j), values)), inner), repeat("," + inner))
        columns[-1] = repeat(newline + "]")
        return list(map("".join, zip(*columns)))

    def stream(self, value, newline: str) -> Iterator[None]:
        """Append value's text at newline to parts, pausing after each batch."""
        parts, inner = self.parts, newline + "  "
        if isinstance(value, (list, tuple)) and len(value) > BATCH:
            for start in range(0, len(value), BATCH):
                parts.append(("," if start else "[") + inner)
                parts.append(("," + inner).join(self.render(value[start:start + BATCH], inner)))
                yield
            parts.append(newline + "]")
        elif isinstance(value, dict) and _holds_long(value):
            for key, prefix in zip(*_head(tuple(value), newline)):
                parts.append(prefix)
                yield from self.stream(value[key], inner)
            parts.append(newline + "}")
        elif isinstance(value, (list, tuple)) and _holds_long(value):
            for i, item in enumerate(value):
                parts.append(("," if i else "[") + inner)
                yield from self.stream(item, inner)
            parts.append(newline + "]")
        else:
            parts.extend(self.render([value], newline))


@lru_cache(maxsize=1024)
def _head(order: tuple, newline: str) -> tuple[tuple, tuple[str, ...]]:
    """A dict's sorted keys, each with its `{` or `,`, the indent and its
    `"key": `, for the dict's keys in insertion order at newline."""
    inner = newline + "  "
    keys = tuple(sorted(order))
    return keys, tuple(("," if i else "{") + inner + encode_basestring_ascii(k) + ": " for i, k in enumerate(keys))


def _holds_long(value) -> bool:
    """Whether value is or holds an array of more than BATCH items, looking
    through dicts and the dicts of arrays led by a dict only: the items of
    other arrays, such as a term list's exponents, are not read.  The values
    of an array's dicts are checked together, a C-level pass each."""
    if type(value) is dict:
        return any(map(_holds_long, value.values()))
    if type(value) not in _ARRAYS:
        return False
    if len(value) > BATCH:
        return True
    if not value or type(value[0]) is not dict:
        return False
    values = list(chain.from_iterable(map(dict.values, compress(value, map(is_, map(type, value), repeat(dict))))))
    kinds = list(map(type, values))
    arrays = list(filter(None, compress(values, map(_ARRAYS.__contains__, kinds))))
    if max(map(len, arrays), default=0) > BATCH:
        return True
    led = compress(arrays, map(is_, map(type, map(itemgetter(0), arrays)), repeat(dict)))
    return any(map(_holds_long, chain(compress(values, map(is_, kinds, repeat(dict))), led)))


def _scatter(values, labels, render_group) -> list[str]:
    """render_group on each group of values that share a label, its texts put
    back in the values' places."""
    where: dict = {}
    for i, label in enumerate(labels):
        where.setdefault(label, []).append(i)
    texts = [""] * len(values)
    for group in where.values():
        for i, text in zip(group, render_group([values[i] for i in group])):
            texts[i] = text
    return texts


def _regroup(texts: list[str], lengths: list[int], newline: str) -> list[str]:
    """Arrays at newline of the given lengths, their item texts taken in order."""
    inner = newline + "  "
    start, sep, end = "[" + inner, "," + inner, newline + "]"
    it = iter(texts)
    return [start + sep.join(islice(it, n)) + end if n else "[]" for n in lengths]


@contextmanager
def _writing(flag: str, path) -> Iterator[None]:
    """An OS error writing the file a flag names is bad input."""
    try:
        yield
    except OSError as e:
        raise ValueError(f"cannot write {flag} {path}: {e.strerror or e}") from None


def _emit(payload: dict, args) -> None:
    """Canonical JSON, rendered once and written chunk by chunk to --out and,
    with --json, to stdout; without --json a table goes to stdout."""
    path, to_stdout = getattr(args, "out", None), getattr(args, "json", False)
    if path or to_stdout:
        out = None
        if path:
            with _writing("--out", path):
                out = open(path, "w", encoding="ascii")
        try:
            for chunk in chain(canonical_json(payload), ("\n",)):
                if out is not None:
                    with _writing("--out", path):
                        out.write(chunk)
                if to_stdout:
                    sys.stdout.write(chunk)
        finally:
            if out is not None:
                with _writing("--out", path):
                    out.close()
    if not to_stdout:
        _print_human(payload, {})


def _print_human(payload: dict, memo: dict, indent: str = "") -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, memo, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                print(f"{indent}  -")
                _print_human(item, memo, indent + "    ")
        else:
            print(f"{indent}{key}: {_shown(value, memo) if isinstance(value, (list, tuple)) else value}")


def _shown(value: list | tuple, memo: dict) -> str:
    """repr(value) with its tuples shown as lists, as its JSON shows them.  An
    array of leaves is one join of their reprs, filed by id in memo (the
    payload keeps it alive), so a tuple that many terms share is shown once."""
    text = memo.get(id(value))
    if text is None:
        if any(map(isinstance, value, repeat((list, tuple)))):
            items = [_shown(x, memo) if isinstance(x, (list, tuple)) else repr(x) for x in value]
            return "[" + ", ".join(items) + "]"
        text = memo[id(value)] = "[" + ", ".join(map(repr, value)) + "]"
    return text


def _check_sizes(args, n: int, N: int = 1, coeff_bound: int = 1) -> None:
    """Sizes below 1 are bad input.  The output matrix, sym_dim(n, k) x
    sym_dim(p, k) cells N^2 times over, is gated before any basis is built."""
    for flag, value in (("p", args.p), ("k", args.k), ("n", n), ("N", N),
                        ("coeff-bound", coeff_bound)):
        if value < 1:
            raise ValueError(f"need --{flag} >= 1, got {value}")
    cells = sym_dim(args.p, args.k) * sym_dim(n, args.k) * N * N
    if cells > OUTPUT_CELL_CEILING and not args.force:
        raise ResourceLimitError(f"output of {cells} cells exceeds ceiling {OUTPUT_CELL_CEILING}")


def _jet_of(args, N: int = 1) -> JetMap:
    """The jet of phi and test-curve: symbolic, or random from --seed."""
    _check_sizes(args, args.n, N, args.coeff_bound)
    if args.symbolic:
        return symbolic_jet(args.p, args.n, args.k)[0]
    return random_jet(random.Random(args.seed), args.p, args.n, args.k, bound=args.coeff_bound,
                      regular=True)


def cmd_group_matrix(args) -> int:
    p, k = args.p, args.k
    _check_sizes(args, p)
    if args.params and p != 1:
        raise ValueError("--params supports p = 1 only; without it the matrix is symbolic")
    if args.params and args.closed_form:
        raise ValueError("--closed-form checks the symbolic matrix; it does not combine with --params")
    if args.params:
        try:
            vals = [Fraction(x) for x in args.params.split(",")]
        except (ValueError, ZeroDivisionError):
            raise ValueError("malformed --params") from None
        if len(vals) != k or vals[0] == 0:
            raise ValueError("--params needs k values with nonzero first")
        jet = JetMap(1, 1, k, {(i,): (vals[i - 1],) for i in range(1, k + 1)})
        m = group_matrix(jet)
        payload = {"p": p, "k": k, "matrix": m.to_strings()}
        _emit(payload, args)
        return EXIT_OK
    psi, ring = symbolic_reparam(p, k)
    m = group_matrix(psi)
    payload = {
        "p": p,
        "k": k,
        "basis": [list(mm) for mm in sym_basis(p, k).monomials],
        "matrix": m.to_strings(),
    }
    if args.closed_form:
        monomials = sym_basis(p, k).monomials
        match = all(m.data[i][j] == gkp_entry(tau, nu, p, k, ring)
                    for i, tau in enumerate(monomials) for j, nu in enumerate(monomials))
        payload["closed_form_matches_oracle"] = match
        _emit(payload, args)
        return EXIT_OK if match else EXIT_VIOLATION
    _emit(payload, args)
    return EXIT_OK


def cmd_phi(args) -> int:
    p, k, n = args.p, args.k, args.n
    jet = _jet_of(args)
    cols = _phi_json(phi(jet), col_key=lambda s: f"[{_csv(s)}]", row_key=lambda m: str(list(m)))
    payload = {"p": p, "k": k, "n": n, "columns": cols}
    if not args.symbolic:
        payload["jet"] = jet.to_json()
    _emit(payload, args)
    return EXIT_OK


def cmd_generators(args) -> int:
    if args.trials < 1:
        raise ValueError(f"need --trials >= 1, got {args.trials}")
    gens = generator_set(args.n, args.k, args.p, force=args.force)
    by_degree: dict[str, int] = {}
    for g in gens:
        key = str(g.weighted_degree)
        by_degree[key] = by_degree.get(key, 0) + 1
    payload = {
        "n": args.n,
        "k": args.k,
        "p": args.p,
        "count": len(gens),
        "count_per_degree": by_degree,
        "generators": [g.to_json() for g in gens],
    }
    code = EXIT_OK
    if args.verify:
        report = verify_generator_suite(gens, trials=args.trials, seed=args.seed)
        payload["verification"] = report
        if not report["ok"]:
            code = EXIT_VIOLATION
    _emit(payload, args)
    return code


def cmd_test_curve(args) -> int:
    p, k, n, N = args.p, args.k, args.n, args.N
    jet = _jet_of(args, N)
    # the system of D * jet has the rank and the perp verdict of the jet's own
    # system, and every cell is an int (solution_space_equals_perp)
    scaled = jet.integral()[0]
    sysm = test_curve_system(scaled, N)
    if args.symbolic:
        rows = {}
        for (m, c), row in zip(sysm.row_index, sysm.matrix.data):
            terms = []
            for (s, c2), entry in zip(sysm.col_index, row):
                if c2 == c and entry:
                    terms.append(
                        {"psi_index": list(s), "coefficient": str(entry)}
                    )
            rows["[" + ",".join(map(str, m)) + f"]@{c}"] = terms
        payload = {"p": p, "k": k, "n": n, "N": N, "rows": rows}
        _emit(payload, args)
        return EXIT_OK
    expected = N * sym_dim(p, k)
    perp = solution_space_equals_perp(scaled, N, sysm)
    rank = sysm.matrix.rank()
    payload = {
        "p": p,
        "k": k,
        "n": n,
        "N": N,
        "jet": jet.to_json(),
        "rank": rank,
        "expected_codimension": expected,
        "solution_space_equals_perp": perp,
    }
    _emit(payload, args)
    if rank != expected or not perp:
        return EXIT_VIOLATION
    return EXIT_OK


def _parse_eps(text: str | None) -> Fraction | None:
    """--eps as a rational in (0, 1); None keeps the formal symbol."""
    if text is None:
        return None
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"malformed --eps {text!r}: need a rational such as 1/8") from None
    if not 0 < eps < 1:
        raise ValueError(f"--eps must satisfy 0 < eps < 1, got {text}")
    return eps


def cmd_orbit(args) -> int:
    if args.orbit_cmd == "limit":
        eps = _parse_eps(args.eps)
        w = limit_of_distinguished(args.sigma, args.k, args.kind, eps=eps, force=args.force)
        _emit(w.to_json(), args)
        return EXIT_OK
    if args.orbit_cmd == "closed-form":
        z = z_closed_form(args.sigma, args.k, args.kind, force=args.force)
        match = closed_form_matches_limit(args.sigma, args.k, args.kind)
        _emit({**z.to_json(), "matches_limit": match}, args)
        return EXIT_OK if match else EXIT_VIOLATION
    if args.orbit_cmd == "stabilizer":
        res = distinguished_stabilizer(1, args.k, args.M, force=args.force)
        payload = {
            "k": args.k,
            "M": args.M,
            "dimension": res.dimension,
            "expected": args.k - 1,
        }
        _emit(payload, args)
        return EXIT_OK if res.dimension == args.k - 1 else EXIT_VIOLATION
    if args.orbit_cmd == "codim-report":
        rep = codim_report(args.k, args.M, force=args.force)
        _emit(rep, args)
        if args.k >= 4 and not rep["all_bounds_ok"]:
            return EXIT_VIOLATION
        return EXIT_OK
    rep = probe_stabilizer_conjecture(args.p, args.k, args.M, force=args.force)
    _emit(rep, args)
    return EXIT_OK


# -- golden fixtures ---------------------------------------------------------


def compute_fixtures() -> dict[str, dict]:
    """The worked small cases, in canonical serialized form."""
    out: dict[str, dict] = {}

    psi23, _ = symbolic_reparam(2, 3)
    m = group_matrix(psi23)
    out["example_2_1"] = {
        "p": 2,
        "k": 3,
        "basis": [list(mm) for mm in sym_basis(2, 3).monomials],
        "matrix": m.to_strings(),
    }

    jet22, _ = symbolic_jet(1, 2, 2)
    gens22 = generator_set(2, 2, 1)
    out["example_7_4"] = {
        "n": 2,
        "k": 2,
        "phi": _phi_json(phi(jet22)),
        "minors": sorted(str(g.poly.normalized()) for g in gens22 if g.weighted_degree == 3),
        "coordinates": sorted(str(g.poly) for g in gens22 if g.weighted_degree == 1),
    }

    jet33, _ = symbolic_jet(1, 3, 3)
    out["example_7_5"] = {"n": 3, "k": 3, "phi": _phi_json(phi(jet33))}

    jet87, _ = symbolic_jet(2, 2, 2, prefix="v")
    out["example_8_7"] = {"p": 2, "k": 2, "n": 2, "phi": _phi_json(phi(jet87))}
    return out


def _csv(t: tuple[int, ...]) -> str:
    return ",".join(map(str, t))


def _phi_json(pm, col_key=_csv, row_key=_csv) -> dict:
    """Embedded columns as {column multi-index: {row monomial: entry}}."""
    return {
        col_key(s): {row_key(pm.basis.monomials[r]): str(col[r]) for r in sorted(col)}
        for s, col in zip(pm.col_index, pm.columns)
    }


def cmd_fixtures(args) -> int:
    directory = Path(args.dir)
    fixtures = compute_fixtures()
    if args.fixtures_cmd == "regenerate":
        for name, payload in fixtures.items():
            path = directory / f"{name}.json"
            with _writing("--dir", args.dir):
                directory.mkdir(parents=True, exist_ok=True)
                with path.open("w", encoding="ascii") as file:
                    file.writelines(chain(canonical_json(payload), ("\n",)))
            print(f"wrote {path}")
        return EXIT_OK
    if not directory.is_dir():
        raise ValueError(f"--dir {args.dir} is not a directory")
    mismatches = []
    for name, payload in fixtures.items():
        path = directory / f"{name}.json"
        if not path.exists():
            mismatches.append(f"{name}: missing stored fixture")
            continue
        stored = json.loads(path.read_text())
        if stored != payload:
            mismatches.append(f"{name}: stored fixture differs from current output")
    if mismatches:
        for line in mismatches:
            print(line, file=sys.stderr)
        return EXIT_VIOLATION
    print(f"{len(fixtures)} fixtures match")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each command names its handler, which main looks
    up when it runs the command."""
    parser = argparse.ArgumentParser(
        prog="jetinv",
        description="Exact computations for reparametrization-invariant jets",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, seed: bool = False, coeff_bound: bool = False):
        """The output flags, and the random-input flags of the commands that
        draw random input."""
        p.add_argument("--json", action="store_true", help="print JSON instead of a table")
        p.add_argument("--out", help="also write JSON to this file")
        p.add_argument("--force", action="store_true", help="override resource limits")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if coeff_bound:
            p.add_argument("--coeff-bound", type=int, default=20, dest="coeff_bound")

    gm = sub.add_parser("group-matrix", help="matrix of the reparametrization action")
    gm.add_argument("--p", type=int, default=1)
    gm.add_argument("--k", type=int, required=True)
    gm.add_argument("--params", help="comma-separated rational coefficients (p=1); "
                                     "without them the matrix is symbolic")
    gm.add_argument("--closed-form", action="store_true", dest="closed_form")
    common(gm)
    gm.set_defaults(func="cmd_group_matrix")

    ph = sub.add_parser("phi", help="embedded matrix of a jet")
    ph.add_argument("--p", type=int, default=1)
    ph.add_argument("--k", type=int, required=True)
    ph.add_argument("--n", type=int, required=True)
    ph.add_argument("--symbolic", action="store_true")
    common(ph, seed=True, coeff_bound=True)
    ph.set_defaults(func="cmd_phi")

    ge = sub.add_parser("generators", help="invariant generator set")
    ge.add_argument("--n", type=int, required=True)
    ge.add_argument("--k", type=int, required=True)
    ge.add_argument("--p", type=int, default=1)
    ge.add_argument("--verify", action="store_true")
    ge.add_argument("--trials", type=int, default=100)
    common(ge, seed=True)
    ge.set_defaults(func="cmd_generators")

    tc = sub.add_parser("test-curve", help="vanishing linear system of a jet")
    tc.add_argument("--p", type=int, default=1)
    tc.add_argument("--k", type=int, required=True)
    tc.add_argument("--n", type=int, required=True)
    tc.add_argument("--N", type=int, default=1)
    tc.add_argument("--symbolic", action="store_true")
    common(tc, seed=True, coeff_bound=True)
    tc.set_defaults(func="cmd_test_curve")

    orb = sub.add_parser("orbit", help="one-parameter-subgroup limit analysis")
    orbsub = orb.add_subparsers(dest="orbit_cmd", required=True)
    for name in ("limit", "closed-form", "stabilizer", "codim-report", "probe-p"):
        o = orbsub.add_parser(name)
        if name == "probe-p":
            o.add_argument("--p", type=int, required=True)
        o.add_argument("--k", type=int, required=True)
        if name in ("limit", "closed-form"):
            o.add_argument("--sigma", type=int, required=True)
            o.add_argument("--kind", choices=["lambda", "mu"], required=True)
        else:
            o.add_argument("--M", type=int, default=1)
        if name == "limit":
            o.add_argument("--eps", help="rational epsilon instead of the formal symbol")
        common(o)
        o.set_defaults(func="cmd_orbit")

    fx = sub.add_parser("fixtures", help="golden fixtures for the worked examples")
    fxsub = fx.add_subparsers(dest="fixtures_cmd", required=True)
    for name in ("regenerate", "check"):
        f = fxsub.add_parser(name)
        f.add_argument("--dir", default="tests/fixtures")
        f.set_defaults(func="cmd_fixtures")
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built on the first call, not at import
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # The cyclic collector would walk the packed-map heaps of a run again and
    # again and find nothing: the package builds no reference cycles (a
    # tier-1 test holds it to that), so refcounting frees everything a
    # command drops and the pause holds no memory.
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = globals()[args.func](args)
        sys.stdout.flush()  # a closed pipe shows here, not in the interpreter's last flush
        return code
    except BrokenPipeError:
        # the reader has all it wants; what is still buffered goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except ResourceLimitError as e:
        print(str(e), file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
