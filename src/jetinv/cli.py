"""Command-line surface: every computation with machine-readable output.

Exit codes: 0 success, 1 a computation reported a violated expectation,
2 invalid input, 3 resource limit exceeded, 4 internal error, 141 the reader
closed stdout before the output ended.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import defaultdict
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
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


# C encoder for every scalar but str; a type JSON cannot take raises TypeError
_scalar = c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii, None,
                         ": ", ", ", True, False, True)


def canonical_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for str dict
    keys.  The cost follows the payload's shape: a few key sets, a few
    monomials, repeated thousands of times.

    A dict's head, its sorted keys each with the ready-made `{` or `,`, the
    indent and the encoded `"key": `, is built once per (key tuple in
    insertion order, indent) in a call; str values are written inline.

    An array is dispatched on its first item.  Empty, it is `[]`.  Its items
    are taken as all int only when the first is an int and the set of item
    types is exactly {int}, and as all str likewise; [1, true] and [1, 1.0]
    are written item by item.  An all-int or all-str array is rendered once
    per object and indent and filed in shared[indent][id(array)], where an
    array led by an int or a str, and every item of a mixed array, is looked
    up before it is written (a str item inline): wedges share a few basis
    monomial objects among thousands of factors.  Every filed array and every
    item looked up is held by obj for the whole call, so no two live objects share an id."""
    shared: defaultdict[str, dict[int, str]] = defaultdict(dict)  # indent -> id(array) -> text
    heads: dict[tuple, list[tuple[str, str]]] = {}  # (*keys, indent) -> [(key, prefix)]

    def write(obj, newline: str) -> str:
        """obj at the line whose break and indent is newline."""
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        inner = newline + "  "
        if isinstance(obj, (list, tuple)):
            if not obj:
                return "[]"
            lead = type(obj[0])
            if lead is int or lead is str:
                memo = shared[newline]
                text = memo.get(id(obj))
                if text is None and set(map(type, obj)) == {lead}:
                    encode = int.__repr__ if lead is int else encode_basestring_ascii
                    text = memo[id(obj)] = "[" + inner + ("," + inner).join(map(encode, obj)) + newline + "]"
                if text is not None:
                    return text
            items = shared[inner]
            return "[" + inner + ("," + inner).join([
                items.get(id(x)) or (encode_basestring_ascii(x) if type(x) is str else write(x, inner))
                for x in obj
            ]) + newline + "]"
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            head = heads.get((*obj, newline))
            if head is None:
                head = heads[(*obj, newline)] = [
                    (k, ("," if i else "{") + inner + encode_basestring_ascii(k) + ": ")
                    for i, k in enumerate(sorted(obj))]
            return "".join([
                prefix + (encode_basestring_ascii(v) if type(v := obj[k]) is str else write(v, inner))
                for k, prefix in head
            ]) + newline + "}"
        return "".join(_scalar(obj, 0))

    return write(obj, "\n")


def _emit(payload: dict, args) -> None:
    text = canonical_json(payload)
    if getattr(args, "out", None):
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write --out {args.out}: {e.strerror or e}") from None
    if getattr(args, "json", False):
        print(text)
        return
    _print_human(payload)


def _print_human(payload: dict, indent: str = "") -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                print(f"{indent}  -")
                _print_human(item, indent + "    ")
        else:
            print(f"{indent}{key}: {_listed(value)}")


def _listed(value):
    """value with its tuples as lists, the way its JSON shows them."""
    return [_listed(x) for x in value] if isinstance(value, (list, tuple)) else value


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
    rank = sysm.rank()
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
        w = limit_of_distinguished(args.sigma, args.k, _kind(args.kind), eps=eps,
                                   force=args.force)
        _emit(w.to_json(), args)
        return EXIT_OK
    if args.orbit_cmd == "closed-form":
        z = z_closed_form(args.sigma, args.k, _kind(args.kind), force=args.force)
        match = closed_form_matches_limit(args.sigma, args.k, _kind(args.kind))
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


def _kind(kind: str) -> str:
    return {"lambda": "regular", "mu": "degenerate"}[kind]


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
        col_key(s): {row_key(pm.basis.monomial_at(r)): str(col[r]) for r in sorted(col)}
        for s, col in zip(pm.col_index, pm.columns)
    }


def cmd_fixtures(args) -> int:
    directory = Path(args.dir)
    fixtures = compute_fixtures()
    if args.fixtures_cmd == "regenerate":
        for name, payload in fixtures.items():
            path = directory / f"{name}.json"
            try:
                directory.mkdir(parents=True, exist_ok=True)
                path.write_text(canonical_json(payload) + "\n")
            except OSError as e:
                raise ValueError(f"cannot write --dir {args.dir}: {e.strerror or e}") from None
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


if __name__ == "__main__":
    sys.exit(main())
