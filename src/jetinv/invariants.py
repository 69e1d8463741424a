"""Generator sets of the reparametrization-invariant algebras as explicit
minor polynomials, invariance verification, and the test-curve linear
systems.

A generator is a minor of the embedded matrix of a symbolic jet: for curves
(p = 1) the s x s minors of the first s columns for s = 1..k, which are the
flag Plücker coordinates; for p > 1 only the maximal minors.  Generators are
compared and deduplicated up to a nonzero rational scalar, since scalars
affect neither invariance nor generation.

Invariance checks default to exact evaluation at random rational points: a
polynomial identity that fails does so outside a measure-zero set, so any
failing generator is refuted with probability 1 per trial, and the identity
direction is additionally provable symbolically at small k.  Evaluation goes
through the minor's provenance: the columns of every generator are a prefix of
the embedded matrix's, so one ``MinorTable`` per embedded matrix reads them
all.  Every matrix is tabled in integers: a minor is linear in each column,
so if ``exact.integral_entries`` scales column j (all its coefficients) to integers
by s_j, then minor(R; J) = integer minor(R; J) / prod_{j in J} s_j, exactly.

The test-curve system of gamma holds [u^m] gamma(u)^s at row (m, c), column
(s, c), and [u^m] gamma(u)^s = phi(gamma)[s, m] / orderings(s) entry by entry.
So the system matrix is the weighted embedded flag tensored with C^N, and its
kernel is the flag's annihilator, as the paper states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, prod

from .exact import (
    Matrix,
    MinorTable,
    PolyRing,
    ResourceLimitError,
    SparsePolynomial,
    divided,
    integral_entries,
)
from .jets import (
    JetMap,
    compose,
    group_matrix,
    jet_var_name,
    _monomial_of_coords,
    random_jet,
    random_reparam,
    random_rational,
    symbolic_jet,
)
from .embedding import PhiMatrix, phi
from .symbasis import Exponent, Monomial, sym_basis, sym_dim


MINOR_COUNT_CEILING = 20000


@dataclass
class InvariantPoly:
    """A minor generator with its provenance and torus weight.

    rows are Sym-basis monomials over C^n, cols are domain multi-indices; the
    polynomial itself is expanded lazily since evaluation only needs the
    provenance.
    """

    n: int
    k: int
    p: int
    rows: tuple[Monomial, ...]
    cols: tuple[Exponent, ...]
    weighted_degree: object  # int for p = 1, tuple for p > 1
    _poly: SparsePolynomial | None = None

    @property
    def poly(self) -> SparsePolynomial:
        if self._poly is None:
            gamma, _ = symbolic_jet(self.p, self.n, self.k)
            self._poly = _minors_of(phi(gamma))[1](*self.positions())
        return self._poly

    def positions(self) -> tuple[list[int], list[int]]:
        """Row and column positions of the minor in the embedded matrix."""
        rows, cols = sym_basis(self.n, self.k).position, sym_basis(self.p, self.k).exponent_position
        return [rows[m] for m in self.rows], [cols[s] for s in self.cols]

    def to_json(self) -> dict:
        return {
            "provenance": {"rows": self.rows, "cols": self.cols},
            "weighted_degree": self.weighted_degree,
            "poly": self.poly.term_list(),
            "vars": self.poly.ring.names,
        }


def _minors_of(pm: PhiMatrix):
    """(integer, exact) minor readers of pm, (row positions, column positions)
    -> minor, off one integer MinorTable; integer = exact * column scales."""
    columns, scales = [], []
    for col in pm.columns:
        ints, d = integral_entries(list(col.values()))
        columns.append(dict(zip(col, ints)))
        scales.append(d)
    integer = MinorTable(columns).minor

    def exact(rows, cols):
        return divided(integer(rows, cols), prod(scales[c] for c in cols))
    return integer, exact


def _dedup_key(poly: SparsePolynomial) -> tuple:
    """Sorted terms of an integer polynomial over its content, signed so the
    first is positive: equal iff rational multiples (Gauss's lemma)."""
    terms = sorted(poly.terms.items())
    g = gcd(*(c for _, c in terms)) * (1 if terms[0][1] > 0 else -1)
    return tuple((e, c // g) for e, c in terms)


def _generator_families(n: int, k: int, p: int) -> list[tuple[tuple[int, ...], object]]:
    """The generator families as (column degrees, weighted degree), taking
    the first len(column degrees) domain columns, with no basis built: for
    p = 1 the first s columns, s = 1..k (flag Plücker minors); for p > 1 all
    comb(p + d - 1, d) columns of each degree d (maximal minors, none if the
    columns outnumber the rows), each weight coordinate 1/p of the degree sum."""
    if p == 1:
        return [(tuple(range(1, s + 1)), s * (s + 1) // 2) for s in range(1, k + 1)]
    if sym_dim(p, k) > sym_dim(n, k):
        return []
    degrees = tuple(d for d in range(1, k + 1) for _ in range(comb(p + d - 1, d)))
    return [(degrees, (sum(degrees) // p,) * p)]


def _staircase_row_sets(positions_by_degree: dict[int, list[int]], c: tuple[int, ...]):
    """Row position sets whose sorted degrees d_1 <= ... <= d_s satisfy
    d_j <= c_j.  A column of degree c vanishes on rows of degree above c, so
    any other row set has no perfect matching on the support (Hall's
    condition) and gives a structurally zero minor."""
    all_rows = [(d, pos) for d in sorted(positions_by_degree) for pos in positions_by_degree[d]]

    def rec(chosen: list[int], start: int):
        j = len(chosen)
        if j == len(c):
            yield tuple(chosen)
            return
        for idx in range(start, len(all_rows)):
            d, pos = all_rows[idx]
            if d > c[j]:
                break  # rows are degree-sorted; all later rows fail too
            chosen.append(pos)
            yield from rec(chosen, idx + 1)
            chosen.pop()

    yield from rec([], 0)


def count_candidate_minors(n: int, k: int, p: int = 1) -> int:
    """Number of structurally nonzero minor candidates, before deduplication:
    the row sets of `_staircase_row_sets`, counted without enumerating them."""
    counts = {d: comb(n + d - 1, d) for d in range(1, k + 1)}  # rows of each degree
    return sum(_profile_count(counts, c) for c, _ in _generator_families(n, k, p))


def _profile_count(counts: dict[int, int], col_degrees: tuple[int, ...]) -> int:
    """Count row-position subsets whose sorted degrees fit under col_degrees.

    For d from the top degree down, ways[j] counts the fillings of sorted
    positions j.. by rows of degree >= d: skip degree d, or put r of its
    counts[d] rows at positions j..j+r-1, which needs d <= col_degrees[j].
    """
    s = len(col_degrees)
    ways = [0] * s + [1]
    for d in range(max(col_degrees), 0, -1):
        ways = [
            ways[j] + sum(comb(counts[d], r) * ways[j + r]
                          for r in range(1, min(counts[d], s - j) + 1))
            if j == s or d <= col_degrees[j] else 0
            for j in range(s + 1)
        ]
    return ways[0]


def generator_set(
    n: int,
    k: int,
    p: int = 1,
    materialize: bool = True,
    force: bool = False,
) -> list[InvariantPoly]:
    """All flag Plücker minors of the symbolic embedded matrix.

    p = 1: every s x s minor of the first s columns, s = 1..k; p > 1:
    maximal minors only.  Structurally zero row choices are skipped.  With
    materialize the polynomials are expanded, zeros dropped and duplicates
    up to scalar removed; otherwise provenance-only entries are returned.
    More than MINOR_COUNT_CEILING candidates raise ResourceLimitError before
    any is built, unless force.
    """
    if min(n, k, p) < 1:
        raise ValueError(f"need n, k and p >= 1, got n={n}, k={k}, p={p}")
    if not force:
        count = count_candidate_minors(n, k, p)
        if count > MINOR_COUNT_CEILING:
            raise ResourceLimitError(
                f"{count} candidate minors exceed the ceiling {MINOR_COUNT_CEILING}; "
                "pass force to override"
            )
    families = _generator_families(n, k, p)
    if not families:
        return []
    basis = sym_basis(n, k)
    positions_by_degree: dict[int, list[int]] = {}
    for pos, m in enumerate(basis.monomials):
        positions_by_degree.setdefault(len(m), []).append(pos)
    domain = sym_basis(p, k).exponents
    integer, exact = _minors_of(phi(symbolic_jet(p, n, k)[0])) if materialize else (None, None)
    out: list[InvariantPoly] = []
    seen: set[tuple] = set()
    for c, wd in families:
        cols = tuple(domain[: len(c)])
        for rows in _staircase_row_sets(positions_by_degree, c):
            inv = InvariantPoly(n=n, k=k, p=p, rows=tuple(map(basis.monomial_at, rows)), cols=cols,
                                weighted_degree=wd)
            if materialize:
                poly = integer(rows, range(len(c)))
                if not isinstance(poly, SparsePolynomial) or poly.is_zero():
                    continue
                key = _dedup_key(poly)
                if key in seen:
                    continue
                seen.add(key)
                inv._poly = exact(rows, range(len(c)))
            out.append(inv)
    return out


def scale_jet(jet: JetMap, lam: tuple[Fraction, ...]) -> JetMap:
    """Torus action: coefficient s scales by lambda^s."""
    coeffs = {}
    for s, vec in jet.coeffs.items():
        factor = Fraction(1)
        for l, e in zip(lam, s):
            factor *= l**e
        coeffs[s] = tuple(factor * c for c in vec)
    return JetMap(jet.p, jet.q, jet.k, coeffs)


def _nonzero_rational(rng: random.Random, bound: int) -> Fraction:
    while True:
        x = random_rational(rng, bound)
        if x != 0:
            return x


def verify_invariance_symbolic(q: InvariantPoly) -> bool:
    """Symbolic proof of invariance: the minor of the embedded matrix at
    gamma composed with a fully symbolic unipotent reparametrization equals
    the minor at gamma, as polynomials.  Practical for k <= 3."""
    if q.p != 1:
        raise NotImplementedError("symbolic proof implemented for curves only")
    names = {s: [jet_var_name("u", s, j) for j in range(1, q.n + 1)]
             for s in sym_basis(1, q.k).exponents}
    ring = PolyRing([x for row in names.values() for x in row]
                    + [f"a{i}" for i in range(2, q.k + 1)])
    gamma = JetMap(1, q.n, q.k, {s: tuple(map(ring.var, row)) for s, row in names.items()})
    psi = JetMap(1, 1, q.k, {(i,): (ring.var(f"a{i}") if i > 1 else ring.one(),)
                             for i in range(1, q.k + 1)})
    where = q.positions()
    return _minors_of(phi(gamma))[1](*where) == _minors_of(phi(compose(gamma, psi)))[1](*where)


def verify_generator_suite(
    gens: list[InvariantPoly],
    trials: int = 100,
    seed: int = 0,
    bound: int = 10,
) -> dict:
    """Exact randomized invariance and homogeneity check of a generator list.

    Each trial draws a random rational jet, a random unipotent (p = 1) or
    determinant-one (p > 1) reparametrization and a random nonzero torus
    scaling, embeds the three jets once, and compares every generator's exact
    minor values: unchanged under precomposition, scaled by the weighted
    degree under the torus.  The first discrepancy is returned as a witness
    whose "kind" names the failed check.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not gens:
        raise ValueError("need at least one generator to verify, got none")
    n, k, p = gens[0].n, gens[0].k, gens[0].p
    where = [g.positions() for g in gens]
    rng = random.Random(seed)
    witness = None
    for t in range(trials):
        gamma = random_jet(rng, p, n, k, bound=bound)
        psi = random_reparam(rng, p, k, bound=bound, unipotent=(p == 1), special=(p > 1))
        lam = tuple(_nonzero_rational(rng, bound) for _ in range(p))
        _, minor0 = _minors_of(phi(gamma))
        _, minor1 = _minors_of(phi(compose(gamma, psi)))
        _, minorl = _minors_of(phi(scale_jet(gamma, lam)))
        for g, (rows, cols) in zip(gens, where):
            v0 = minor0(rows, cols)
            v1 = minor1(rows, cols)
            if v0 != v1:
                witness = {"trial": t, "generator": g.to_json()["provenance"], "kind": "invariance"}
                break
            wd = g.weighted_degree
            weights = (wd,) if isinstance(wd, int) else wd
            if minorl(rows, cols) != v0 * prod(l**w for l, w in zip(lam, weights)):
                witness = {"trial": t, "generator": g.to_json()["provenance"], "kind": "homogeneity"}
                break
        if witness:
            break
    return {
        "ok": witness is None,
        "trials": trials,
        "witness": witness,
        "generators": len(gens),
    }


def bulk_invariance_check(
    n: int, k: int, trials: int = 100, seed: int = 0, bound: int = 10
) -> dict:
    """Matrix-level invariance certificate covering every flag minor at once.

    For each trial it verifies, exactly, that the first s columns of the
    embedded matrix after a unipotent precomposition equal the original
    columns times the degree-(<= s) block of the group matrix, and that the
    block determinant is 1.  By the Cauchy-Binet multiplicativity of minors
    this implies every s x s minor of the first s columns is unchanged, so a
    pass certifies the whole generator set for these trials.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        gamma = random_jet(rng, 1, n, k, bound=bound)
        psi = random_reparam(rng, 1, k, bound=bound, unipotent=True)
        m = group_matrix(psi)
        a = phi(gamma).dense()
        b = phi(compose(gamma, psi)).dense()
        if not (b == a @ m):
            failures += 1
            continue
        for s in range(1, k + 1):
            block = Matrix([[m.data[i][j] for j in range(s)] for i in range(s)])
            if block.det() != 1:
                failures += 1
                break
    return {"ok": failures == 0, "trials": trials, "failures": failures}


# -- test-curve systems ----------------------------------------------------


@dataclass
class TestCurveSystem:
    """The linear system on k-jets Psi from C^n to C^N vanishing on gamma.

    Rows are indexed by (output multi-index, target coordinate), columns by
    (Psi coefficient multi-index over C^n, target coordinate); entries are
    the exact coefficients extracted from the truncated composition.
    """

    n: int
    k: int
    p: int
    N: int
    row_index: list[tuple[Exponent, int]]
    col_index: list[tuple[Exponent, int]]
    matrix: Matrix

    def rank(self) -> int:
        return self.matrix.rank()



def test_curve_system(gamma: JetMap, N: int = 1) -> TestCurveSystem:
    """Build the vanishing system for a (possibly symbolic) jet gamma.

    Row (m, c) holds the coefficient of u^m in coordinate c of the composed
    jet; because composition is linear in the outer jet the entry at column
    (s, c) is the coefficient of u^m in gamma(u)^s.

    The powers are expanded in integers, on D * gamma from
    ``JetMap.integral``: [u^m] (D * gamma(u))^s = D^|s| * [u^m] gamma(u)^s,
    so each entry of column s is divided once, by D^|s|.  Zero cells share
    one Fraction(0).
    """
    p, n, k = gamma.p, gamma.q, gamma.k
    out_idx = sym_basis(p, k).exponents
    psi_idx = sym_basis(n, k).exponents
    scaled, d = gamma.integral()
    coords = [scaled.coordinate_poly(j) for j in range(n)]
    cache: dict = {}
    columns = []
    for s in psi_idx:
        ds = d ** sum(s)
        columns.append({m: divided(c, ds)
                        for m, c in _monomial_of_coords(coords, s, k, cache).items()})
    row_index = [(m, c) for m in out_idx for c in range(N)]
    col_index = [(s, c) for s in psi_idx for c in range(N)]
    zero = Fraction(0)
    data = []
    for m, c in row_index:
        row = [zero] * len(col_index)
        for j, col in enumerate(columns):
            val = col.get(m)
            if val is not None:
                row[j * N + c] = val
        data.append(row)
    return TestCurveSystem(
        n=n, k=k, p=p, N=N, row_index=row_index, col_index=col_index, matrix=Matrix(data)
    )


def solution_space_equals_perp(gamma: JetMap, N: int = 1,
                               system: TestCurveSystem | None = None) -> bool:
    """Check that the system kernel is exactly the annihilator of the
    embedded flag, tensored with C^N, by the entrywise identity
    [u^m] gamma(u)^s = phi(gamma)[s, m] / orderings(s).

    Row (m, c) must be nonzero exactly at the columns (s, c) where column m
    of phi(gamma) is nonzero, and there the entry times orderings(s) must
    equal the phi entry; multiplying serves polynomial entries too, and no
    rank, kernel or elimination runs.  The system matrix A then equals the
    weighted embedded columns S tensored with C^N, so ker A = (span S)^perp:
    the statement, checked more strongly than by comparing spans.  The
    embedding and the system are built by independent routines; a caller
    that already built test_curve_system(gamma, N) passes it as system.
    """
    from . import symbasis

    sysm = system if system is not None else test_curve_system(gamma, N)
    pm = phi(gamma)
    rows = [(m, c) for m in pm.col_index for c in range(N)]
    cols = [(s, c) for s in pm.basis.exponents for c in range(N)]
    shape = (sysm.row_index, sysm.col_index, sysm.matrix.rows, sysm.matrix.cols)
    if shape != (rows, cols, len(rows), len(cols)):
        return False
    weights = [symbasis.orderings_count(m) for m in pm.basis.monomials]
    for i, row in enumerate(sysm.matrix.data):
        c = i % N
        expected = {pos * N + c: val for pos, val in pm.columns[i // N].items()}
        for j, a in enumerate(row):
            val = expected.get(j)
            if (a * weights[j // N] != val) if val is not None else a:
                return False
    return True
