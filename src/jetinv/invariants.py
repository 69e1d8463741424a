"""Generator sets of the reparametrization-invariant algebras as explicit
minor polynomials, invariance verification, and the test-curve linear
systems.

A generator is a minor of the embedded matrix of a symbolic jet: for curves
(p = 1) the s x s minors of the first s columns for s = 1..k, which are the
flag Plücker coordinates; for p > 1 only the maximal minors.  Generators are
compared and deduplicated up to a nonzero rational scalar, since scalars
affect neither invariance nor generation.  A symbolic jet has D = 1, so each
generator is one packed integer term map of the symbolic jet's minor table,
from ``generator_set`` to the JSON writer.

Most p = 1 candidates repeat another minor, and most of those are proved
duplicates before expansion.  With the row degrees sorted, a row of degree
d_j = j starts a block of a block-triangular minor, and a one-row block is a
positive multiple of a monomial in the first-order coordinates.  So the
non-monomial blocks and the product of the monomial ones fix the minor up to
scalar, and the enumeration keeps only the first candidate of each such key.
The skip is exact: a skipped candidate is never the first of its
proportionality class, so deduplication would have dropped it anyway.

Invariance checks default to exact evaluation at random rational points: a
polynomial identity that fails does so outside a measure-zero set, so any
failing generator is refuted with probability 1 per trial, and the identity
direction is additionally provable symbolically at small k (the symbolic
proof and the matrix-level certificate are reference checks in
tests/oracles.py).  Evaluation goes
through the minor's provenance: one ``MinorPlan`` per generator list, on the
supports that ``phi_integral`` keeps for every jet, serves every trial
matrix.  Each matrix is tabled in integers, as ``embedding.phi_integral`` of
the jet: row m of phi(D * gamma) is D^|m| times row m of phi(gamma), and a
minor is linear in each row, so minor(R; J) = integer minor(R; J) / D^e, with
e the summed degree of the row monomials R, exactly.  The random trials never
leave the integers: two minors are compared by cross-multiplying the powers of
D.

The test-curve system of gamma holds [u^m] gamma(u)^s at row (m, c), column
(s, c), and [u^m] gamma(u)^s = phi(gamma)[s, m] / orderings(s) entry by entry.
So the system matrix is the weighted embedded flag tensored with C^N, and its
kernel is the flag's annihilator, as the paper states.  The check runs in
integers: against ``embedding.phi_integral`` of gamma, with the system entry in
column s weighted by orderings(s) * D^|s|.  Replacing gamma by D * gamma
scales column s of the system, and both sides of the identity, by D^|s|; the
rank and the verdict are kept.  So the CLI checks and ranks the system of the
integral jet D * gamma, whose cells are all ints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import comb, prod
from typing import Mapping

from .exact import (
    Matrix,
    MinorPlan,
    MinorTable,
    Packing,
    ResourceLimitError,
    SparsePolynomial,
    divided,
)
from .jets import (
    JetMap,
    compose,
    powers,
    random_jet,
    random_reparam,
    random_rational,
    symbolic_jet,
)
from .embedding import phi_integral
from .symbasis import Exponent, Monomial, sym_basis, sym_dim


MINOR_COUNT_CEILING = 20000
# Numerator and denominator bound of the random jets, reparametrizations and
# torus scalings that the invariance checks draw.
TRIAL_BOUND = 10


@dataclass
class InvariantPoly:
    """A minor generator with its provenance and torus weight.

    rows are Sym-basis monomials over C^n, cols are domain multi-indices.
    The minor itself is kept packed, as its symbolic table's integer term
    map: ``generator_set`` fills that cache, and a generator built by hand
    or by dataclasses.replace fills it on first read from its provenance.
    ``poly`` unpacks it once and ``to_json`` writes from it.  Neither cache
    takes part in == or repr, and dataclasses.replace drops both.
    """

    n: int
    k: int
    p: int
    rows: tuple[Monomial, ...]
    cols: tuple[Exponent, ...]
    weighted_degree: object  # int for p = 1, tuple for p > 1
    _packed: tuple[MinorTable, dict] | None = field(default=None, init=False, repr=False, compare=False)

    def _packed_minor(self) -> tuple[MinorTable, dict]:
        """(table, packed term map) of the minor, expanded by a one-query
        plan on the symbolic table if ``generator_set`` did not leave it."""
        if self._packed is None:
            table = _symbolic_table(self.n, self.k, self.p)
            (_, terms), = table.packed(MinorPlan([self.positions()], table.supports))
            self._packed = table, terms
        return self._packed

    @cached_property
    def poly(self) -> SparsePolynomial:
        """The minor with Fraction coefficients, unpacked once."""
        table, terms = self._packed_minor()
        return divided(table.unpack(terms), 1)

    def positions(self) -> tuple[list[int], list[int]]:
        """Row and column positions of the minor in the embedded matrix."""
        rows, cols = sym_basis(self.n, self.k).position, sym_basis(self.p, self.k).exponent_position
        return [rows[m] for m in self.rows], [cols[s] for s in self.cols]

    def to_json(self) -> dict:
        table, terms = self._packed_minor()
        return {
            "provenance": {"rows": self.rows, "cols": self.cols},
            "weighted_degree": self.weighted_degree,
            "poly": table.packing.term_list(terms),
            "vars": table.ring.names,
        }


def _symbolic_table(n: int, k: int, p: int) -> MinorTable:
    """The minor table of the embedded symbolic jet.  A symbolic jet has
    D = 1, so ``phi_integral`` is phi itself and each minor of the table is
    a generator's polynomial, with int coefficients."""
    columns, _ = phi_integral(symbolic_jet(p, n, k)[0])
    return MinorTable(columns)


def _is_new(terms: Mapping[object, int], seen: dict[frozenset, list]) -> bool:
    """Whether a nonzero integer term map is no rational multiple of one in
    seen, filing it there if so.  seen buckets by support, which scaling keeps;
    on one support f and g are proportional iff f[e] * g[e0] == g[e] * f[e0]."""
    bucket = seen.setdefault(frozenset(terms), [])
    e0 = next(iter(terms))
    for other in bucket:
        x, y = terms[e0], other[e0]
        for e, c in terms.items():  # a loop, not all(): most maps have one to three terms
            if c * y != other[e] * x:
                break
        else:
            return False
    bucket.append(terms)
    return True


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


def _staircase_row_sets(all_rows: list[tuple[int, int]], c: tuple[int, ...], letters: list[int]):
    """Row position sets, from (degree, position) pairs sorted by degree,
    whose sorted degrees d_1 <= ... <= d_s satisfy d_j <= c_j, less those
    whose minor provably repeats an earlier one up to scalar.

    A column of degree c vanishes on rows of degree above c, so any other row
    set has no perfect matching on the support (Hall's condition) and gives
    a structurally zero minor.  For the same reason, with the flag columns
    c = (1, ..., s), a row of degree d_j = j and every row after it vanish
    on the columns before j: row j starts a new block, and the minor is the
    product of the block minors.  A one-row block is a positive multiple of
    the monomial of its row's first-order coordinates, whose letter counts
    ``letters`` packs in fields that hold s(s + 1)/2.  So the key (the rows
    of each longer block, whose first row's degree fixes its columns, and
    the sum of the one-row blocks' letters) fixes the minor up to a positive
    scalar, and only the first row set of each key is yielded: a later one
    is never the first of its proportionality class.  For p > 1, c_j < j
    past the first column, and no row set splits.
    """
    seen: set[tuple[tuple, int]] = set()

    def close(chosen: list[int], start: int, blocks: tuple, mono: int) -> tuple[tuple, int]:
        """The key with the block of chosen[start:] closed."""
        if len(chosen) - start == 1:
            return blocks, mono + letters[chosen[start]]
        return blocks + (tuple(chosen[start:]),), mono

    def rec(chosen: list[int], first: int, start: int, blocks: tuple, mono: int):
        j = len(chosen)
        if j == len(c):
            key = close(chosen, start, blocks, mono)
            if key not in seen:
                seen.add(key)
                yield tuple(chosen)
            return
        cut = None
        for idx in range(first, len(all_rows)):
            d, pos = all_rows[idx]
            if d > c[j]:
                break  # rows are degree-sorted; all later rows fail too
            if j and d == j + 1:  # row j opens a block: close the one before
                cut = cut or close(chosen, start, blocks, mono)
                chosen.append(pos)
                yield from rec(chosen, idx + 1, j, *cut)
            else:
                chosen.append(pos)
                yield from rec(chosen, idx + 1, start, blocks, mono)
            chosen.pop()

    try:
        yield from rec([], 0, 0, (), 0)
    finally:
        del rec  # it calls itself through its own cell, a reference cycle that would keep `seen` alive


def count_candidate_minors(n: int, k: int, p: int = 1) -> int:
    """Number of structurally nonzero minor candidates, before deduplication:
    every row set under the staircase rule of `_staircase_row_sets`, the
    block-factor duplicates that it skips included, counted without
    enumerating them."""
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


def _candidates(n: int, k: int, p: int) -> list[tuple[tuple[int, ...], int, object]]:
    """The structurally nonzero minor candidates as (row positions, column
    count, weighted degree), family by family, less the block-factor
    duplicates that `_staircase_row_sets` skips; with no family, no basis is
    built."""
    families = _generator_families(n, k, p)
    if not families:
        return []
    basis = sym_basis(n, k)
    all_rows = sorted((len(m), pos) for pos, m in enumerate(basis.monomials))
    packing = Packing(n, k * (k + 1) // 2)
    letters = list(map(packing.pack, basis.exponents))
    return [(rows, len(c), wd) for c, wd in families
            for rows in _staircase_row_sets(all_rows, c, letters)]


def generator_set(n: int, k: int, p: int = 1, force: bool = False) -> list[InvariantPoly]:
    """All flag Plücker minors of the symbolic embedded matrix.

    p = 1: every s x s minor of the first s columns, s = 1..k; p > 1:
    maximal minors only.  Structurally zero row choices are skipped, and so
    is every p = 1 row choice whose blocks (cut where the sorted row degree
    d_j equals j) repeat an earlier one's, the one-row blocks compared by
    their product, a monomial: its minor is a scalar multiple of the
    earlier one, which deduplication would keep instead.  The remaining
    candidates are expanded by one plan on the symbolic table, zeros
    dropped and duplicates up to scalar removed on the table's packed terms
    (``_is_new``; packing is injective), and the kept minors stay packed
    until read.
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
    where = _candidates(n, k, p)
    if not where:
        return []
    monomials, domain = sym_basis(n, k).monomials, sym_basis(p, k).exponents
    table, seen, gens = _symbolic_table(n, k, p), {}, []
    for q, terms in table.packed(MinorPlan([(rows, range(s)) for rows, s, _ in where], table.supports)):
        if terms and _is_new(terms, seen):
            rows, s, wd = where[q]
            gens.append(InvariantPoly(n=n, k=k, p=p, rows=tuple(map(monomials.__getitem__, rows)),
                                      cols=tuple(domain[:s]), weighted_degree=wd))
            gens[-1]._packed = table, terms
    return gens


def scale_jet(jet: JetMap, lam: tuple[Fraction, ...]) -> JetMap:
    """Torus action: coefficient s scales by lambda^s."""
    coeffs = {}
    for s, vec in jet.coeffs.items():
        factor = Fraction(1)
        for l, e in zip(lam, s):
            factor *= l**e
        coeffs[s] = tuple(factor * c for c in vec)
    return JetMap(jet.p, jet.q, jet.k, coeffs)


def _nonzero_rational(rng: random.Random) -> Fraction:
    while True:
        x = random_rational(rng, TRIAL_BOUND)
        if x != 0:
            return x


def _trial_plan(gens: list[InvariantPoly]) -> MinorPlan:
    """The generators' plan on the supports ``phi_integral`` keeps for every
    jet: row m can be nonzero in column s only if |m| <= |s|."""
    n, k, p = gens[0].n, gens[0].k, gens[0].p
    return MinorPlan([g.positions() for g in gens],
                     [(1 << sym_dim(n, sum(s))) - 1 for s in sym_basis(p, k).exponents])


def verify_generator_suite(
    gens: list[InvariantPoly],
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Exact randomized invariance and homogeneity check of a generator list.

    Each trial draws a random rational jet, a random unipotent (p = 1) or
    determinant-one (p > 1) reparametrization and a random nonzero torus
    scaling, embeds the three jets once, and compares every generator's exact
    minor values: unchanged under precomposition, scaled by the weighted
    degree under the torus.  The first discrepancy is returned as a witness
    whose "kind" names the failed check.  The jets have one (n, k, p), so
    generators of more than one shape raise ValueError.

    The values are compared in the integer scale of ``phi_integral``: with I
    the integer minor and D the scale of each jet, I0 / D0^e == I1 / D1^e
    iff I0 * D1^e == I1 * D0^e, and lambda^w = num / den is read once per
    trial and weighted degree.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not gens:
        raise ValueError("need at least one generator to verify, got none")
    shapes = {(g.n, g.k, g.p) for g in gens}
    if len(shapes) > 1:
        raise ValueError(f"generators of more than one shape (n, k, p): {sorted(shapes)}")
    (n, k, p), = shapes
    plan, exps = _trial_plan(gens), [sum(map(len, g.rows)) for g in gens]
    degrees = {g.weighted_degree for g in gens}
    rng = random.Random(seed)
    witness = None
    for t in range(trials):
        gamma = random_jet(rng, p, n, k, bound=TRIAL_BOUND)
        psi = random_reparam(rng, p, k, bound=TRIAL_BOUND, unipotent=(p == 1), special=(p > 1))
        lam = tuple(_nonzero_rational(rng) for _ in range(p))
        (minor0, pow0), (minor1, pow1), (minorl, powl) = (
            (MinorTable(columns).minors(plan), [d**e for e in range(max(exps) + 1)])
            for columns, d in map(phi_integral, (gamma, compose(gamma, psi), scale_jet(gamma, lam))))
        ratio = {wd: prod(l**w for l, w in zip(lam, (wd,) if isinstance(wd, int) else wd))
                 for wd in degrees}
        for g, i0, i1, il, e in zip(gens, minor0, minor1, minorl, exps):
            r = ratio[g.weighted_degree]
            if i0 * pow1[e] != i1 * pow0[e]:
                kind = "invariance"
            elif il * pow0[e] * r.denominator != i0 * powl[e] * r.numerator:
                kind = "homogeneity"
            else:
                continue
            witness = {"trial": t, "generator": {"rows": g.rows, "cols": g.cols}, "kind": kind}
            break
        if witness:
            break
    return {
        "ok": witness is None,
        "trials": trials,
        "witness": witness,
        "generators": len(gens),
    }


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


def test_curve_system(gamma: JetMap, N: int = 1) -> TestCurveSystem:
    """Build the vanishing system for a (possibly symbolic) jet gamma.

    Row (m, c) holds the coefficient of u^m in coordinate c of the composed
    jet; because composition is linear in the outer jet the entry at column
    (s, c) is the coefficient of u^m in gamma(u)^s.

    The powers are the table ``jets.powers`` of D * gamma, from
    ``JetMap.integral``, expanded in integers: [u^m] (D * gamma(u))^s =
    D^|s| * [u^m] gamma(u)^s, so each entry of column s is divided once, by
    D^|s|.  An integral jet (D = 1) skips the division: its entries are ints
    and int-coefficient polynomials, and its zero cells share one int 0.
    Otherwise the entries are Fractions and the zero cells share one
    Fraction(0).
    """
    p, n, k = gamma.p, gamma.q, gamma.k
    out_idx = sym_basis(p, k).exponents
    psi_idx = sym_basis(n, k).exponents
    scaled, d = gamma.integral()
    columns = [col if d == 1 else {m: divided(c, d ** sum(s)) for m, c in col.items()}
               for s, col in powers(scaled, psi_idx).items()]
    row_index = [(m, c) for m in out_idx for c in range(N)]
    col_index = [(s, c) for s in psi_idx for c in range(N)]
    zero = 0 if d == 1 else Fraction(0)
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
    [u^m] gamma(u)^s * orderings(s) = phi(gamma)[s, m].

    The check runs in the integer scale of ``phi_integral``: row s of
    phi(D * gamma) is D^|s| times row s of phi(gamma), so the identity reads
    entry * orderings(s) * D^|s| = phi_integral(gamma)[s, m].  Row (m, c)
    must be nonzero exactly at the columns (s, c) where column m of the
    embedding is nonzero, and there the weighted entry must equal it;
    multiplying serves polynomial entries too, and no rank, kernel or
    elimination runs.  The system matrix A then equals the weighted
    embedded columns S tensored with C^N, so ker A = (span S)^perp: the
    statement, checked more strongly than by comparing spans.  The
    embedding and the system are built by independent routines; a caller
    that already built test_curve_system(gamma, N) passes it as system.

    Replacing gamma by D * gamma scales both sides of the identity at column
    s by D^|s|, so it holds for one iff it holds for the other, and column
    (s, c) of the system by D^|s|, which keeps its rank.  So a caller may
    check and rank the system of the integral jet D * gamma instead: its D
    is 1, every entry is an int, and every compare is an int compare.
    """
    sysm = system if system is not None else test_curve_system(gamma, N)
    basis = sym_basis(gamma.q, gamma.k)
    columns, d = phi_integral(gamma)
    rows = [(m, c) for m in sym_basis(gamma.p, gamma.k).exponents for c in range(N)]
    cols = [(s, c) for s in basis.exponents for c in range(N)]
    shape = (sysm.row_index, sysm.col_index, sysm.matrix.rows, sysm.matrix.cols)
    if shape != (rows, cols, len(rows), len(cols)):
        return False
    weights = [w * d ** len(m) for w, m in zip(basis.orderings, basis.monomials)]
    for i, row in enumerate(sysm.matrix.data):
        c = i % N
        expected = {pos * N + c: val for pos, val in columns[i // N].items()}
        for j, a in enumerate(row):
            val = expected.get(j)
            if (a * weights[j // N] != val) if val is not None else a:
                return False
    return True
