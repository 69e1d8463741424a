"""One-parameter-subgroup degenerations of the distinguished orbit, limit
stabilizers, infinitesimal stabilizer dimensions, and the torus
Hilbert-Mumford criterion.

Weights live in Q + Q*eps with eps an infinitesimal positive formal symbol,
ordered lexicographically; this is the exact small-eps limit of the "fix
0 < eps < 1" convention and removes all genericity tuning.  The projective
limit of a wedge point under a diagonal one-parameter subgroup is its
minimal-total-weight part.  The weights of a subgroup are scaled to integer
pairs (a, b) by ``exact.integral``, summed once per basis position, and
compared as tuples: a positive scale keeps the lexicographic Q + Q*eps
order.  Column s of phi(flat_jet(p, k)) lives on the monomials whose letters
sum to s, so these columns, and any restrictions of them, have disjoint
supports: each term of their wedge picks one position per column, with no
cancellation.  The limit of the distinguished point is therefore the
wedge of the per-column minimal-weight parts, and the per-degree closed forms
are verified against it column by column rather than assumed.

Span reduction (every stabilizer system): each point is a decomposable wedge
w = v_1 ^ ... ^ v_r with span V, and the Plucker embedding gives X.w in C w
iff Sym(X) V lies in V, and then X.w = tr(X|V) w (Harris, Algebraic
Geometry: A First Course, Lecture 6).  With V in reduced echelon form
(pivots P), the rows ask Sym(X) v_i to lie in V at every non-pivot position,
and tr(X|V) = sum_i (Sym(X) v_i)[P_i] is 0 (affine) or the scalar unknown c
(projective).  A twisted point w^(ox a) ox (e_1 ^ ... ^ e_p)^(ox b) needs X
to keep span(e_1..e_p) invariant and a tr(X|V) + b sum_{j<=p} X_jj = 0, as
tensor slots acquiring a factor off the twist line are independent.  The
kernel, and so its basis, is that of the wedge system; tests cross-check
both reductions against wedge and full tensor expansions at small sizes.
Every V arrives reduced up to scale, so no elimination runs (zero or
unreduced input raises ValueError): flat-jet columns and their restrictions
have disjoint supports, and each v_s of _decompose is 1 at i_s, 0 on the rest
of the least term I and nonzero only above i_s, or I would not be least.

The span vectors, their pivots and the system rows are keyed by monomials
(weakly increasing letter tuples), not by positions in a basis, and the
pivots are least in the (degree, lex) order, which is the position order.
The flat-jet columns come in closed form from _flat_jet_columns, so the
stabilizers of the distinguished point and of its limits build no basis of
Sym^{<=k} C^n; a general wedge's positions are read back through its basis.

Graded systems: letter a of Sym^{<=k} C^n, n = sym_dim(p, k), is a monomial
of Sym^{<=k} C^p with exponent vector w(a) in N^p.  Flat-jet column s, and
every cut of it, is homogeneous of weight s, and Sym(E_{a<-b}) shifts weight
by w(a) - w(b), so row (P_i, q) of the system touches only the unknowns of
the one grade w(a) - w(b) = w(q) - s; the trace and twist rows touch the
diagonal grade, and the twist's span rows one unknown each.  The systems are
block diagonal: the stabilizer of a torus weight vector is torus-stable, hence
graded (the weight-space argument; Humphreys, Introduction to Lie Algebras and
Representation Theory).  ``exact.sparse_rank`` finds the blocks from the
rows' own supports, so a wedge with no grading is ranked the same way, and
the blocks are small: the largest has 8 of the 64 unknowns of the base
system at k = 8, and 19 of 361 at (p, k) = (3, 3).  The dimension is the
number of unknowns minus that rank, and a kernel basis is built only when
read.  The rows are built in integers (see _span_stabilizer).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter

from .exact import (
    Matrix,
    PolyRing,
    ResourceLimitError,
    Scalar,
    SparsePolynomial,
    add_into,
    integral,
    kernel_basis,
    primitive,
    rank,
    rat,
    sparse_rank,
)
from .embedding import WedgeVector, wedge_of_sparse_vectors
from .jets import group_matrix, symbolic_reparam
from .symbasis import (
    Exponent,
    Monomial,
    defect,
    defect_of_partition,
    orderings_count,
    partitions_of,
    sym_basis,
    sym_dim,
)

WEDGE_TERM_CEILING = 6000
# Largest span-stabilizer cost (_span_cost, in dense row cells) solved without
# --force, a conservative gate now that the rows are sparse: the ungated edges
# take under 0.5 s in a fresh process, stabilizer --k 17 0.36 s and 44 MB,
# codim-report --k 12 0.46 s, probe-p (2, 6) 0.18 s and (8, 2) 0.12 s.
SPAN_COST_CEILING = 25_000_000


@dataclass(frozen=True, order=True)
class EpsWeight:
    """Value a + b*eps with eps infinitesimal positive; lexicographic order."""

    a: Fraction
    b: Fraction = Fraction(0)

    @classmethod
    def of(cls, a, b=0) -> "EpsWeight":
        return cls(Fraction(a), Fraction(b))

    def __add__(self, other: "EpsWeight") -> "EpsWeight":
        return EpsWeight(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "EpsWeight") -> "EpsWeight":
        return EpsWeight(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "EpsWeight":
        return EpsWeight(-self.a, -self.b)

    def __mul__(self, c) -> "EpsWeight":
        c = Fraction(c)
        return EpsWeight(self.a * c, self.b * c)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}e"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}e"


ZERO_W = EpsWeight(Fraction(0))


@dataclass(frozen=True)
class OneParamSubgroup:
    """Diagonal one-parameter subgroup, encoded by its weight vector."""

    weights: tuple[EpsWeight, ...]

    @property
    def k(self) -> int:
        return len(self.weights)


def lambda_sigma(sigma: int, k: int, eps: Fraction | None = None) -> OneParamSubgroup:
    """Regular distinguished subgroup: weight i - floor(i/sigma)*eps."""
    if not 2 <= sigma <= k:
        raise ValueError("need 2 <= sigma <= k")
    if eps is None:
        ws = [EpsWeight.of(i, -defect(sigma, i)) for i in range(1, k + 1)]
    else:
        ws = [EpsWeight.of(Fraction(i) - defect(sigma, i) * Fraction(eps)) for i in range(1, k + 1)]
    return OneParamSubgroup(tuple(ws))


def mu_sigma(sigma: int, k: int, eps: Fraction | None = None) -> OneParamSubgroup:
    """Degenerate distinguished subgroup: weight i except sigma + eps at sigma."""
    if not 2 <= sigma <= k - 1:
        raise ValueError("need 2 <= sigma <= k-1")
    ws = []
    for i in range(1, k + 1):
        if i != sigma:
            ws.append(EpsWeight.of(i))
        elif eps is None:
            ws.append(EpsWeight.of(sigma, 1))
        else:
            ws.append(EpsWeight.of(Fraction(sigma) + Fraction(eps)))
    return OneParamSubgroup(tuple(ws))


def _position_weights(
    lam: OneParamSubgroup, monomials: list[Monomial]
) -> tuple[list[int], list[int]]:
    """a- and b-parts of each monomial's weight under lam, scaled to integers
    together by ``exact.integral`` (its scale is positive, so it keeps the order)."""
    ints, _ = integral([x for wt in lam.weights for x in (wt.a, wt.b)])
    la, lb = ints[0::2], ints[1::2]
    pa = [sum(la[i - 1] for i in m) for m in monomials]
    pb = [sum(lb[i - 1] for i in m) for m in monomials]
    return pa, pb


def _minimal_weight_parts(lam: OneParamSubgroup, k: int) -> Iterator[list[Monomial]]:
    """Per degree i = 1..k, the partitions of i of minimal weight under lam.
    Column i of the flat jet (p = 1) has a nonzero entry at every partition
    of i and nowhere else, so the columns cut to these parts wedge to the
    limit of the distinguished point."""
    for i in range(1, k + 1):
        parts = partitions_of(i)
        weights = list(zip(*_position_weights(lam, parts)))
        best = min(weights)
        yield [m for m, wt in zip(parts, weights) if wt == best]


def _position(m: Monomial) -> tuple[int, Monomial]:
    """Sort key of the position order of a Sym basis: degree, then lex."""
    return len(m), m


def _flat_jet_columns(p: int, k: int) -> list[dict[Monomial, int]]:
    """The columns of phi(flat_jet(p, k)), keyed by monomials in the domain
    letters: letter j is the j-th monomial of Sym^{<=k} C^p.  Column s holds
    every multiset m of letters whose exponent vectors sum to s, with
    coefficient orderings_count(m), phi's ordered tuples grouped; for p = 1
    these are the partitions of s.  Each column is in position order."""
    exps = sym_basis(p, k).exponents
    col_of = {e: j for j, e in enumerate(exps)}
    degree = [sum(e) for e in exps]  # nondecreasing: the basis is in degree blocks
    columns: list[dict[Monomial, int]] = [{} for _ in exps]

    def extend(m: Monomial, total: Exponent, deg: int) -> None:
        for j in range(m[-1] - 1 if m else 0, len(exps)):  # letters in nondecreasing order
            if deg + degree[j] > k:
                break
            grown, s = m + (j + 1,), tuple(map(add, total, exps[j]))
            columns[col_of[s]][grown] = orderings_count(grown)
            extend(grown, s, deg + degree[j])

    extend((), (0,) * p, 0)
    return [{m: col[m] for m in sorted(col, key=_position)} for col in columns]


def _cut(parts_by_degree: Iterable[list[Monomial]]) -> list[dict[Monomial, int]]:
    """Flat-jet columns (p = 1), column i cut to the given partitions of i:
    the entry at a partition m is orderings_count(m), so no full column is built."""
    return [{m: orderings_count(m) for m in parts} for parts in parts_by_degree]


def _cut_columns(k: int, parts_by_degree: Iterable[list[Monomial]]) -> list[dict[int, int]]:
    """The cut flat-jet columns (p = 1), keyed by positions for the wedge."""
    position = sym_basis(k, k).position
    return [{position[m]: c for m, c in col.items()} for col in _cut(parts_by_degree)]


def limit_point(w: WedgeVector, lam: OneParamSubgroup) -> WedgeVector:
    """The projective limit of lam(t).w as t -> 0: the minimal-weight part.

    Every expanded term's total weight is the sum of its factor weights; the
    terms achieving the minimum survive with their original coefficients.
    Weights are integer pairs (a, b) for a + b*eps, scaled by
    ``exact.integral``, one per basis position; tuple order is the Q + Q*eps
    order.
    """
    if w.is_zero():
        raise ValueError("limit of the zero vector")
    pa, pb = _position_weights(lam, w.basis().monomials)
    totals = {f: (sum(map(pa.__getitem__, f)), sum(map(pb.__getitem__, f))) for f in w.terms}
    best = min(totals.values())
    return WedgeVector(w.n, w.k, w.r, {f: c for f, c in w.terms.items() if totals[f] == best})


def _wedge_of_parts(k: int, parts_by_degree: Iterable[list[Monomial]], force: bool) -> WedgeVector:
    """The wedge of the flat-jet columns cut to the given parts.  Their
    supports are disjoint, so it has exactly the product of the part counts
    as terms.  The product only grows degree by degree, so unless force it
    raises ResourceLimitError at the first degree where it passes
    WEDGE_TERM_CEILING, before any basis is built."""
    kept, terms = [], 1
    for parts in parts_by_degree:
        kept.append(parts)
        terms *= len(parts)
        if terms > WEDGE_TERM_CEILING and not force:
            raise ResourceLimitError(
                f"wedge of at least {terms} terms exceeds ceiling {WEDGE_TERM_CEILING}")
    return wedge_of_sparse_vectors(k, k, _cut_columns(k, kept))


def _subgroup(sigma: int, k: int, kind: str, eps: Fraction | None = None) -> OneParamSubgroup:
    """lambda_sigma for kind "lambda", mu_sigma for kind "mu"."""
    if kind not in ("lambda", "mu"):
        raise ValueError(f"kind must be lambda or mu, got {kind!r}")
    return lambda_sigma(sigma, k, eps) if kind == "lambda" else mu_sigma(sigma, k, eps)


def z_closed_form(sigma: int, k: int, kind: str, force: bool = False) -> WedgeVector:
    """Per-degree closed form of the limit point, by partition filtering.

    lambda: keep degree-i partitions of maximal defect (= defect of i);
    mu: keep partitions avoiding sigma as a part.  Coefficients are
    inherited from the distinguished point, so the result must equal the
    limit exactly (a verified theorem, not a definition).
    """
    _subgroup(sigma, k, kind)  # validates sigma and kind
    return _wedge_of_parts(k, _closed_form_parts(sigma, k, kind), force)


def _closed_form_parts(sigma: int, k: int, kind: str) -> Iterator[list[Monomial]]:
    """Per degree i = 1..k, the partitions of i that z_closed_form keeps."""
    for i in range(1, k + 1):
        if kind == "lambda":
            yield [m for m in partitions_of(i) if defect_of_partition(sigma, m) == defect(sigma, i)]
        else:
            yield [m for m in partitions_of(i) if sigma not in m]


def limit_of_distinguished(sigma: int, k: int, kind: str, eps: Fraction | None = None,
                           force: bool = False) -> WedgeVector:
    """Limit of the distinguished point under the (sigma, kind) subgroup, as
    the wedge of the minimal-weight columns; numeric eps substitutes a
    rational for the formal symbol."""
    return _wedge_of_parts(k, _minimal_weight_parts(_subgroup(sigma, k, kind, eps), k), force)


def closed_form_matches_limit(sigma: int, k: int, kind: str) -> bool:
    """Whether z_closed_form equals limit_of_distinguished: with disjoint
    supports, equal wedges means equal column cuts, so no wedge is expanded."""
    lam = _subgroup(sigma, k, kind)
    return list(_closed_form_parts(sigma, k, kind)) == list(_minimal_weight_parts(lam, k))


# -- infinitesimal stabilizers ---------------------------------------------


@dataclass
class TwistedPoint:
    """w^(ox a) ox (twist line)^(ox b), the affine-embedding coordinates.

    twist_dim p selects the line e_1 ^ ... ^ e_p (p = 1: the vector e_1).
    """

    wedge: WedgeVector
    a: int = 1
    b: int = 0
    twist_dim: int = 1

    def __post_init__(self):
        if self.a < 1 or self.b < 0:
            raise ValueError("need a >= 1 and b >= 0")


@dataclass
class StabilizerResult:
    """The dimension, ncols minus the rank of the sparse system kept: rows of
    (unknown, coefficient) pairs, X's n^2 entries row-major first.  The basis
    is computed from it on first read."""

    dimension: int
    n: int
    rows: list[tuple[tuple[int, Scalar], ...]] = field(repr=False)
    ncols: int

    @cached_property
    def basis(self) -> list[Matrix]:
        dense = [[0] * self.ncols for _ in self.rows]
        for row, pairs in zip(dense, self.rows):
            for j, c in pairs:
                row[j] = c
        return [_reshape(vec[: self.n**2], self.n) for vec in kernel_basis(dense, self.ncols)]


def _span_stabilizer(n: int, vectors: list[dict[Monomial, Scalar]], algebra: str, mode: str,
                     twist: tuple[Fraction, int] | None = None) -> StabilizerResult:
    """Stabilizer of the wedge of sparse vectors over Sym^{<=k} C^n, keyed by
    monomials, solved on their span V (module docstring); twist = (b/a, p) as
    in TwistedPoint.

    The reduced vectors are scaled together to integers u_i = D v_i by
    ``integral``, so every residual is computed in ints as D^2 times the
    residual of v_i, and the trace as D times tr(X|V): each row of the system
    is scaled by a constant, which keeps its kernel.  E_{a<-b} replaces one
    letter b by a, times the multiplicity of b, so a letter index (b ->
    pivot, term with one b removed, multiplicity times coefficient) is built
    once, and each unknown touches only the terms that hold its b.  Every
    row is (unknown, coefficient) pairs; the residual rows, taken to their
    primitive parts, drop repeats up to scale, which keeps the kernel."""
    if algebra not in ("sl", "gl") or mode not in ("affine", "projective"):
        raise ValueError("algebra must be sl or gl, and mode affine or projective")
    if not all(vectors):
        raise ValueError("stabilizer of the zero vector")
    pivots = [min(v, key=_position) for v in vectors]  # each in its own vector only (docstring)
    if sum(piv in u for piv in pivots for u in vectors) > len(vectors):
        raise ValueError("the spanning vectors are not in reduced echelon form")
    ints, scale = integral([rat(c) / v[piv] for piv, v in zip(pivots, vectors) for c in v.values()])
    ints = iter(ints)
    reduced = {piv: {m: next(ints) for m in v} for piv, v in zip(pivots, vectors)}
    by_letter: dict[int, list[tuple[Monomial, Monomial, int]]] = {}
    for piv, u in reduced.items():
        for m, c in u.items():
            for i, b in enumerate(m):
                if i == 0 or m[i - 1] != b:  # first occurrence of b
                    mult = bisect.bisect_right(m, b, i) - i
                    by_letter.setdefault(b, []).append((piv, m[:i] + m[i + 1:], mult * c))
    unknowns = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]  # X, row-major
    rows: dict[tuple[Monomial, Monomial], dict[int, int]] = {}  # (P_i, q) -> unknown -> coefficient
    trace: dict[int, Scalar] = {}  # D tr(X|V) = sum_i (Sym(X) u_i)[P_i], a row over the unknowns
    for j, (a, b) in enumerate(unknowns):
        for piv, terms in itertools.groupby(by_letter.get(b, ()), itemgetter(0)):
            image = {}  # Sym(E_{a<-b}) u, without collisions
            for _, rest, c in terms:
                i = bisect.bisect_left(rest, a)
                image[rest[:i] + (a,) + rest[i:]] = c
            residual = {q: scale * c for q, c in image.items()}  # D (image minus its projection onto V)
            for q, c in image.items():
                if q in reduced:
                    add_into(residual, reduced[q], -c)
            if piv in image:
                trace[j] = trace.get(j, 0) + image[piv]
            for q, c in residual.items():
                rows.setdefault((piv, q), {})[j] = c
    diagonal = range(0, n * n, n + 1)  # the unknowns X_aa
    ncols = n * n + (mode == "projective")
    spans = []  # X e_j in span(e_1..e_p): one unknown each
    if mode == "projective":  # the scalar unknown c: tr(X|V) - c = 0
        trace[n * n] = -scale
    elif twist is not None:  # a tr(X|V) + b sum_{j<=p} X_jj = 0, and X keeps span(e_1..e_p)
        ratio, p = twist
        for j in diagonal[:p]:
            trace[j] = trace.get(j, 0) + scale * ratio
        spans = [(((a - 1) * n + j - 1, 1),) for j in range(1, p + 1) for a in range(p + 1, n + 1)]
    sl = [tuple((j, 1) for j in diagonal)] if algebra == "sl" else []  # tr X = 0
    system = list(dict.fromkeys(primitive(tuple(row.items())) for row in rows.values()))
    system += [tuple(trace.items()), *spans, *sl]
    return StabilizerResult(ncols - sparse_rank(system, ncols), n, system, ncols)


def _decompose(w: WedgeVector) -> list[dict[int, Fraction]]:
    """Vectors v_1..v_r with w = w[I] v_1 ^ ... ^ v_r, for I the first term:
    v_s is 1 at i_s, 0 at the rest of I, and (-1)^(s-t) w[J]/w[I] at j, for
    J = I with i_s replaced by j at place t of J.  The product is expanded
    again, so a wedge that is not decomposable raises ValueError."""
    if w.is_zero():
        raise ValueError("stabilizer of the zero vector")
    first = min(w.terms)
    inv = 1 / w.terms[first]
    vectors = [{pos: Fraction(1)} for pos in first]
    for J, c in w.terms.items():
        new = set(J).difference(first)
        if len(new) == 1:
            (j,) = new
            (s,) = (i for i, pos in enumerate(first) if pos not in J)
            vectors[s][j] = -c * inv if (s - J.index(j)) % 2 else c * inv
    if wedge_of_sparse_vectors(w.n, w.k, vectors) != w.scaled(inv):
        raise ValueError("the wedge is not decomposable")
    return vectors


def infinitesimal_stabilizer(target: WedgeVector | TwistedPoint, algebra: str = "sl",
                             mode: str = "affine") -> StabilizerResult:
    """Dimension and basis of the Lie-algebra stabilizer of a wedge point.

    affine solves X.w = 0; projective solves X.w in span(w) via one scalar
    unknown (the scalar is determined by X, so the joint kernel dimension is
    the stabilizer dimension).  The wedge must be decomposable: the span
    system of the module docstring is solved on the span read off its
    Plucker coordinates.  Twisted points use only the affine mode.
    """
    twist = None
    if isinstance(target, TwistedPoint):
        if mode != "affine":
            raise ValueError("twisted points use the affine mode")
        twist = (Fraction(target.b, target.a), target.twist_dim)
        target = target.wedge
    monomials = target.basis().monomials
    vectors = [{monomials[pos]: c for pos, c in v.items()} for v in _decompose(target)]
    return _span_stabilizer(target.n, vectors, algebra, mode, twist)


def _reshape(entries: list[Fraction], n: int) -> Matrix:
    return Matrix([entries[i * n : (i + 1) * n] for i in range(n)])  # unknowns are row-major


# -- limit of the stabilizer group ------------------------------------------


class NegativePowerError(RuntimeError):
    """A substituted entry acquired a negative power of t, contradicting the
    polynomiality of the substituted stabilizer family."""


@dataclass
class LimitStabilizerMatrix:
    """Entrywise t -> 0 limit of the conjugated stabilizer family.

    entries[i][j] is a polynomial in b1..bk (b1 invertible on the group);
    n_exponents ledgers the substitution exponents used per parameter.
    """

    sigma: int
    k: int
    ring: PolyRing
    entries: list[list[SparsePolynomial]]
    n_exponents: list[EpsWeight]


def n_sigma_exponents(sigma: int, k: int) -> list[EpsWeight]:
    """n_i = max_j (lambda_{j+i-1} - lambda_j), with n_1 = 0."""
    lam = lambda_sigma(sigma, k)
    out = []
    for i in range(1, k + 1):
        candidates = [
            lam.weights[j + i - 2] - lam.weights[j - 1] for j in range(1, k - i + 2)
        ]
        out.append(max(candidates))
    return out


def limit_stabilizer_matrix(sigma: int, k: int) -> LimitStabilizerMatrix:
    """Conjugate the stabilizer family by the distinguished subgroup,
    substitute b_i = t^(-n_i) a_i, verify polynomiality in t, take t -> 0.

    Entry (i, j) of the conjugated family is t^(lambda_i - lambda_j) times
    entry (i, j) of the group matrix, read off the composition oracle.  After
    the substitution its term prod_s a_s^(e_s) carries t to the power
    lambda_i - lambda_j + sum_s e_s n_s, which must be >= 0; the terms of
    power zero survive, with b_s in place of a_s.
    """
    if not 2 <= sigma <= k:
        raise ValueError("need 2 <= sigma <= k")
    lam = lambda_sigma(sigma, k)
    ns = n_sigma_exponents(sigma, k)
    ring = PolyRing([f"b{i}" for i in range(1, k + 1)])
    g = group_matrix(symbolic_reparam(1, k)[0])
    entries = []
    for i in range(k):
        row = [ring.zero()] * i  # the group matrix is upper triangular
        for j in range(i, k):
            kept = {}
            for exp, c in g.data[i][j].terms.items():
                expo = lam.weights[i] - lam.weights[j]
                for e, n_s in zip(exp, ns):
                    expo = expo + n_s * e
                if expo < ZERO_W:
                    raise NegativePowerError(f"entry ({i + 1},{j + 1}) term {exp} has t-power {expo}")
                if expo.is_zero():
                    kept[exp] = c
            row.append(ring.poly(kept))
        entries.append(row)
    return LimitStabilizerMatrix(sigma=sigma, k=k, ring=ring, entries=entries, n_exponents=ns)


# -- extra stabilizing transformations --------------------------------------


def extra_stabilizer_case(sigma: int, k: int) -> int:
    """1: sigma = k; 2: sigma < k, k not = -1 mod sigma; 3: the remainder
    case, which needs k >= 4."""
    if not 2 <= sigma <= k:
        raise ValueError("need 2 <= sigma <= k")
    if sigma == k:
        return 1
    if k % sigma != sigma - 1:
        return 2
    if k < 4:
        raise ValueError("the residual case requires k >= 4")
    return 3


def extra_stabilizer(sigma: int, k: int, zeta: Fraction = Fraction(1)) -> Matrix:
    """The extra unipotent transformation fixing the regular limit point.

    Case 1 adds zeta*e_k to e_{k-1}; case 2 adds zeta*e_sigma to e_k; case 3
    adds zeta*e_sigma to e_{k-1} and zeta*e_{sigma+1} to e_k.
    """
    case = extra_stabilizer_case(sigma, k)
    m = Matrix.identity(k)
    if case == 1:
        m.data[k - 1][k - 2] = rat(zeta)  # column k-1 gains a row-k entry
    elif case == 2:
        m.data[sigma - 1][k - 1] = rat(zeta)
    else:
        m.data[sigma - 1][k - 2] = rat(zeta)
        m.data[sigma][k - 1] = rat(zeta)
    return m


# -- Hilbert-Mumford torus criterion -----------------------------------------


def hilbert_mumford_torus(weights: list[tuple[int, ...]]) -> str:
    """Exact torus (semi)stability from the weight polytope, by two exact
    feasibility problems, phase one of the simplex.

    semistable: 0 is a convex combination of the weights, P c = 0, sum_i c_i
    = 1, c >= 0 for P the d x m matrix of weights p_i; stable: the weights
    span Q^d and some c > 0 has P c = 0, i.e. 0 is interior.  Such a c scales
    to smallest entry 1, so c = 1 + s with P s = -sum_i p_i and s >= 0.
    """
    if not weights:
        raise ValueError("empty weight list")
    d = len(weights[0])
    if any(len(w) != d for w in weights):
        raise ValueError("mixed dimensions")
    pts = [tuple(Fraction(x) for x in w) for w in weights]
    rows = [list(coord) for coord in zip(*pts)]  # P
    if not _feasible([*rows, [Fraction(1)] * len(pts)], [Fraction(0)] * d + [Fraction(1)]):
        return "unstable"
    if rank(pts) == d and _feasible(rows, [-sum(row) for row in rows]):
        return "stable"
    return "semistable-not-stable"


def _feasible(a: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Whether A x = b has a solution x >= 0: phase one of the exact simplex.

    Row i, negated where b_i < 0, starts with its own artificial variable in
    the basis, and the sum of the artificials is minimized with Bland's rule
    (least entering index, then least leaving basis index among tied ratios),
    which terminates; the system is feasible iff the minimum is 0.  An
    artificial that leaves the basis is never needed again, so the tableau
    holds only A and b.  The objective is bounded below by 0: a column of
    negative reduced cost has a positive entry in an artificial's row, so
    some row always leaves.  An empty system is feasible.
    """
    n = len(a[0]) if a else 0
    tab = [[-x for x in row] + [-c] if c < 0 else [*row, c] for row, c in zip(a, b)]
    basis = [n + i for i in range(len(tab))]  # the artificials are n, n + 1, ...
    while True:
        art = [row for row, j in zip(tab, basis) if j >= n]
        # column j's reduced cost is minus its sum over the artificials' rows
        entering = next((j for j in range(n) if sum(row[j] for row in art) > 0), None)
        if entering is None:
            return not any(row[-1] for row in art)
        i = min((i for i, row in enumerate(tab) if row[entering] > 0),
                key=lambda i: (tab[i][-1] / tab[i][entering], basis[i]))
        pivot = [x / tab[i][entering] for x in tab[i]]
        for r, row in enumerate(tab):
            if f := row[entering]:
                tab[r] = pivot if r == i else [x - f * y for x, y in zip(row, pivot)]
        basis[i] = entering


# -- reports -----------------------------------------------------------------


def twist_exponent(p: int, k: int, M: int) -> int:
    """K = M * sum_i i * dim Sym^i C^p + 1, for M >= 1."""
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    total = sum(i * math.comb(p + i - 1, i) for i in range(1, k + 1))
    return M * total + 1


def distinguished_stabilizer(p: int, k: int, M: int = 1, force: bool = False) -> StabilizerResult:
    """sl stabilizer of the twisted distinguished point, TwistedPoint(p_point(p,
    k), 1, twist_exponent(p, k, M), p), solved on the span of the flat-jet
    columns without expanding p_point."""
    if p < 1 or k < 1:
        raise ValueError("need p >= 1 and k >= 1")
    twist = (Fraction(twist_exponent(p, k, M)), p)
    _check_span_cost(_span_cost(p, k), force)
    return _span_stabilizer(sym_dim(p, k), _flat_jet_columns(p, k), "sl", "affine", twist)


def _span_cost(p: int, k: int) -> int:
    """Estimated cells of the span system of the flat jet (p, k), written
    dense.  Each entry of the letter index gives one image, and so one dense
    row n^2 cells wide, per letter a; there are E entries, one
    per distinct letter of each support term.  A term holding a letter of
    degree d is that letter times any multiset of degree <= k - d, so E =
    sum_d m_d S(k - d), with m_d letters of degree d and S(j) the multisets
    of degree <= j, counted by prod_d (1 - x^d)^(-m_d).  The 12 p n^3 term
    priced p n - 1 kernel vectors of n^2 Fractions, no longer built: the
    estimate over-counts the sparse rows and stays as a conservative gate."""
    n = sym_dim(p, k)
    counts = [1] + [0] * k  # multisets of letters by total degree
    for d in range(1, k + 1):
        m = math.comb(p + d - 1, d)
        counts = [sum(math.comb(m + i - 1, i) * counts[j - d * i] for i in range(j // d + 1))
                  for j in range(k + 1)]
    at_most = list(itertools.accumulate(counts))
    entries = sum(math.comb(p + d - 1, d) * at_most[k - d] for d in range(1, k + 1))
    return (entries + 12 * p) * n**3


def _check_span_cost(cost: int, force: bool) -> None:
    if cost > SPAN_COST_CEILING and not force:
        raise ResourceLimitError(f"span stabilizer cost {cost} exceeds ceiling {SPAN_COST_CEILING}")


def codim_report(k: int, M: int = 1, force: bool = False) -> dict:
    """Stabilizer dimensions of the distinguished point and of every
    candidate boundary limit, with the codimension-two verdict per candidate.

    The open orbit has dimension (k^2 - 1) - (k - 1); a boundary candidate
    with projective stabilizer dimension s spans an orbit of codimension
    s - (k - 1), so the bound holds iff s >= k + 1.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    K = twist_exponent(1, k, M)
    specs = [("lambda", s) for s in range(2, k + 1)]
    specs += [("mu", s) for s in range(2, k)]
    _check_span_cost((1 + len(specs)) * _span_cost(1, k), force)  # a cut column has fewer terms
    base = _span_stabilizer(k, _flat_jet_columns(1, k), "sl", "affine", (Fraction(K), 1))
    candidates = []
    for kind, sigma in specs:
        stab = _span_stabilizer(k, _cut(_closed_form_parts(sigma, k, kind)), "sl", "projective")
        codim = stab.dimension - (k - 1)
        candidates.append(
            {
                "kind": kind,
                "sigma": sigma,
                "proj_stab_dim": stab.dimension,
                "orbit_codim": codim,
                "bound_ok": stab.dimension >= k + 1,
            }
        )
    return {
        "k": k,
        "M": M,
        "K": K,
        "base_stabilizer_dim": base.dimension,
        "base_stabilizer_expected": k - 1,
        "open_orbit_dim": (k * k - 1) - (k - 1),
        "candidates": candidates,
        "all_bounds_ok": all(c["bound_ok"] for c in candidates),
    }


def probe_stabilizer_conjecture(p: int, k: int, M: int = 1, force: bool = False) -> dict:
    """Measure the special-linear stabilizer dimension of the distinguished
    twisted point for surfaces and report it against the predicted value
    p * sym^{<=k}(p) - 1.  Exploratory: a mismatch is reported, not raised.
    """
    res = distinguished_stabilizer(p, k, M, force=force)
    n = sym_dim(p, k)
    predicted = p * n - 1
    return {
        "p": p,
        "k": k,
        "M": M,
        "K": twist_exponent(p, k, M),
        "n": n,
        "measured_dim": res.dimension,
        "predicted_dim": predicted,
        "match": res.dimension == predicted,
    }
