"""The embedding of jets into homomorphisms to the truncated symmetric
algebra, the distinguished wedge points, and sparse exterior algebra.

Column s of the embedded matrix collects, over all ordered tuples of nonzero
multi-indices (s_1, ..., s_j) with s_1 + ... + s_j = s, the symmetric product
of the corresponding jet coefficients.  With multiset grouping this puts the
number-of-orderings factor on each product, which is the convention forced by
the worked small cases and preserved by the right-action equivariance law

    phi(compose(gamma, psi)) = phi(gamma) @ group_matrix(psi).

Elements of Sym^{<=k} C^n are exponent-keyed while they are multiplied:
Sym C^n is the polynomial ring in n letters, so the shared truncated
``exact.sparse_product`` multiplies them, and only finished columns and
images are re-keyed to positions in the ordered Sym basis.  Wedge factors
stay basis positions.

Wedge vectors are kept sparse: a term is a strictly increasing tuple of
positions into the ordered basis of Sym^{<=k} C^n, and every expansion routine
sign-normalizes as it inserts factors.  Dense exterior powers are never built.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import sub

from .exact import Matrix, divided, integral, rat, rat_str, row_space_basis, sparse_product
from .jets import JetMap, flat_jet
from .symbasis import Exponent, Monomial, SymBasis, sym_basis


@lru_cache(maxsize=None)
def _unit_exponents(n: int) -> tuple[Exponent, ...]:
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def _vector_to_sym(vec, n: int) -> dict[Exponent, object]:
    """A vector in C^n as a degree-1 element of the symmetric algebra."""
    return {e: c for e, c in zip(_unit_exponents(n), vec) if c}


@dataclass
class PhiMatrix:
    """Hom(C^{sym<=k}(p), Sym^{<=k} C^n) with columns indexed by the domain basis.

    columns[i] is a sparse map from row position (into the Sym basis of C^n)
    to the coefficient; column i corresponds to domain multi-index col_index[i].
    """

    n: int
    k: int
    p: int
    col_index: list[Exponent]
    columns: list[dict[int, object]]
    basis: SymBasis = field(repr=False)

    def dense(self) -> Matrix:
        rows = len(self.basis)
        data = [
            [self.columns[c].get(r, Fraction(0)) for c in range(len(self.columns))]
            for r in range(rows)
        ]
        return Matrix(data)

    def submatrix(self, row_positions: list[int], cols: list[int]) -> Matrix:
        return Matrix(
            [[self.columns[c].get(r, Fraction(0)) for c in cols] for r in row_positions]
        )

    def columns_of_degree_at_most(self, d: int) -> list[int]:
        return [i for i, s in enumerate(self.col_index) if sum(s) <= d]


def phi(gamma: JetMap) -> PhiMatrix:
    """Embed a jet as the matrix whose degree-d column sums coefficient
    products over ordered decompositions of d.

    Columns are built by the first-piece recursion
    C_s = gamma_s + sum_{0 < s' < s} gamma_{s'} * C_{s - s'},
    which enumerates ordered tuples exactly once.

    The recursion runs in integers, on D * gamma from ``JetMap.integral``.
    An entry in row m is a sum of products of |m| jet coefficients, one per
    letter of m, so phi(D * gamma)[row m] = D^|m| * phi(gamma)[row m], and
    each finished entry is divided once, by D^|m|.
    """
    p, n, k = gamma.p, gamma.q, gamma.k
    basis = sym_basis(n, k)
    domain = sym_basis(p, k)
    scaled, d = gamma.integral()
    heads = {s1: _vector_to_sym(vec, n) for s1, vec in scaled.coeffs.items()}
    cols_by_exp: dict[Exponent, dict[Exponent, object]] = {}
    for s in domain.exponents:
        acc = dict(heads.get(s, {}))
        for s1, head in heads.items():
            rest = tuple(map(sub, s, s1))
            if min(rest) < 0 or not any(rest):
                continue
            tail = cols_by_exp.get(rest)
            if not tail:
                continue
            for e, c in sparse_product(head, tail).items():
                cur = acc.get(e)
                val = c if cur is None else cur + c
                if val:
                    acc[e] = val
                elif cur is not None:
                    del acc[e]
        cols_by_exp[s] = acc
    col_index = list(domain.exponents)
    position = basis.exponent_position
    powers = [d**r for r in range(k + 1)]
    columns = [{position[e]: divided(c, powers[sum(e)]) for e, c in cols_by_exp[s].items()}
               for s in col_index]
    return PhiMatrix(n=n, k=k, p=p, col_index=col_index, columns=columns, basis=basis)


@dataclass
class WedgeVector:
    """Sparse element of the r-th exterior power of Sym^{<=k} C^n.

    Terms map strictly increasing position tuples to rational coefficients;
    the zero vector is the empty map.
    """

    n: int
    k: int
    r: int
    terms: dict[tuple[int, ...], Fraction]

    def basis(self) -> SymBasis:
        return sym_basis(self.n, self.k)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WedgeVector):
            return NotImplemented
        return (
            (self.n, self.k, self.r) == (other.n, other.k, other.r)
            and self.terms == other.terms
        )

    def scaled(self, c: Fraction) -> "WedgeVector":
        if c == 0:
            return WedgeVector(self.n, self.k, self.r, {})
        return WedgeVector(self.n, self.k, self.r, {t: v * c for t, v in self.terms.items()})

    def add(self, other: "WedgeVector") -> "WedgeVector":
        out = dict(self.terms)
        for t, c in other.terms.items():
            s = out.get(t, Fraction(0)) + c
            if s:
                out[t] = s
            else:
                out.pop(t, None)
        return WedgeVector(self.n, self.k, self.r, out)

    def proportional_to(self, other: "WedgeVector") -> Fraction | None:
        """The scalar c with self = c * other, if one exists (None otherwise)."""
        if self.is_zero():
            return Fraction(0)
        if other.is_zero() or set(self.terms) != set(other.terms):
            return None
        t0 = next(iter(self.terms))
        c = self.terms[t0] / other.terms[t0]
        for t, v in self.terms.items():
            if v != c * other.terms[t]:
                return None
        return c

    def to_json(self) -> dict:
        """Factors are the basis's own monomial tuples; one string per
        coefficient object, which wedge_of_sparse_vectors shares per value."""
        monomials = self.basis().monomials
        distinct = {id(c): c for c in self.terms.values()}
        coeff_str = {i: rat_str(c) for i, c in distinct.items()}
        terms = [
            {"factors": [monomials[pos] for pos in t], "coeff": coeff_str[id(self.terms[t])]}
            for t in sorted(self.terms)
        ]
        return {"n": self.n, "k": self.k, "r": self.r, "terms": terms}

    @classmethod
    def from_json(cls, obj: dict) -> "WedgeVector":
        n, k, r = int(obj["n"]), int(obj["k"]), int(obj["r"])
        basis = sym_basis(n, k)
        terms = {}
        for item in obj["terms"]:
            pos = tuple(basis.index_of(tuple(f)) for f in item["factors"])
            terms[pos] = rat(Fraction(item["coeff"]))
        return cls(n, k, r, terms)


def _wedge_insert(factors: tuple[int, ...], pos: int) -> tuple[tuple[int, ...], int] | None:
    """Insert a factor position, keeping the tuple strictly increasing.

    Returns (new tuple, sign) or None if the factor already occurs.
    """
    lo = bisect.bisect_left(factors, pos)
    if lo < len(factors) and factors[lo] == pos:
        return None
    sign = -1 if (len(factors) - lo) % 2 else 1
    return factors[:lo] + (pos,) + factors[lo:], sign


def wedge_of_sparse_vectors(
    n: int, k: int, vectors: list[dict[int, Fraction]]
) -> WedgeVector:
    """Exterior product of sparse rational vectors over the Sym basis,
    sign-normalized.  Each vector is scaled to integers by ``exact.integral``;
    the product of the scales is divided out once at the end."""
    terms: dict[tuple[int, ...], int] = {(): 1}
    scale = 1
    for vec in vectors:
        ints, d = integral(list(vec.values()))
        ivec = list(zip(vec, ints))
        scale *= d
        nxt: dict[tuple[int, ...], int] = {}
        for factors, c in terms.items():
            for pos, v in ivec:
                ins = _wedge_insert(factors, pos)
                if ins is None:
                    continue
                newf, sign = ins
                val = nxt.get(newf, 0) + (c * v if sign > 0 else -c * v)
                if val:
                    nxt[newf] = val
                else:
                    nxt.pop(newf, None)
        terms = nxt
        if not terms:
            break
    shared: dict[int, Fraction] = {}  # few distinct values; one immutable Fraction each
    for t, c in terms.items():
        terms[t] = shared.get(c) or shared.setdefault(c, Fraction(c, scale))
    return WedgeVector(n, k, len(vectors), terms)


def wedge_columns(m: PhiMatrix, column_subset: list[int] | None = None) -> WedgeVector:
    """Exterior product of the selected columns (all columns by default)."""
    cols = list(range(len(m.columns))) if column_subset is None else list(column_subset)
    if len(set(cols)) != len(cols):
        raise ValueError("columns must be distinct")
    vectors = [m.columns[c] for c in cols]
    return wedge_of_sparse_vectors(m.n, m.k, vectors)


def p_point(p: int, k: int) -> WedgeVector:
    """The distinguished wedge point: full column wedge at the flat jet.

    Ambient dimension is n = sym^{<=k}(p); for p = 1 this is the point whose
    special-linear stabilizer is the unipotent reparametrization group.
    """
    return wedge_columns(phi(flat_jet(p, k)))


def in_affine_chart(w: WedgeVector) -> bool:
    """True iff some term uses only degree-1 factors (projection to the top
    cell of the wedge of the linear block is nonzero)."""
    basis = w.basis()
    for t in w.terms:
        if all(basis.degree_of(pos) == 1 for pos in t):
            return True
    return False


def flag_spans(m: PhiMatrix) -> list[list[list[Fraction]]]:
    """For each degree d <= k, a basis of the span of columns of degree <= d.

    Each basis is a list of dense coordinate vectors over the Sym basis.
    Rational matrices only.
    """
    nrows = len(m.basis)
    out = []
    for d in range(1, m.k + 1):
        vectors = [[m.columns[c].get(rpos, Fraction(0)) for rpos in range(nrows)]
                   for c in m.columns_of_degree_at_most(d)]
        out.append(row_space_basis(vectors))
    return out


# -- induced group actions -------------------------------------------------


def sym_image_of_monomial(g: Matrix, m: Monomial, n: int) -> dict[Exponent, object]:
    """Image of a basis monomial under the multiplicative action of g on C^n,
    keyed by exponent vector.

    g acts by columns: e_j maps to sum_i g[i][j] e_i, extended as an algebra
    map to products of letters.
    """
    out: dict[Exponent, object] = {(0,) * n: Fraction(1)}
    for letter in m:
        out = sparse_product(out, _vector_to_sym([row[letter - 1] for row in g.data], n))
    return out


def apply_group_to_wedge(g: Matrix, w: WedgeVector) -> WedgeVector:
    """Natural action of g in GL(n) on the wedge, factor by factor."""
    basis = w.basis()
    if g.rows != w.n or g.cols != w.n:
        raise ValueError("matrix size must match the ambient dimension")
    image_cache: dict[int, dict[int, Fraction]] = {}

    def factor_image(pos: int) -> dict[int, Fraction]:
        got = image_cache.get(pos)
        if got is None:
            mono = basis.monomial_at(pos)
            img = sym_image_of_monomial(g, mono, w.n)
            got = {basis.exponent_position[e]: c for e, c in img.items()}
            image_cache[pos] = got
        return got

    total = WedgeVector(w.n, w.k, w.r, {})
    for factors, coeff in w.terms.items():
        piece = wedge_of_sparse_vectors(w.n, w.k, [factor_image(pos) for pos in factors])
        total = total.add(piece.scaled(coeff))
    return total

