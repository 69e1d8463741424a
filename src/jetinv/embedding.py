"""The embedding of jets into homomorphisms to the truncated symmetric
algebra, the distinguished wedge points, and sparse exterior algebra.

Column s of the embedded matrix collects, over all ordered tuples of nonzero
multi-indices (s_1, ..., s_j) with s_1 + ... + s_j = s, the symmetric product
of the corresponding jet coefficients.  With multiset grouping this puts the
number-of-orderings factor on each product, which is the convention forced by
the worked small cases and preserved by the right-action equivariance law

    phi(compose(gamma, psi)) = phi(gamma) @ group_matrix(psi).

Elements of Sym^{<=k} C^n are keyed by packed exponents while they are
multiplied: Sym C^n is the polynomial ring in n letters, so an
``exact.Packing`` with fields of k.bit_length() bits keys them and the one
packed product ``exact.add_product`` multiplies them.  Finished columns are
re-keyed to positions in the ordered Sym basis through a map from packed key
to position built once per (n, k).  Wedge factors stay basis positions.

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

from .exact import Matrix, Packing, add_into, add_product, divided, integral
from .jets import JetMap, flat_jet, powers
from .symbasis import Exponent, SymBasis, sym_basis


@lru_cache(maxsize=None)
def _unit_exponents(n: int) -> tuple[Exponent, ...]:
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


@lru_cache(maxsize=None)
def _packed_sym(n: int, k: int) -> tuple[list[int], dict[int, int]]:
    """The packed keys of the n letters of Sym^{<=k} C^n, with fields of
    k.bit_length() bits, and the Sym-basis position of each packed key."""
    packing = Packing(n, k)
    return (list(map(packing.pack, _unit_exponents(n))),
            {packing.pack(e): pos for pos, e in enumerate(sym_basis(n, k).exponents)})


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

    def submatrix(self, row_positions: list[int], cols: list[int]) -> Matrix:
        return Matrix(
            [[self.columns[c].get(r, Fraction(0)) for c in cols] for r in row_positions]
        )


def phi_integral(gamma: JetMap) -> tuple[list[dict[int, object]], int]:
    """(columns, D): the columns of phi(D * gamma), with D from
    ``JetMap.integral``, as int or int-polynomial entries keyed by row
    position; column i belongs to domain exponent sym_basis(p, k).exponents[i].

    Columns are built by the first-piece recursion
    C_s = gamma_s + sum_{0 < s' < s} gamma_{s'} * C_{s - s'},
    which enumerates ordered tuples exactly once.  An entry in row m is a sum
    of products of |m| jet coefficients, one per letter of m, so
    phi(D * gamma)[row m] = D^|m| * phi(gamma)[row m].
    """
    p, n, k = gamma.p, gamma.q, gamma.k
    scaled, d = gamma.integral()
    letters, position = _packed_sym(n, k)
    heads = {s1: {e: c for e, c in zip(letters, vec) if c} for s1, vec in scaled.coeffs.items()}
    cols_by_exp: dict[Exponent, dict[int, object]] = {}
    for s in sym_basis(p, k).exponents:
        acc = dict(heads.get(s, {}))
        for s1, head in heads.items():
            rest = tuple(map(sub, s, s1))
            if min(rest) < 0 or not any(rest):
                continue
            tail = cols_by_exp.get(rest)
            if not tail:
                continue
            add_product(acc, head, tail)
        cols_by_exp[s] = acc
    return [{position[e]: c for e, c in col.items()} for col in cols_by_exp.values()], d


def phi(gamma: JetMap) -> PhiMatrix:
    """Embed a jet as the matrix whose degree-d column sums coefficient
    products over ordered decompositions of d: ``phi_integral`` with each
    entry in row m divided once, by D^|m|."""
    p, n, k = gamma.p, gamma.q, gamma.k
    basis = sym_basis(n, k)
    columns, d = phi_integral(gamma)
    scale = [d ** len(m) for m in basis.monomials]
    return PhiMatrix(n=n, k=k, p=p, col_index=list(sym_basis(p, k).exponents),
                     columns=[{r: divided(c, scale[r]) for r, c in col.items()} for col in columns],
                     basis=basis)


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

    def scaled(self, c: Fraction) -> "WedgeVector":
        if c == 0:
            return WedgeVector(self.n, self.k, self.r, {})
        return WedgeVector(self.n, self.k, self.r, {t: v * c for t, v in self.terms.items()})

    def to_json(self) -> dict:
        """Factors are the basis's own monomial tuples; one string per
        coefficient object, which wedge_of_sparse_vectors shares per value."""
        monomials = self.basis().monomials
        distinct = {id(c): c for c in self.terms.values()}
        coeff_str = {i: str(c) for i, c in distinct.items()}
        terms = [
            {"factors": [monomials[pos] for pos in t], "coeff": coeff_str[id(self.terms[t])]}
            for t in sorted(self.terms)
        ]
        return {"n": self.n, "k": self.k, "r": self.r, "terms": terms}


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


def p_point(p: int, k: int) -> WedgeVector:
    """The distinguished wedge point: full column wedge at the flat jet.

    Ambient dimension is n = sym^{<=k}(p); for p = 1 this is the point whose
    special-linear stabilizer is the unipotent reparametrization group.
    """
    m = phi(flat_jet(p, k))
    return wedge_of_sparse_vectors(m.n, m.k, m.columns)


# -- induced group actions -------------------------------------------------


def apply_group_to_wedge(g: Matrix, w: WedgeVector) -> WedgeVector:
    """Natural action of g in GL(n) on the wedge, factor by factor.

    g sends e_j to sum_i g[i][j] e_i, extended as an algebra map, so the
    image of the basis monomial with exponent s is f(u)^s for the linear jet
    f(u) = g^T u (coefficient e_i is row i of g): one ``jets.powers`` table
    over the factors of w.
    """
    basis = w.basis()
    if g.rows != w.n or g.cols != w.n:
        raise ValueError("matrix size must match the ambient dimension")
    linear = JetMap(w.n, w.n, w.k, dict(zip(_unit_exponents(w.n), g.data)))
    exps, position = basis.exponents, basis.exponent_position
    factors = dict.fromkeys(pos for t in w.terms for pos in t)
    table = powers(linear, [exps[pos] for pos in factors])
    image = {pos: {position[t]: c for t, c in table[exps[pos]].items()} for pos in factors}
    total: dict[tuple[int, ...], Fraction] = {}
    for t, coeff in w.terms.items():
        piece = wedge_of_sparse_vectors(w.n, w.k, [image[pos] for pos in t])
        add_into(total, piece.terms, coeff)
    return WedgeVector(w.n, w.k, w.r, total)
