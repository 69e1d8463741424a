"""Exact rational scalars, sparse multivariate polynomials, and fraction-free
linear algebra.

Scalars are ``fractions.Fraction`` (aliased ``Rational``): always in lowest
terms, positive denominator, no rounding ever.  A polynomial is a sparse map
from exponent tuples (one entry per variable of its ring) to nonzero rational
coefficients; two polynomials are equal iff they share a variable set and
their term maps agree.  One sparse product, ``sparse_product``, multiplies
exponent-keyed maps with rational or polynomial coefficients, optionally
truncated at a total degree: it serves polynomial multiplication, truncated
jet composition and the symmetric algebra behind the jet embedding.

Every linear solve over the rationals (rank, kernel, determinant, inverse,
row-space basis) goes through one Bareiss fraction-free elimination, so
intermediate entries stay integral, and one back substitution on its echelon
rows.  ``integral``, the lcm-of-denominators scaling, is the
one conversion into integers: the elimination applies it to each row as given
(ints, Fractions or both), and so do wedges and orbit weights.  Minor
tables, the jet embedding and the test-curve systems scale through
``integral_entries``, which covers polynomial coefficients too, and take the
scale back out of each finished entry with ``divided``.
Division-free minors, for polynomial entries and for the many minors of one
matrix that invariance checks read, come from one ``MinorTable`` per matrix:
Laplace expansion along the last column, with every sub-minor computed once
and shared by all the minors whose columns extend it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

Rational = Fraction

Scalar = Union[int, Fraction]


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured size ceiling."""


def rat(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    return Fraction(s.strip())


class PolyRing:
    """An ordered set of variable names; the factory for its polynomials.

    The variable order is the declaration order and fixes the graded
    lexicographic term order used for printing and leading terms.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        self.index = {name: i for i, name in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"PolyRing({list(self.names)})"

    def zero(self) -> "SparsePolynomial":
        return SparsePolynomial(self, {})

    def one(self) -> "SparsePolynomial":
        return self.const(1)

    def const(self, c: Scalar) -> "SparsePolynomial":
        c = rat(c)
        if c == 0:
            return self.zero()
        return SparsePolynomial(self, {(0,) * len(self.names): c})

    def var(self, name: str) -> "SparsePolynomial":
        i = self.index[name]
        exp = [0] * len(self.names)
        exp[i] = 1
        return SparsePolynomial(self, {tuple(exp): Fraction(1)})

    def poly(self, terms: Mapping[tuple[int, ...], Scalar]) -> "SparsePolynomial":
        clean = {}
        for exp, c in terms.items():
            c = rat(c)
            if c == 0:
                continue
            if len(exp) != len(self.names) or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            clean[tuple(exp)] = c
        return SparsePolynomial(self, clean)


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class SparsePolynomial:
    """Multivariate polynomial with exact rational coefficients.

    Immutable by convention: operations return new instances and never mutate
    ``terms``.  Zero coefficients are never stored; ``int`` ones occur only
    inside integer-scaled minor tables, where ``int`` scalars keep them ints.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[tuple[int, ...], Fraction]):
        self.ring = ring
        self.terms = terms

    # -- ring plumbing -------------------------------------------------

    def _coerce(self, other) -> "SparsePolynomial":
        if isinstance(other, SparsePolynomial):
            if other.ring != self.ring:
                raise ValueError("variable-set mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "SparsePolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return SparsePolynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SparsePolynomial":
        return (-self) + other

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring.zero()
            return SparsePolynomial(self.ring, {e: v * other for e, v in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SparsePolynomial(self.ring, sparse_product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "SparsePolynomial":
        if m < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base if m > 1 else base
            m >>= 1
        return result

    # -- queries -------------------------------------------------------

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        """Greatest term in graded lex order; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def normalized(self) -> "SparsePolynomial":
        """Scalar multiple with leading coefficient 1 (zero stays zero)."""
        if not self.terms:
            return self
        _, lc = self.leading_term()
        return divided(self, lc)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a full rational assignment of the ring variables."""
        vals = []
        for name in self.ring.names:
            if name not in assignment:
                raise KeyError(f"missing variable {name!r}")
            vals.append(rat(assignment[name]))
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(vals, exp):
                if e:
                    v *= x**e
            total += v
        return total

    def term_list(self) -> list[tuple[tuple[int, ...], str]]:
        """Canonical JSON-ready term list, graded-lex descending."""
        return [(exp, rat_str(self.terms[exp]))
                for exp in sorted(self.terms, key=_grlex_key, reverse=True)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=_grlex_key, reverse=True):
            c = self.terms[exp]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.names, exp)
                if e
            ]
            if not factors:
                body = rat_str(c)
            elif c == 1:
                body = "*".join(factors)
            elif c == -1:
                body = "-" + "*".join(factors)
            else:
                body = rat_str(c) + "*" + "*".join(factors)
            parts.append(body)
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    __repr__ = __str__


Coef = Union[Fraction, SparsePolynomial]


def sparse_product(
    a: Mapping[tuple[int, ...], Coef],
    b: Mapping[tuple[int, ...], Coef],
    bound: int | None = None,
) -> dict[tuple[int, ...], Coef]:
    """Product of two sparse maps from exponent vectors to coefficients.

    Exponents add and coefficients multiply; with a bound, products of total
    degree above it are dropped (the truncated product of k-jets and of
    Sym^{<=k}).  Zero coefficients are pruned by truthiness.
    """
    out: dict[tuple[int, ...], Coef] = {}
    for e1, c1 in a.items():
        room = None if bound is None else bound - sum(e1)
        for e2, c2 in b.items():
            if room is not None and sum(e2) > room:
                continue
            e = tuple(map(add, e1, e2))
            cur = out.get(e)
            s = c1 * c2 if cur is None else cur + c1 * c2
            if s:
                out[e] = s
            elif cur is not None:
                del out[e]
    return out


class Matrix:
    """Dense matrix over Rational or SparsePolynomial entries.

    rank/kernel_basis/inverse require rational entries; determinant and
    products work over either coefficient ring.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence[Coef]]):
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Coef:
        return self.data[ij[0]][ij[1]]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = None
                for l in range(self.cols):
                    term = self.data[i][l] * other.data[l][j]
                    acc = term if acc is None else acc + term
                row.append(acc if acc is not None else Fraction(0))
            out.append(row)
        return Matrix(out)

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _rational_rows(self) -> list[list[Scalar]]:
        if any(isinstance(x, SparsePolynomial) for row in self.data for x in row):
            raise TypeError("operation requires rational entries")
        return self.data

    def rank(self) -> int:
        return rank(self._rational_rows())

    def kernel_basis(self) -> list[list[Fraction]]:
        return kernel_basis(self._rational_rows(), self.cols)

    def det(self) -> Coef:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        if any(isinstance(x, SparsePolynomial) for row in self.data for x in row):
            return _det_laplace(self.data)
        return _det_bareiss(self._rational_rows())

    def inverse(self) -> "Matrix":
        """Echelon form of [A | I], then one back substitution per unit column."""
        rows = self._rational_rows()
        n = self.rows
        if self.cols != n:
            raise ValueError("inverse of a non-square matrix")
        aug = [rows[i] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        ech, pivots, _, _ = _bareiss(aug)
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        unit_cols = ([Fraction(0)] * (n + j) + [Fraction(-1)] for j in range(n))
        return Matrix([_back_substitute(ech, pivots, x)[:n] for x in unit_cols]).transpose()

    def to_strings(self) -> list[list[str]]:
        return [
            [rat_str(x) if isinstance(x, Fraction) else str(x) for x in row]
            for row in self.data
        ]


# -- fraction-free elimination ------------------------------------------


def integral(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """The values times d, the lcm of their denominators, as ints; and d.

    Integer operations only: x * d is x.numerator * (d // x.denominator).
    """
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def integral_entries(values: Sequence[Coef]) -> tuple[list, int]:
    """``integral`` over scalars and polynomials alike: each scalar and each
    coefficient of each polynomial times d, the lcm of all their
    denominators, as ints and int-coefficient polynomials; and d."""
    ints, d = integral([c for x in values
                        for c in (x.terms.values() if isinstance(x, SparsePolynomial) else (x,))])
    it = iter(ints)
    return [SparsePolynomial(x.ring, dict(zip(x.terms, it))) if isinstance(x, SparsePolynomial)
            else next(it) for x in values], d


def divided(x: Coef, d: Scalar) -> Coef:
    """x / d for a scalar or polynomial x and a nonzero rational d: a
    Fraction, or a polynomial with Fraction coefficients."""
    if isinstance(x, SparsePolynomial):
        return SparsePolynomial(x.ring, {e: Fraction(c, d) for e, c in x.terms.items()})
    return Fraction(x, d)


def _bareiss(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int], int, int]:
    """Fraction-free echelon form.

    Each row is scaled to integers by ``integral``.  Returns (integer echelon
    rows, pivot column list, permutation sign, product of the row scales).
    The echelon rows below each pivot are zeroed; the division by the
    previous pivot is exact at every step.
    """
    scaled = [integral(row) for row in rows]
    m, scale = [ints for ints, _ in scaled], math.prod(d for _, d in scaled)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            mic = m[i][c]
            mrc = m[r][c]
            for j in range(c + 1, ncols):
                m[i][j] = (mrc * m[i][j] - mic * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign, scale


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    _, pivots, _, _ = _bareiss(rows)
    return len(pivots)


def _back_substitute(ech: list[list[int]], pivots: list[int], x: list[Fraction]) -> list[Fraction]:
    """Complete x in place so that every echelon row annihilates it.

    The entries of x off the pivot columns are given (x may stop short of
    the echelon width: the missing entries are 0); the pivot entries are
    solved for, last pivot first.  A right-hand side b of M x = b rides along
    as an augmented column of M whose entry in x is -1.
    """
    width = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        p = pivots[r]
        row = ech[r]
        s = Fraction(0)
        for j in range(p + 1, width):
            if row[j] and x[j]:
                s += row[j] * x[j]
        x[p] = -s / row[p]
    return x


def _blocks(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[tuple[list[int], list[list[Scalar]]]]:
    """The connected blocks of a system, in the order of their first columns:
    two columns share a block when some nonzero row touches both.  A block is
    its ascending columns and its rows cut to them; a column that no row
    touches is a block without rows, and zero rows are dropped."""
    parent = list(range(ncols))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    supports = [[j for j, x in enumerate(row) if x] for row in rows]
    for support in supports:
        for j in support[1:]:
            parent[find(j)] = find(support[0])
    blocks: dict[int, tuple[list[int], list[list[Scalar]]]] = {}
    for j in range(ncols):
        blocks.setdefault(find(j), ([], []))[0].append(j)
    for row, support in zip(rows, supports):
        if support:
            cols, block = blocks[find(support[0])]
            block.append([row[j] for j in cols])
    return list(blocks.values())


def kernel_basis(rows: Sequence[Sequence[Scalar]], ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right null space {x : M x = 0}, via fraction-free echelon.

    One basis vector per free column, with a 1 in that column and 0 in the
    other free columns; the pivot entries come from back substitution.

    Each block of ``_blocks`` is eliminated on its own columns, and the
    vectors are merged in free-column order.  The basis is the one a single
    elimination of the whole system gives: a column is a pivot iff it is not
    in the span of the columns before it, which depends on the column matroid
    only, and in a block-diagonal system a column lies in the span of earlier
    columns iff it lies in the span of the earlier columns of its own block.
    So a column is free iff it is free in its block, and the kernel vector
    that is 1 there and 0 at every other free column is unique: the block's
    vector, zero off the block.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    basis = {}
    for cols, block in _blocks(rows, ncols):
        ech, pivots, _, _ = _bareiss(block)
        pivot_set = set(pivots)
        for f in range(len(cols)):
            if f not in pivot_set:
                x = [Fraction(0)] * len(cols)
                x[f] = Fraction(1)
                vec = [Fraction(0)] * ncols
                for j, v in zip(cols, _back_substitute(ech, pivots, x)):
                    vec[j] = v
                basis[cols[f]] = vec
    return [basis[f] for f in sorted(basis)]


def row_space_basis(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Basis of the row space: the nonzero rows of the fraction-free echelon."""
    ech, pivots, _, _ = _bareiss(rows)
    return [[Fraction(x) for x in row] for row in ech[: len(pivots)]]


def _det_bareiss(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    ech, pivots, sign, scale = _bareiss(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign) * ech[n - 1][pivots[-1]] / scale


class MinorTable:
    """Division-free minors of one matrix given by sparse columns, over any
    commutative ring.

    Expanding along the last column, det(R; c_1..c_s) = sum_i (-1)^(i+s)
    a[R_i][c_s] det(R minus R_i; c_1..c_{s-1}), so minors whose column tuples
    share a prefix share sub-minors.  One memo per column prefix, keyed by
    the sorted row tuple, holds each once; zero entries and zero sub-minors
    are skipped.
    """

    def __init__(self, columns: Sequence[Mapping[int, Coef]]):
        self.columns = columns
        self.memo: dict[tuple[int, ...], dict[tuple[int, ...], Coef]] = {(): {(): 1}}

    def minor(self, rows: Sequence[int], cols: Sequence[int]) -> Coef:
        """The minor on rows, in the given order, and columns cols."""
        key, cols = tuple(sorted(rows)), tuple(cols)
        if len(key) != len(cols):
            raise ValueError("a minor needs as many rows as columns")
        value = self.memo.get(cols, {}).get(key)
        if value is None:
            value = self._minor(cols, key)
        odd = key != tuple(rows) and sum(a > b for i, a in enumerate(rows)
                                         for b in rows[i + 1:]) % 2
        return -value if odd else value

    def _minor(self, cols: tuple[int, ...], rows: tuple[int, ...]) -> Coef:
        column, sub = self.columns[cols[-1]], cols[:-1]
        known = self.memo.setdefault(sub, {})
        acc = 0
        negate = not len(rows) % 2  # the sign (-1)^(i+s) at i = 1
        for i, r in enumerate(rows):
            x = column.get(r)
            if x:
                rest_rows = rows[:i] + rows[i + 1:]
                rest = known.get(rest_rows)
                if rest is None:
                    rest = self._minor(sub, rest_rows)
                if rest:
                    acc = acc - x * rest if negate else acc + x * rest
            negate = not negate
        self.memo.setdefault(cols, {})[rows] = acc
        return acc


def _det_laplace(data: Sequence[Sequence[Coef]]) -> Coef:
    """Division-free determinant of a dense square matrix, off a MinorTable."""
    n = len(data)
    columns = [{i: row[j] for i, row in enumerate(data) if row[j]} for j in range(n)]
    det = MinorTable(columns).minor(range(n), range(n))
    return det if isinstance(det, SparsePolynomial) else rat(det)

