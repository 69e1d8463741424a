"""Exact rational scalars, sparse multivariate polynomials, and fraction-free
linear algebra.

Scalars are ``fractions.Fraction``: always in lowest terms, positive
denominator, no rounding ever.  A polynomial is a sparse map
from exponent tuples (one entry per variable of its ring) to nonzero rational
coefficients; two polynomials are equal iff they share a variable set and
their term maps agree.

Where products are many, exponent vectors are packed.  A ``Packing`` for
nvars variables with exponents at most a bound B takes fields of w =
B.bit_length() bits and keys e by the int sum_i e_i << (w*(nvars-1-i)) |
|e| << (w*nvars): injective, adding without carry while every exponent
stays at most B, with "total degree <= d" one int compare, key < (d + 1) <<
(w*nvars), and the int order the graded lex order of ``term_list``;
``unpack`` makes one tuple per distinct key.  One packed product,
``add_product``, adds a * b into a map on such keys, with rational
or polynomial coefficients, optionally skipping products at or past a key:
it serves the jet powers behind truncated composition, the symmetric algebra
behind the jet embedding, and the minor tables.  ``SparsePolynomial``
multiplies its exponent tuples in a loop of its own: its operands are small
and each product is read as a polynomial, so packing them on every call
costs more than it saves: ``group-matrix --p 2 --k 8`` took 0.52 s that way
against 0.25 s (in-process, best of 5, on a 2-vCPU x86-64 VM).  One sparse
sum, ``add_into``, adds a multiple of one sparse map into another:
polynomial sums and differences, truncated composition, the embedding's
columns, the group action on wedges and the stabilizer residuals.

Every linear solve over the rationals (rank, kernel, determinant, inverse)
goes through one Bareiss fraction-free elimination, so intermediate entries
stay integral, and one back substitution on its echelon rows.  Rank and
kernel share ``_block_echelons``, one elimination per connected block of
columns: the rank is the sum of the block pivots.  ``_blocks`` splits by row
supports, of dense rows or of the (column, value) pairs that ``sparse_rank``
writes dense block by block.  The determinant and the inverse are defined on
the echelon of the whole matrix (its sign and scale, the augmented
identity), so they eliminate it whole.  ``integral``, the
lcm-of-denominators scaling, is the one conversion into integers: the
elimination applies it to each row as given (ints, Fractions or both), and
so do wedges and orbit weights.
Minor tables, the jet embedding and the test-curve systems scale through
``integral_entries``, which covers polynomial coefficients too, and take the
scale back out of each finished entry with ``divided``.  ``primitive`` is
the one division by the content: it keys stabilizer rows up to rational
scale.  ``term_list`` is the one term order, for printing and for JSON;
``Packing.term_list`` reads it off one sort of graded packed keys.
Division-free minors, for polynomial entries and for the many minors that
invariance checks read, come from one ``MinorPlan`` per query list, its
Laplace sub-minors shared by all minors whose columns extend them, evaluated
by one ``MinorTable`` per matrix.  The plan is built in one post-order
pass on an explicit stack: each sub-minor is expanded once, after its
children, and joins the plan only if one of them did.  A polynomial table
packs its entries with fields wide enough for any of its minors and expands
them by ``add_product``; packing is injective, so generator dedup compares
the packed terms, and a kept minor is unpacked only when it is read, its
JSON term list off one sort of its packed keys.
"""

from __future__ import annotations

import math
from fractions import Fraction
from collections import defaultdict
from itertools import accumulate, chain, compress, filterfalse
from operator import add, lshift, mul, neg, or_
from typing import Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured size ceiling."""


def rat(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


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
        return SparsePolynomial(self.ring, add_into(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SparsePolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SparsePolynomial(self.ring, add_into(dict(self.terms), other.terms, -1))

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
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                cur = out.get(e)
                if cur is None:
                    out[e] = c1 * c2
                elif s := cur + c1 * c2:
                    out[e] = s
                else:
                    del out[e]
        return SparsePolynomial(self.ring, out)

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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, c in term_list(self.terms):
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.names, exp)
                if e
            ]
            if not factors:
                body = c
            elif c == "1":
                body = "*".join(factors)
            elif c == "-1":
                body = "-" + "*".join(factors)
            else:
                body = c + "*" + "*".join(factors)
            parts.append(body)
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    __repr__ = __str__


Coef = Union[Fraction, SparsePolynomial]


def term_list(terms: Mapping[tuple[int, ...], Scalar]) -> list[tuple[tuple[int, ...], str]]:
    """(exponent, str of coefficient), by total degree, then lex, both
    descending: two C-level sorts, the second stable, with no Python key
    function.  An int or a Fraction prints as "p/q", or "p" when the
    denominator is 1."""
    exps = sorted(terms, reverse=True)
    exps.sort(key=sum, reverse=True)
    return list(zip(exps, map(str, map(terms.__getitem__, exps))))


def add_into(target: dict, vec: Mapping, c: Scalar = 1) -> dict:
    """target += c * vec for sparse maps, in place, dropping the entries that
    cancel; returns target.  A key missing from target takes c * value, and
    with c = 1 the value as it is, so a polynomial value never goes through
    0 + poly."""
    for key, x in vec.items():
        if c != 1:
            x = c * x
        cur = target.get(key)
        if cur is None:
            target[key] = x
        elif s := cur + x:
            target[key] = s
        else:
            del target[key]
    return target


class Packing:
    """Graded packed exponent keys for nvars variables whose exponents are at
    most bound, in fields of width = bound.bit_length() bits: exponent
    vector e is the int sum_i e_i << (width*(nvars-1-i)) | |e| <<
    (width*nvars), the first variable in the highest field under the degree.

    Packing is injective, and keys add without carry, pack(e1) + pack(e2) =
    pack(e1 + e2), while every exponent stays at most bound.  The total
    degree sits in the top field, so |e| <= d iff pack(e) < ``below(d)``, one
    int compare, and keys compare as their exponents do in graded lex order:
    ``term_list`` needs one int sort.  ``unpack`` goes through one dict per
    packing, one tuple per distinct key."""

    __slots__ = ("shifts", "mask", "top", "tuples")

    def __init__(self, nvars: int, bound: int):
        width = bound.bit_length()
        self.shifts = [width * i for i in range(nvars - 1, -1, -1)]
        self.mask, self.top = (1 << width) - 1, width * nvars
        self.tuples: dict[int, tuple[int, ...]] = {}

    def pack(self, exp: Sequence[int]) -> int:
        return sum(map(lshift, exp, self.shifts)) | sum(exp) << self.top

    def below(self, d: int) -> int:
        """The least key of total degree d + 1."""
        return d + 1 << self.top

    def _tuples(self, keys) -> dict[int, tuple[int, ...]]:
        tuples, mask = self.tuples, self.mask
        for key in filterfalse(tuples.__contains__, keys):
            tuples[key] = tuple([key >> s & mask for s in self.shifts])
        return tuples

    def unpack(self, terms: Mapping[int, Coef]) -> dict[tuple[int, ...], Coef]:
        """A packed term map, keyed by exponent tuples."""
        tuples = self._tuples(terms)
        return {tuples[key]: c for key, c in terms.items()}

    def term_list(self, terms: Mapping[int, Scalar]) -> list[tuple[tuple[int, ...], str]]:
        """The ``term_list`` of the unpacked map, off one descending sort of
        the keys."""
        keys = sorted(terms, reverse=True)
        return list(zip(map(self._tuples(keys).__getitem__, keys), map(str, map(terms.__getitem__, keys))))


def add_product(acc: dict[int, Coef], a: Mapping[int, Coef], b: Mapping[int, Coef],
                below: int | None = None) -> dict[int, Coef]:
    """acc += a * b for maps from packed keys of one ``Packing`` to nonzero
    rational or polynomial coefficients, in place, dropping the entries that
    cancel; returns acc.  With below, products whose key is at least below
    are skipped (the truncated product of k-jets), one int compare each.
    Measured, do not repeat: sorting b to stop each row early made the
    products of jet powers slower, their maps holding a few terms each."""
    for e1, c1 in a.items():
        room = None if below is None else below - e1
        for e2, c2 in b.items():
            if room is not None and e2 >= room:
                continue
            e = e1 + e2
            cur = acc.get(e)
            if cur is None:
                acc[e] = c1 * c2
            elif s := cur + c1 * c2:
                acc[e] = s
            else:
                del acc[e]
    return acc


class Matrix:
    """Dense matrix over Fraction or SparsePolynomial entries.

    rank/kernel_basis/inverse_rows require rational entries; determinant and
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

    def _has_polynomial(self) -> bool:
        """Whether some entry is a polynomial: a scan of the distinct entry
        types, with no Python loop over the cells."""
        return any(issubclass(t, SparsePolynomial) for t in set(map(type, chain.from_iterable(self.data))))

    def _rational_rows(self) -> list[list[Scalar]]:
        if self._has_polynomial():
            raise TypeError("operation requires rational entries")
        return self.data

    def rank(self) -> int:
        return rank(self._rational_rows())

    def kernel_basis(self) -> list[list[Fraction]]:
        return kernel_basis(self._rational_rows(), self.cols)

    def det(self) -> Coef:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self._has_polynomial():
            return _det_laplace(self.data)
        return _det_bareiss(self._rational_rows())

    def inverse_rows(self, count: int) -> list[list[Fraction]]:
        """The first count rows of the inverse.  Row i solves A^T x = e_i:
        one echelon form of [A^T | e_0 .. e_{count-1}], then one back
        substitution per unit column."""
        n = self.rows
        if self.cols != n:
            raise ValueError("inverse of a non-square matrix")
        aug = [row + [int(i == j) for j in range(count)]
               for i, row in enumerate(self.transpose()._rational_rows())]
        ech, pivots, _, _ = _bareiss(aug)
        if pivots != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return [_back_substitute(ech, pivots, [0] * (n + i) + [-1])[:n] for i in range(count)]

    def to_strings(self) -> list[list[str]]:
        return [list(map(str, row)) for row in self.data]


# -- fraction-free elimination ------------------------------------------


def integral(values: Sequence[Scalar]) -> tuple[list[int], int]:
    """The values times d, the lcm of their denominators, as ints; and d.

    Integer operations only: x * d is x.numerator * (d // x.denominator).
    Values that are all exactly int come back as they are, with d = 1.
    """
    if set(map(type, values)) == {int}:
        return list(values), 1
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def primitive(pairs: Sequence[tuple[object, int]]) -> tuple[tuple[object, int], ...]:
    """The (key, int) pairs over the content of their ints, signed so that
    the first is positive: two integer vectors, in the same key order, give
    equal results iff they are rational multiples of each other."""
    g = math.gcd(*[c for _, c in pairs])
    if pairs[0][1] < 0:
        g = -g
    return tuple([(key, c // g) for key, c in pairs])


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
    Fraction, or a polynomial with Fraction coefficients.  Division by 1
    only converts, with no gcd to take."""
    if not isinstance(x, SparsePolynomial):
        return Fraction(x) if d == 1 else Fraction(x, d)
    cs = x.terms.values()
    quotients = map(Fraction, cs) if d == 1 else [Fraction(c, d) for c in cs]
    return SparsePolynomial(x.ring, dict(zip(x.terms, quotients)))


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


def _blocks(supports: Sequence[Sequence[int]], ncols: int) -> list[tuple[list[int], list[int]]]:
    """The connected blocks of a system given by its rows' supports, in the
    order of their first columns: two columns share a block when some row
    touches both.  A block is its ascending columns and its row indices; a
    column that no row touches is a block without rows, and rows with empty
    support are dropped.  Each caller cuts its own rows to the columns."""
    parent = list(range(ncols))

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        return j

    for support in supports:
        for j in support[1:]:
            parent[find(j)] = find(support[0])
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(ncols):
        blocks.setdefault(find(j), ([], []))[0].append(j)
    for i, support in enumerate(supports):
        if support:
            blocks[find(support[0])][1].append(i)
    return list(blocks.values())


def _block_echelons(rows: Sequence[Sequence[Scalar]],
                    ncols: int) -> Iterator[tuple[list[int], list[list[int]], list[int]]]:
    """(columns, echelon rows, pivots) of each block of a dense system, the
    pivots indexing the block's own columns."""
    for cols, members in _blocks([list(compress(range(ncols), row)) for row in rows], ncols):
        ech, pivots, _, _ = _bareiss([[rows[i][j] for j in cols] for i in members])
        yield cols, ech, pivots


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
    for cols, ech, pivots in _block_echelons(rows, ncols):
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


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """The sum of the block ranks: a block-diagonal system's rank."""
    return sum(len(pivots) for _, _, pivots in _block_echelons(rows, len(rows[0]) if rows else 0))


def sparse_rank(rows: Sequence[Sequence[tuple[int, Scalar]]], ncols: int) -> int:
    """The rank of a system whose rows are (column, value) pairs, a value
    possibly 0: the sum of the block ranks, each block written dense over its
    own columns only, so no row as wide as the system is built."""
    total = 0
    for cols, members in _blocks([[j for j, _ in row] for row in rows], ncols):
        at, block = dict(zip(cols, range(len(cols)))), [[0] * len(cols) for _ in members]
        for row, i in zip(block, members):
            for j, x in rows[i]:
                row[at[j]] = x
        total += len(_bareiss(block)[1])
    return total


def _det_bareiss(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    n = len(rows)
    if n == 0:
        return Fraction(1)
    ech, pivots, sign, scale = _bareiss(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign) * ech[n - 1][pivots[-1]] / scale


class MinorPlan:
    """The Laplace structure of minor queries (rows in any order, a column
    tuple) on matrices whose nonzeros lie in supports, one row bitmask per
    column.  det(R; c_1..c_s) = sum_i (-1)^(i+s) a[R_i][c_s] det(R - R_i;
    c_1..c_{s-1}): a node is a column prefix and a row mask R, and level s
    lists those of s columns as (c_s, cells 2 R_i + 1 if the sign is negative
    else 2 R_i, child indices in level s - 1) over the R_i in c_s's support.
    ``reads[s]`` lists the queries of s columns in query order as (query,
    node or None, negated).

    One post-order pass builds it.  Each node is expanded once, on an
    explicit stack whose frames resume their own bit loop, so the column
    count is not bounded by the recursion limit: a child already indexed is
    looked up, one not yet indexed is expanded before its parent goes on.
    A node joins its level only if some child did; one without is
    structurally zero and recorded as None.  A query on such a node, or on
    repeated rows, reads 0; one on rows in odd order is negated."""

    def __init__(self, queries: Sequence[tuple[Sequence[int], Sequence[int]]], supports: Sequence[int]):
        self.supports, self.count = list(supports), len(queries)
        top = max((len(cols) for _, cols in queries), default=0)
        self.levels: list[list[tuple[int, list[int], list[int]]]] = [[] for _ in range(top)]
        self.reads: list[list[tuple[int, int | None, bool]]] = [[] for _ in range(top + 1)]
        levels, reads, supports = self.levels, self.reads, self.supports
        index: list[dict] = [{(): {0: 0}}] + [{} for _ in range(top)]  # prefix -> row mask -> node
        chains = {}  # column tuple -> (its prefixes' node dicts, each prefix's union of supports)
        for q, (rows, cols) in enumerate(queries):
            if len(rows) != len(cols):
                raise ValueError("a minor needs as many rows as columns")
            mask = swaps = 0
            for r in rows:
                swaps += (mask >> r).bit_count()
                mask |= 1 << r
            if (chain := chains.get(cols := tuple(cols))) is None:
                dicts = [index[s].setdefault(cols[:s], {}) for s in range(len(cols) + 1)]
                chain = chains[cols] = dicts, [0, *accumulate(map(supports.__getitem__, cols), or_)]
            at, reach = chain
            stack = [] if mask in at[-1] else [[len(cols), mask, None, [], []]]
            while stack:  # frames [s, node mask, rows left to expand, cells, kids]
                frame = stack[-1]
                s, node, m, cells, kids = frame
                if m is None:  # c_s takes a row of its support, the one row the others miss if any
                    off = node & ~reach[s - 1]
                    m = node & supports[cols[s - 1]] & (off or -1) if not off & (off - 1) else 0
                below = at[s - 1]
                while m:
                    bit = m & -m
                    if (j := below.get(node ^ bit, -1)) == -1:  # not indexed yet: expand it first
                        frame[2] = m
                        stack.append([s - 1, node ^ bit, None, [], []])
                        break
                    m ^= bit
                    if j is not None:
                        negative = ((node & (bit - 1)).bit_count() + s) % 2 == 0
                        cells.append(2 * bit.bit_length() - 2 + negative)
                        kids.append(j)
                else:
                    stack.pop()
                    at[s][node] = len(levels[s - 1]) if cells else None
                    if cells:
                        levels[s - 1].append((cols[s - 1], cells, kids))
            reads[len(cols)].append((q, at[-1][mask], bool(swaps & 1)))


class MinorTable:
    """Division-free minors of one matrix given by sparse columns, over any
    commutative ring, read off a ``MinorPlan`` level by level with only the
    level below kept.  Column c holds the entry of row r and its negative at
    cells 2r and 2r + 1; ``supports[c]`` is its row bitmask, and a nonzero
    outside the plan's supports raises ValueError.

    Polynomial entries, all from one ring, are packed by one ``Packing``
    bounded by B, the sum over the columns of their largest entry degree (a
    scalar has degree 0).  Exponents of a minor are at most B, so no field
    carries, and packed term maps are proportional iff their polynomials
    are; a vanishing minor is the zero polynomial."""

    def __init__(self, columns: Sequence[Mapping[int, Coef]]):
        rings = {x.ring for col in columns for x in col.values() if isinstance(x, SparsePolynomial)}
        if len(rings) > 1:
            raise ValueError("minor table entries from more than one ring")
        self.ring, self.zero = next(iter(rings), None), 0
        self.supports = [sum(1 << r for r, x in col.items() if x) for col in columns]
        self.negative = neg if self.ring is None else (lambda x: {e: -c for e, c in x.items()})
        if self.ring is not None:
            bound = sum(max((sum(e) for x in col.values() if isinstance(x, SparsePolynomial)
                             for e in x.terms), default=0) for col in columns)
            self.packing, self.zero = Packing(len(self.ring), bound), {}
            pack = self.packing.pack
            columns = [{r: {pack(e): c for e, c in x.terms.items()}
                        if isinstance(x, SparsePolynomial) else {0: x}
                        for r, x in col.items() if x} for col in columns]
        self.cells = [defaultdict(int, {2 * r + h: self.negative(x) if h else x
                                        for r, x in c.items() if x for h in (0, 1)}) for c in columns]

    def minors(self, plan: MinorPlan) -> list[Coef]:
        """The minors of plan's queries, in query order."""
        out = dict(self.packed(plan))
        return [out[q] if self.ring is None else self.unpack(out[q]) for q in range(plan.count)]

    def packed(self, plan: MinorPlan) -> Iterator[tuple[int, Coef | dict[int, Scalar]]]:
        """(query, minor) for each query of plan, level by level as each
        completes, in query order within a level; in a polynomial table the
        minor is its packed term map."""
        if any(mine & ~theirs for mine, theirs in zip(self.supports, plan.supports)):
            raise ValueError("a column has a nonzero entry outside the plan's support")
        values: list = [1 if self.ring is None else {0: 1}]
        for s, reads in enumerate(plan.reads):
            if s and self.ring is None:
                get = values.__getitem__
                values = [sum(map(mul, map(self.cells[col].__getitem__, cells), map(get, kids)))
                          for col, cells, kids in plan.levels[s - 1]]
            elif s:
                values = [self._expand(self.cells[c], values, *node) for c, *node in plan.levels[s - 1]]
            yield from ((q, self.zero if j is None else self.negative(values[j]) if odd else values[j])
                        for q, j, odd in reads)

    @staticmethod
    def _expand(column: Mapping, below: list, cells: list[int], kids: list[int]) -> dict[int, Scalar]:
        acc: dict[int, Scalar] = {}
        for i, j in zip(cells, kids):
            if (x := column[i]) and (rest := below[j]):
                add_product(acc, x, rest)
        return acc

    def unpack(self, terms: Mapping[int, Scalar]) -> SparsePolynomial:
        """The polynomial of a packed term map of this table."""
        return SparsePolynomial(self.ring, self.packing.unpack(terms))


def _det_laplace(data: Sequence[Sequence[Coef]]) -> Coef:
    """Division-free determinant of a dense square matrix, off a MinorTable."""
    n = len(data)
    table = MinorTable([{i: row[j] for i, row in enumerate(data) if row[j]} for j in range(n)])
    det, = table.minors(MinorPlan([(range(n), range(n))], table.supports))
    return det if isinstance(det, SparsePolynomial) else rat(det)
