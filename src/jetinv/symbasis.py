"""Multi-index combinatorics and the canonical ordered bases of the truncated
symmetric powers.

Two equivalent encodings of a degree-d monomial in n letters are used
throughout:

* ``Monomial`` - weakly increasing entry tuple, e.g. ``(1, 1, 3)`` for
  e1*e1*e3.  This is the canonical form for basis elements and wedge factors.
* ``Exponent`` - length-p exponent vector, e.g. ``(2, 0, 1)``.  This is the
  natural key for jet coefficients.

The canonical total order is (degree, then lex on the entry tuple), which
groups the basis into degree blocks.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from math import comb, factorial

Monomial = tuple[int, ...]
Exponent = tuple[int, ...]


def entries_to_exponent(m: Monomial, p: int) -> Exponent:
    e = [0] * p
    for letter in m:
        e[letter - 1] += 1
    return tuple(e)


def orderings_count(m: Monomial) -> int:
    """Number of distinct orderings of the multiset (the multinomial factor)."""
    counts: dict[int, int] = {}
    for x in m:
        counts[x] = counts.get(x, 0) + 1
    out = factorial(len(m))
    for c in counts.values():
        out //= factorial(c)
    return out


def sym_dim(n: int, k: int) -> int:
    """dim Sym^{<=k} C^n = sum_{i=1..k} C(n+i-1, i)."""
    return sum(comb(n + i - 1, i) for i in range(1, k + 1))


def enumerate_sym_basis(n: int, k: int) -> list[Monomial]:
    """Ordered basis of Sym^{<=k} C^n: degree blocks 1..k, lex within a block."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    out: list[Monomial] = []
    for d in range(1, k + 1):
        out.extend(itertools.combinations_with_replacement(range(1, n + 1), d))
    return out


class SymBasis:
    """Cached ordered basis with O(1) position lookup, for one (n, k)."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.monomials = enumerate_sym_basis(n, k)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.exponents = [entries_to_exponent(m, n) for m in self.monomials]
        self.exponent_position = {e: i for i, e in enumerate(self.exponents)}

    def __len__(self) -> int:
        return len(self.monomials)

    @cached_property
    def orderings(self) -> list[int]:
        return [orderings_count(m) for m in self.monomials]


@lru_cache(maxsize=None)
def _sym_basis_cached(n: int, k: int) -> SymBasis:
    return SymBasis(n, k)


def sym_basis(n: int, k: int) -> SymBasis:
    return _sym_basis_cached(n, k)


def partitions_of(m: int) -> list[tuple[int, ...]]:
    """All partitions of m as weakly increasing part tuples."""
    if m < 1:
        raise ValueError("need m >= 1")

    def gen(remaining: int, minimum: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for first in range(minimum, remaining + 1):
            for rest in gen(remaining - first, first):
                out.append((first,) + rest)
        return out

    return gen(m, 1)


def defect(sigma: int, i: int) -> int:
    """d(i) = floor(i / sigma)."""
    if sigma < 2 or i < 1:
        raise ValueError("need sigma >= 2 and i >= 1")
    return i // sigma


def defect_of_partition(sigma: int, parts: tuple[int, ...]) -> int:
    """d(tau) = sum of the part defects."""
    return sum(defect(sigma, p) for p in parts)


def vector_compositions(s: Exponent) -> list[tuple[Exponent, ...]]:
    """Ordered tuples of nonzero vectors in Z_{>=0}^p summing componentwise to s."""
    if sum(s) < 1:
        raise ValueError("need |s| >= 1")

    def nonzero_sub(v: Exponent) -> list[Exponent]:
        ranges = [range(c + 1) for c in v]
        return [w for w in itertools.product(*ranges) if any(w)]

    def gen(v: Exponent) -> list[tuple[Exponent, ...]]:
        if not any(v):
            return [()]
        out = []
        for first in nonzero_sub(v):
            rest = tuple(a - b for a, b in zip(v, first))
            for tail in gen(rest):
                out.append((first,) + tail)
        return out

    return gen(tuple(s))
