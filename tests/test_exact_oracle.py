"""The exact core against an independent implementation: sympy's rank,
determinant and nullspace on zero-heavy rational matrices, sympy's rank and
nullspace vectors on block-diagonal systems, sympy's rank on systems given
by sparse rows, and sympy's determinant on polynomial matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.exact import (Matrix, MinorPlan, MinorTable, PolyRing, SparsePolynomial, kernel_basis, rank,
                          sparse_rank)

sympy = pytest.importorskip("sympy")

# half the entries are zero, so rank drops and zero pivots are common
_entries = st.builds(lambda zero, x: Fraction(0) if zero else x, st.booleans(),
                     st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


def _matrices(rows, cols):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(st.lists(_entries, min_size=rc[1], max_size=rc[1]),
                            min_size=rc[0], max_size=rc[0]))


def _oracle(a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


@st.composite
def _two_blocks(draw):
    """Two random blocks with their rows and their columns interleaved, plus
    zero rows and columns that no row touches."""
    a, b = (draw(_matrices(st.integers(1, 4), st.integers(1, 4))) for _ in range(2))
    wa, wb, untouched = len(a[0]), len(b[0]), draw(st.integers(0, 2))
    zero = [Fraction(0)]
    rows = ([row + zero * (wb + untouched) for row in a]
            + [zero * wa + row + zero * untouched for row in b]
            + [zero * (wa + wb + untouched) for _ in range(draw(st.integers(0, 2)))])
    cols = draw(st.permutations(range(wa + wb + untouched)))
    order = draw(st.permutations(range(len(rows))))
    return [[rows[i][j] for j in cols] for i in order]


_property = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@_property
@given(st.one_of(_matrices(st.integers(1, 6), st.integers(1, 6)), _two_blocks()))
def test_rank_and_kernel_dimension_agree_with_sympy(a):
    oracle = _oracle(a)
    assert rank(a) == Matrix(a).rank() == oracle.rank()
    assert len(kernel_basis(a, len(a[0]))) == len(oracle.nullspace())


# ints and Fractions, many of them zero
_mixed = st.one_of(st.integers(-4, 4), _entries)
_nonzero = st.one_of(st.integers(1, 3), st.integers(-3, -1),
                     st.builds(Fraction, st.integers(1, 5), st.integers(2, 4)))


@st.composite
def _block_systems(draw):
    """A block-diagonal system with its columns permuted: blocks without rows
    (columns that no row touches), zero rows, rows repeated up to scale, and
    int and Fraction entries mixed."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    ncols, rows, start = sum(widths), [], 0
    for width in widths:
        for _ in range(draw(st.integers(0, 3))):
            row = [0] * ncols
            row[start:start + width] = draw(st.lists(_mixed, min_size=width, max_size=width))
            rows.append(row)
        start += width
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        scale = draw(_nonzero)
        rows.append([scale * x for x in draw(st.sampled_from(rows))])
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    cols = draw(st.permutations(range(ncols)))
    order = draw(st.permutations(range(len(rows))))
    return [[rows[i][j] for j in cols] for i in order], ncols


@_property
@given(st.one_of(_block_systems(), _two_blocks().map(lambda a: (a, len(a[0])))))
def test_kernel_basis_is_sympys_nullspace(system):
    """Not just the dimension: the very vectors, 1 at a free column and 0 at
    the other free columns, in free-column order."""
    rows, ncols = system
    oracle = _oracle([[Fraction(x) for x in row] for row in rows]) if rows else sympy.zeros(0, ncols)
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in oracle.nullspace()]
    assert kernel_basis(rows, ncols) == expected


@st.composite
def _sparse_systems(draw):
    """Rows as (column, value) pairs, one block or many, their columns
    permuted: columns that no row touches, zero rows (no pairs, or pairs
    holding 0), rows repeated up to scale, and sometimes a dense row across
    every block, as a trace row crosses the grades of a stabilizer system.
    The pairs of a row come in any order."""
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    touched = sum(widths)
    ncols = touched + draw(st.integers(0, 2))
    cols = draw(st.permutations(range(ncols)))
    dense, start = [], 0
    for width in widths:
        for _ in range(draw(st.integers(0, 3))):
            row = [0] * ncols
            values = draw(st.lists(_mixed, min_size=width, max_size=width))
            for j, x in zip(cols[start:start + width], values):
                row[j] = x
            dense.append(row)
        start += width
    for _ in range(draw(st.integers(0, 2)) if dense else 0):
        scale = draw(_nonzero)
        dense.append([scale * x for x in draw(st.sampled_from(dense))])
    if draw(st.booleans()):
        row = [0] * ncols
        for j, x in zip(cols, draw(st.lists(_nonzero, min_size=touched, max_size=touched))):
            row[j] = x
        dense.append(row)
    rows = [draw(st.permutations([(j, x) for j, x in enumerate(row) if x])) for row in dense]
    for _ in range(draw(st.integers(0, 2))):
        dense.append([0] * ncols)
        rows.append([(j, 0) for j in draw(st.lists(st.integers(0, ncols - 1), max_size=2, unique=True))])
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], [dense[i] for i in order], ncols


@_property
@given(_sparse_systems())
def test_sparse_rank_is_the_dense_rank_and_sympys(system):
    rows, dense, ncols = system
    expected = _oracle([[Fraction(x) for x in row] for row in dense]).rank() if dense else 0
    assert sparse_rank(rows, ncols) == rank(dense) == expected


@_property
@given(st.integers(1, 6).flatmap(lambda n: _matrices(st.just(n), st.just(n))))
def test_det_agrees_with_sympy(a):
    det = _oracle(a).det()
    assert Matrix(a).det() == Fraction(int(det.p), int(det.q))


_RING = PolyRing(["x", "y"])
_X, _Y = sympy.symbols("x y")
# sparse, low-degree polynomials with zeros among them, so terms cancel
_polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                         st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
                         max_size=3).map(_RING.poly)


def _to_sympy(f):
    if not isinstance(f, SparsePolynomial):  # a rational, or the table's integer zero
        return sympy.Rational(f.numerator, f.denominator)
    return sum((sympy.Rational(c.numerator, c.denominator) * _X**e[0] * _Y**e[1]
                for e, c in f.terms.items()), sympy.Integer(0))


# polynomials, rationals and ints side by side in one column
_cells = st.one_of(_polys, st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)))


@st.composite
def _minor_cases(draw):
    """A square matrix with scalars and polynomials mixed in its columns, a
    row list in any order and with repeats, and B or None.  Half the time
    each column j also holds x^d_j on a permuted diagonal, above the x-degree
    2 of every other entry and at least its total degree 4; then B = sum d_j
    is the table's packing bound, and the full determinant has the term
    x^B."""
    n = draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(_cells, min_size=n, max_size=n), min_size=n, max_size=n))
    bound = None
    if draw(st.booleans()):
        degrees = draw(st.lists(st.integers(4, 6), min_size=n, max_size=n))
        for j, (i, d) in enumerate(zip(draw(st.permutations(range(n))), degrees)):
            a[i][j] = _RING.var("x") ** d
        bound = sum(degrees)
    s = draw(st.integers(1, n))
    rows = draw(st.one_of(st.permutations(range(n)).map(lambda order: order[:s]),
                          st.lists(st.integers(0, n - 1), min_size=s, max_size=s)))
    return a, rows, bound


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_minor_cases())
def test_polynomial_minors_agree_with_sympy(case):
    a, rows, bound = case
    oracle = sympy.Matrix([[_to_sympy(x) for x in row] for row in a])
    det = Matrix(a).det()
    assert sympy.expand(_to_sympy(det) - oracle.det(method="berkowitz")) == 0
    if bound is not None:
        assert (bound, 0) in det.terms
    table = MinorTable([{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a))])
    minor = oracle.extract(list(rows), list(range(len(rows)))).det(method="berkowitz")
    ours, = table.minors(MinorPlan([(rows, range(len(rows)))], table.supports))
    assert sympy.expand(_to_sympy(ours) - minor) == 0
