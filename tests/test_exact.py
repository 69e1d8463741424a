import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.exact import (
    Matrix,
    MinorPlan,
    MinorTable,
    Packing,
    PolyRing,
    SparsePolynomial,
    _det_laplace,
    _grlex_key,
    add_into,
    add_product,
    integral,
    kernel_basis,
    rank,
    term_list,
)
from oracles import evaluate, inverse, solve_unique, sparse_product


def test_rational_serialization():
    assert Matrix([[Fraction(3, 4), Fraction(-5), Fraction(0)]]).to_strings() == [["3/4", "-5", "0"]]
    assert term_list({(2,): Fraction(3, 4), (1,): Fraction(-5), (0,): 7}) == [
        ((2,), "3/4"), ((1,), "-5"), ((0,), "7")]


class TestPolynomials:
    def setup_method(self):
        self.ring = PolyRing(["x", "y", "z"])
        self.x = self.ring.var("x")
        self.y = self.ring.var("y")

    def test_difference_of_squares(self):
        assert (self.x + 1) * (self.x - 1) == self.x**2 - 1

    def test_additive_identity(self):
        p = 3 * self.x * self.y - self.y**2
        assert p + self.ring.zero() == p
        assert p + 0 == p

    def test_binomial_square(self):
        u1, u2 = self.x, self.y
        assert (u1 + u2) ** 2 == u1**2 + 2 * u1 * u2 + u2**2

    def test_no_zero_terms_stored(self):
        p = self.x - self.x
        assert not p and p.terms == {}

    def test_variable_set_mismatch(self):
        other = PolyRing(["a"])
        with pytest.raises(ValueError):
            _ = self.x + other.var("a")

    def test_evaluate(self):
        p = self.x**2 - 1
        assert evaluate(p, {"x": 3, "y": 0, "z": 0}) == 8
        assert evaluate(self.ring.const(5), {"x": 1, "y": 2, "z": 3}) == 5
        q = self.x * self.y
        assert evaluate(q, {"x": Fraction(1, 2), "y": Fraction(2, 3), "z": 9}) == Fraction(1, 3)
        with pytest.raises(KeyError):
            evaluate(p, {"x": 1})

    def test_ring_axioms_random(self):
        rng = random.Random(7)

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 5)):
                exp = tuple(rng.randint(0, 3) for _ in range(3))
                terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            return self.ring.poly(terms)

        for _ in range(40):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a

    def test_grlex_leading_and_str(self):
        p = self.x + self.x**2 * self.y - 2
        exp, c = p.leading_term()
        assert exp == (2, 1, 0) and c == 1
        assert str(p) == "x^2*y + x - 2"

    def test_normalized(self):
        p = 3 * self.x**2 - 6 * self.y
        q = p.normalized()
        assert q == self.x**2 - 2 * self.y

    def test_normalized_is_exact_on_int_coefficients(self):
        p = SparsePolynomial(self.ring, {(1, 0, 0): 4, (0, 1, 0): 2})
        q = p.normalized()
        assert q.terms == {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(1, 2)}
        assert all(type(c) is Fraction for c in q.terms.values())


class TestLinearAlgebra:
    def test_kernel_zero_matrix(self):
        m = Matrix([[Fraction(0)] * 3 for _ in range(2)])
        assert len(m.kernel_basis()) == 3

    def test_kernel_identity(self):
        assert Matrix.identity(3).kernel_basis() == []

    def test_kernel_rank_one(self):
        m = Matrix([[1, 2], [2, 4]])
        kb = m.kernel_basis()
        assert len(kb) == 1
        v = kb[0]
        assert v[0] * 1 + v[1] * 2 == 0 and any(x != 0 for x in v)

    def test_det_fixtures(self):
        assert Matrix([[1, 2], [3, 4]]).det() == -2
        assert Matrix.identity(5).det() == 1

    def test_det_polynomial_entries(self):
        ring = PolyRing(["u"])
        u = ring.var("u")
        m = Matrix([[u, u * 0 + 2], [ring.zero(), u**2]])
        assert m.det() == u**3

    def test_rank_nullity_random(self):
        rng = random.Random(3)
        for _ in range(60):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = Matrix(
                [
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            assert m.rank() + len(m.kernel_basis()) == cols
            for v in m.kernel_basis():
                for row in m.data:
                    assert sum(a * b for a, b in zip(row, v)) == 0

    def test_det_multiplicative_random(self):
        rng = random.Random(5)
        for _ in range(30):
            a = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)])
            b = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(3)] for _ in range(3)])
            assert (a @ b).det() == a.det() * b.det()

    def test_bareiss_matches_laplace(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(1, 4)
            data = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            assert Matrix(data).det() == _det_laplace(data)

    def test_inverse(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = Matrix([[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)])
            if m.det() == 0:
                continue
            assert m @ Matrix(m.inverse_rows(n)) == Matrix.identity(n)

    def test_rank_requires_rational(self):
        ring = PolyRing(["u"])
        m = Matrix([[ring.var("u")]])
        with pytest.raises(TypeError):
            m.rank()
        with pytest.raises(ValueError):
            Matrix([[1, 2]]).det()

    def test_solve_unique(self):
        assert solve_unique([[2, 0], [0, 3]], [4, 9]) == [Fraction(2), Fraction(3)]
        assert solve_unique([[1, 1], [2, 2]], [1, 3]) is None  # inconsistent
        assert solve_unique([[1, 1], [2, 2]], [1, 2]) is None  # underdetermined

    def test_solve_unique_needs_an_equation(self):
        with pytest.raises(ValueError, match="at least one equation"):
            solve_unique([], [])

    @pytest.mark.parametrize("rows, rhs", [([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 2])])
    def test_solve_unique_needs_one_rhs_per_equation(self, rows, rhs):
        with pytest.raises(ValueError, match="right-hand side"):
            solve_unique(rows, rhs)

    def test_kernel_function_empty(self):
        assert len(kernel_basis([], 4)) == 4
        assert rank([[0, 0], [0, 0]]) == 0


# -- properties of the shared elimination core ------------------------------

# Zero-heavy small rationals, so rank-deficient matrices come up often.
_entries = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)


def _matrices(rows=st.integers(1, 5), cols=st.integers(1, 5)):
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(
            st.lists(_entries, min_size=rc[1], max_size=rc[1]), min_size=rc[0], max_size=rc[0]
        )
    )


def _square_matrices():
    return st.integers(1, 5).flatmap(
        lambda n: _matrices(rows=st.just(n), cols=st.just(n))
    )


def _apply(a, x):
    return [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a]


_property = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@_property
@given(_matrices())
def test_kernel_vectors_annihilate_and_rank_plus_nullity(a):
    ncols = len(a[0])
    kern = kernel_basis(a, ncols)
    for x in kern:
        assert len(x) == ncols
        assert _apply(a, x) == [0] * len(a)
    assert rank(a) + len(kern) == ncols
    assert Matrix(a).rank() == rank(a)
    assert not kern or rank(kern) == len(kern)


@_property
@given(_matrices(), st.lists(_entries, min_size=5, max_size=5))
def test_solve_unique_recovers_the_solution(a, x0):
    ncols = len(a[0])
    x0 = x0[:ncols]
    b = _apply(a, x0)
    sol = solve_unique(a, b)
    if rank(a) == ncols:
        assert sol == x0
    else:
        assert sol is None
    # repeating the first equation with another right-hand side is inconsistent
    assert solve_unique(a + [a[0]], b + [b[0] + 1]) is None


@_property
@given(_square_matrices())
def test_inverse_or_singular(a):
    m = Matrix(a)
    if rank(a) == m.rows:
        inv = Matrix(m.inverse_rows(m.rows))
        assert m @ inv == Matrix.identity(m.rows)
        assert inv @ m == Matrix.identity(m.rows)
        assert inv == inverse(m)
        assert all(m.inverse_rows(r) == inv.data[:r] for r in range(m.rows))
    else:
        with pytest.raises(ZeroDivisionError):
            m.inverse_rows(m.rows)
        with pytest.raises(ZeroDivisionError):
            inverse(m)


@_property
@given(st.lists(st.one_of(st.integers(-50, 50), _entries,
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))),
                max_size=8))
def test_integral_scales_by_the_lcm_of_the_denominators(values):
    ints, d = integral(values)
    assert d == math.lcm(*(Fraction(v).denominator for v in values))
    assert len(ints) == len(values) and all(type(i) is int for i in ints)
    assert all(Fraction(i, d) == v for i, v in zip(ints, values))


def test_integral_of_nothing_is_empty():
    assert integral([]) == ([], 1)
    assert integral([0, Fraction(0)]) == ([0, 0], 1)
    assert integral([-3, Fraction(-1, 4), Fraction(5, 6)]) == ([-36, -3, 10], 12)


@st.composite
def _systems(draw):
    """A zero-heavy rational system (a, b), with integral values only half
    the time, so the int-only form comes up often."""
    a, b = draw(_matrices()), draw(st.lists(_entries, min_size=5, max_size=5))
    if draw(st.booleans()):
        a, b = [[Fraction(x.numerator) for x in row] for row in a], [Fraction(x.numerator) for x in b]
    return a, b[: len(a)]


def _as_int_where_whole(row):
    return [int(x) if x.denominator == 1 else x for x in row]


@_property
@given(_systems())
def test_elimination_ignores_the_entry_types(system):
    """int-only, Fraction-only and mixed rows of the same values give
    identical ranks, kernels and unique solutions."""
    a, b = system
    variants = [(a, b), ([_as_int_where_whole(row) for row in a], _as_int_where_whole(b))]
    if all(x.denominator == 1 for row in a + [b] for x in row):
        variants.append(([[int(x) for x in row] for row in a], [int(x) for x in b]))
    results = [(rank(m), kernel_basis(m), solve_unique(m, rhs),
                Matrix(m).rank(), Matrix(m).kernel_basis())
               for m, rhs in variants]
    assert all(r == results[0] for r in results)


@_property
@given(_square_matrices())
def test_bareiss_det_equals_laplace_det(a):
    assert Matrix(a).det() == _det_laplace(a)


def _sparse_columns(a):
    return [{i: row[j] for i, row in enumerate(a) if row[j]} for j in range(len(a[0]))]


def _minor(table, rows, cols):
    """One minor off a one-query plan on the table's own supports."""
    return table.minors(MinorPlan([(rows, cols)], table.supports))[0]


@st.composite
def _matrix_with_minors(draw):
    """A zero-heavy matrix and minor queries on it: row lists in any order
    (so the row permutation sign is exercised) against column prefixes."""
    a = draw(_matrices(rows=st.integers(1, 6)))
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        s = draw(st.integers(1, min(len(a), len(a[0]))))
        queries.append(draw(st.permutations(range(len(a))))[:s])
    return a, queries


@_property
@given(_matrix_with_minors())
def test_minor_table_equals_bareiss_on_every_prefix_minor(case):
    a, queries = case
    table = MinorTable(_sparse_columns(a))  # one plan on its supports for all queries
    minors = table.minors(MinorPlan([(rows, range(len(rows))) for rows in queries], table.supports))
    for rows, minor in zip(queries, minors):
        s = len(rows)
        assert minor == Matrix([[a[r][j] for j in range(s)] for r in rows]).det()


@st.composite
def _matrices_on_one_support(draw):
    """A row support per column, zero-heavy matrices whose nonzeros lie in
    it, and queries of any row order, repeated rows included, on column
    tuples of any order."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    inside = draw(st.lists(st.lists(st.booleans(), min_size=ncols, max_size=ncols),
                           min_size=nrows, max_size=nrows))
    supports = [sum(1 << r for r in range(nrows) if inside[r][j]) for j in range(ncols)]
    matrices = draw(st.lists(st.lists(st.lists(_entries, min_size=ncols, max_size=ncols),
                                      min_size=nrows, max_size=nrows), min_size=1, max_size=4))
    matrices = [[[x if inside[r][j] else Fraction(0) for j, x in enumerate(row)]
                 for r, row in enumerate(a)] for a in matrices]
    queries = []
    for _ in range(draw(st.integers(1, 8))):
        s = draw(st.integers(1, min(nrows, ncols)))
        rows = draw(st.one_of(st.permutations(range(nrows)).map(lambda order: order[:s]),
                              st.lists(st.integers(0, nrows - 1), min_size=s, max_size=s)))
        queries.append((rows, draw(st.permutations(range(ncols)))[:s]))
    return supports, matrices, queries


@_property
@given(_matrices_on_one_support())
def test_one_plan_shared_by_matrices_on_its_support_equals_bareiss(case):
    supports, matrices, queries = case
    plan = MinorPlan(queries, supports)
    for a in matrices:
        minors = MinorTable(_sparse_columns(a)).minors(plan)
        for (rows, cols), minor in zip(queries, minors):
            assert minor == Matrix([[a[r][j] for j in cols] for r in rows]).det()


@_property
@given(_matrices_on_one_support())
def test_every_plan_node_has_a_kid_and_every_index_is_in_range(case):
    """Pruning leaves no childless node, kids point into the level below
    (level 0 is the empty minor alone) and reads into their own level."""
    supports, _, queries = case
    plan = MinorPlan(queries, supports)
    sizes = [1] + [len(level) for level in plan.levels]
    for s, level in enumerate(plan.levels, 1):
        for _, cells, kids in level:
            assert len(cells) == len(kids) >= 1
            assert all(0 <= j < sizes[s - 1] for j in kids)
    for s, reads in enumerate(plan.reads):
        assert all(j is None or 0 <= j < sizes[s] for _, j, _ in reads)
    assert sorted(q for reads in plan.reads for q, _, _ in reads) == list(range(len(queries)))


def test_a_1500_column_diagonal_minor_needs_no_recursion():
    """The pass keeps its own stack: a query 1,500 columns deep builds
    within the default recursion limit, and reads the diagonal product."""
    n = 1500
    plan = MinorPlan([(range(n), range(n))], [1 << c for c in range(n)])
    assert [len(level) for level in plan.levels] == [1] * n
    assert MinorTable([{c: c + 2} for c in range(n)]).minors(plan) == [math.factorial(n + 1)]


def test_a_nonzero_outside_the_plan_support_raises():
    plan = MinorPlan([([0, 1], [0, 1])], [0b01, 0b11])
    assert MinorTable([{0: 2}, {0: 1, 1: 3}]).minors(plan) == [6]
    with pytest.raises(ValueError, match="support"):
        MinorTable([{0: 2, 1: 5}, {0: 1, 1: 3}]).minors(plan)


def test_minor_table_repeated_rows_and_shape():
    table = MinorTable(_sparse_columns([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]))
    assert _minor(table, [1, 1], [0, 1]) == 0
    assert _minor(table, [1, 0], [0, 1]) == 2 == -_minor(table, [0, 1], [0, 1])
    with pytest.raises(ValueError):
        MinorPlan([([0, 1], [0])], table.supports)


_XY = PolyRing(["x", "y"])
_x, _y = _XY.var("x"), _XY.var("y")


def test_packed_minor_reaches_the_width_bound():
    """B = 2 + 2 = 4 and the minor is x^4: packed in (B - 1).bit_length() = 2
    bits, the exponent 4 would carry out of its field."""
    table = MinorTable(_sparse_columns([[_x**2, 0], [0, _x**2]]))
    assert _minor(table, [0, 1], [0, 1]) == _x**4 == -_minor(table, [1, 0], [0, 1])
    assert Matrix([[0, _x**2], [_y**2, 0]]).det() == -(_x**2) * _y**2


def test_vanishing_polynomial_minor_is_falsy_and_zero():
    cancelled = _minor(MinorTable(_sparse_columns([[_x, _y], [_x, _y]])), [0, 1], [0, 1])
    structural = _minor(MinorTable(_sparse_columns([[_x, 0], [_y, 0]])), [0, 1], [0, 1])
    for minor in (cancelled, structural):
        assert isinstance(minor, SparsePolynomial) and not minor and minor == 0


def test_minor_table_rejects_entries_from_two_rings():
    z = PolyRing(["z"]).var("z")
    with pytest.raises(ValueError):
        MinorTable([{0: _x}, {1: z}])
    with pytest.raises(ValueError):
        Matrix([[_x, 1], [0, z]]).det()


def test_det_return_types():
    """A rational matrix has a Fraction determinant, ints in or not; a
    matrix with a polynomial entry has a polynomial one, even when it is
    constant or zero."""
    for data in ([[1, 2], [3, 4]], [[Fraction(1, 2), 0], [0, 2]], [[0, 0], [0, 0]]):
        assert type(Matrix(data).det()) is Fraction
    for data, det in (([[_x, 2], [0, _x]], _x**2), ([[1, _x], [0, 1]], 1), ([[_x, 0], [_y, 0]], 0)):
        value = Matrix(data).det()
        assert type(value) is SparsePolynomial and value == det


# -- properties of the shared sparse product --------------------------------

_RING = PolyRing(["x", "y"])
# Few exponents, so distinct term pairs often land on the same product term.
_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), _entries, max_size=5
).map(_RING.poly)
_points = st.tuples(*[st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))] * 2)


@_property
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 9), max_size=12))
def test_term_list_is_graded_lex_descending(terms):
    poly = SparsePolynomial(PolyRing(["x", "y", "z"]), terms)
    assert [e for e, _ in term_list(poly.terms)] == sorted(terms, key=_grlex_key, reverse=True)


@_property
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9).filter(bool), max_size=12),
       st.integers(1, 12))
def test_packed_term_list_is_the_term_list(terms, scale):
    """Off one sort of graded packed keys (exponents at most 3), for int and
    Fraction coefficients alike."""
    poly = SparsePolynomial(PolyRing(["x", "y", "z"]), {e: Fraction(c, scale) for e, c in terms.items()})
    packing = Packing(3, 3)
    for coefs in (terms, poly.terms):
        assert packing.term_list({packing.pack(e): c for e, c in coefs.items()}) == term_list(coefs)
    assert term_list(poly.terms) == [
        (e, str(poly.terms[e])) for e in sorted(terms, key=_grlex_key, reverse=True)]


# Exponents of a product of two _polys terms are at most 4: no field carries.
_PACKING = Packing(2, 4)


def _packed(terms):
    return {_PACKING.pack(e): c for e, c in terms.items()}


@_property
@given(_polys, _polys, st.integers(0, 5))
def test_bounded_product_is_the_truncated_product(p, q, k):
    full = sparse_product(p.terms, q.terms)
    bounded = add_product({}, _packed(p.terms), _packed(q.terms), _PACKING.below(k))
    assert _PACKING.unpack(bounded) == {e: c for e, c in full.items() if sum(e) <= k}


# int, Fraction and polynomial coefficients, mixed in one map; small values on
# few exponents, so that distinct term pairs often cancel.
_mixed = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)),
              st.dictionaries(st.tuples(st.integers(0, 1)), st.integers(-1, 1), max_size=2)
              .map(PolyRing(["t"]).poly)).filter(bool),
    max_size=5,
)


@_property
@given(_mixed, _mixed, _mixed, st.one_of(st.none(), st.integers(0, 4)))
def test_packed_product_is_the_tuple_keyed_product(acc, a, b, bound):
    """add_product on packed keys: acc + a * b, truncated at the bound if any,
    with every cancelled entry dropped, as the tuple-keyed reference has it."""
    below = None if bound is None else _PACKING.below(bound)
    got = add_product(_packed(acc), _packed(a), _packed(b), below)
    assert _PACKING.unpack(got) == add_into(dict(acc), sparse_product(a, b, bound))
    assert all(got.values())


@_property
@given(_polys, _polys, _points)
def test_product_evaluates_pointwise(p, q, x):
    point = dict(zip(_RING.names, x))
    assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
