"""The exact core against an independent implementation: sympy's rank,
determinant and nullspace on zero-heavy rational matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.exact import Matrix, kernel_basis, rank

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


_property = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@_property
@given(_matrices(st.integers(1, 6), st.integers(1, 6)))
def test_rank_and_kernel_dimension_agree_with_sympy(a):
    oracle = _oracle(a)
    assert rank(a) == Matrix(a).rank() == oracle.rank()
    assert len(kernel_basis(a, len(a[0]))) == len(oracle.nullspace())


@_property
@given(st.integers(1, 6).flatmap(lambda n: _matrices(st.just(n), st.just(n))))
def test_det_agrees_with_sympy(a):
    det = _oracle(a).det()
    assert Matrix(a).det() == Fraction(int(det.p), int(det.q))
