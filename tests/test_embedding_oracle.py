"""The embedding and the test-curve systems against the decomposition oracles.

Both are computed in integers on the jet scaled by the lcm D of its
denominators and divided once per entry, by D to the number of letters of the
entry's Sym monomial.  Jets whose coefficients have large, pairwise coprime
denominators make D huge, so a wrong power of D cannot pass by accident.  The
test-curve system of an integral jet (D = 1) is not divided at all: its
entries stay ints, which the integral rational and symbolic cases pin.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.embedding import phi, phi_integral
from jetinv.exact import SparsePolynomial
from jetinv.invariants import test_curve_system as curve_system
from jetinv.jets import JetMap, symbolic_jet
from jetinv.symbasis import sym_basis
from oracles import dense, phi_by_decompositions, power_coefficient


def _primes_above(start, count):
    out, x = [], start
    while len(out) < count:
        x += 1
        if all(x % d for d in range(2, int(x**0.5) + 1)):
            out.append(x)
    return out


_PRIMES = _primes_above(10**5, 60)
_property = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _coprime_fractions(draw, count):
    """count rationals whose denominators are distinct primes above 10^5."""
    start = draw(st.integers(0, len(_PRIMES) - count))
    nums = st.integers(-(10**6), 10**6)
    return [Fraction(draw(nums), d) for d in _PRIMES[start:start + count]]


@st.composite
def _rational_jets(draw):
    """Jets with p in {1, 2} and pairwise coprime coefficient denominators."""
    p = draw(st.integers(1, 2))
    k, n = draw(st.integers(1, 4 if p == 1 else 3)), draw(st.integers(1, 3))
    exps = sym_basis(p, k).exponents
    values = iter(_coprime_fractions(draw, len(exps) * n))
    return JetMap(p, n, k, {s: tuple(next(values) for _ in range(n)) for s in exps})


@st.composite
def _symbolic_jets(draw):
    """Symbolic jets whose entry u becomes a * u + b for coprime-denominator
    rationals a, b, so that the scaling reaches polynomial coefficients."""
    p = draw(st.integers(1, 2))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 3 if p == 1 else 2))
    gamma, _ = symbolic_jet(p, n, k)
    values = iter(_coprime_fractions(draw, 2 * len(gamma.coeffs) * n))
    return JetMap(p, n, k, {s: tuple(x * next(values) + next(values) for x in vec)
                            for s, vec in gamma.coeffs.items()})


def _scalars():
    return st.builds(Fraction, st.integers(1, 10**6) | st.integers(-(10**6), -1),
                     st.sampled_from(_PRIMES))


def _assert_typed(entries, symbolic, scalar):
    """Each entry, or each coefficient of each polynomial entry, is exactly
    of type scalar."""
    for x in entries:
        if symbolic:
            assert isinstance(x, SparsePolynomial)
            assert all(type(c) is scalar for c in x.terms.values())
        else:
            assert type(x) is scalar


def _coefficients(x):
    return x.terms.values() if isinstance(x, SparsePolynomial) else (x,)


def _scale(gamma):
    """D: the lcm of every denominator in the jet, polynomial coefficients too."""
    return math.lcm(*(c.denominator for vec in gamma.coeffs.values() for x in vec
                      for c in _coefficients(x)))


def _check_phi(gamma, symbolic):
    """phi against the oracle; its integer core phi_integral holds ints and
    int-coefficient polynomials, D is the lcm of every denominator in the
    jet, and phi's row m is the core's row m over D^|m|."""
    pm = phi(gamma)
    assert dense(pm).data == phi_by_decompositions(gamma)
    entries = [x for col in pm.columns for x in col.values()]
    assert all(entries)
    _assert_typed(entries, symbolic, Fraction)
    columns, d = phi_integral(gamma)
    assert d == _scale(gamma)
    degree = lambda r: len(pm.basis.monomials[r])
    assert [set(col) for col in columns] == [set(col) for col in pm.columns]
    for col, icol in zip(pm.columns, columns):
        assert all(type(c) is int for x in icol.values() for c in _coefficients(x))
        assert all(x == col[r] * d ** degree(r) for r, x in icol.items())


def _check_curve_system(gamma, N, symbolic):
    """The system against the power oracle, typed by the jet's scale D: an
    integral jet (D = 1) gives ints and int-coefficient polynomials, as
    phi_integral does, any other jet Fractions; the zero cells share one
    int 0 or one Fraction(0) alike."""
    sysm = curve_system(gamma, N)
    expected = [[power_coefficient(gamma, m, s) if c == c2 else 0 for s, c2 in sysm.col_index]
                for m, c in sysm.row_index]
    assert sysm.matrix.data == expected
    scalar = int if _scale(gamma) == 1 else Fraction
    cells = [x for row in sysm.matrix.data for x in row]
    _assert_typed([x for x in cells if x], symbolic, scalar)
    zeros = {id(x): x for x in cells if not x}
    assert len(zeros) <= 1 and all(type(x) is scalar for x in zeros.values())


@_property
@given(_rational_jets())
def test_phi_equals_the_decomposition_oracle(gamma):
    _check_phi(gamma, symbolic=False)


@_property
@given(_symbolic_jets())
def test_phi_of_rational_symbolic_jets_equals_the_oracle(gamma):
    _check_phi(gamma, symbolic=True)


@_property
@given(_rational_jets(), st.integers(1, 2))
def test_curve_system_equals_the_power_oracle(gamma, N):
    _check_curve_system(gamma, N, symbolic=False)


@_property
@given(_symbolic_jets(), st.integers(1, 2))
def test_curve_system_of_rational_symbolic_jets_equals_the_oracle(gamma, N):
    _check_curve_system(gamma, N, symbolic=True)


@_property
@given(_rational_jets(), st.integers(1, 2))
def test_curve_system_of_integral_rational_jets_equals_the_oracle(gamma, N):
    """D * gamma has scale 1: the system skips the division and holds ints."""
    _check_curve_system(_times(gamma, _scale(gamma)), N, symbolic=False)


@pytest.mark.parametrize("p,k,n", [(1, 3, 2), (1, 4, 2), (2, 2, 2), (2, 3, 2)])
def test_symbolic_jets_equal_the_oracles(p, k, n):
    gamma, _ = symbolic_jet(p, n, k)
    _check_phi(gamma, symbolic=True)
    _check_curve_system(gamma, 2, symbolic=True)


def _times(gamma, c):
    return JetMap(gamma.p, gamma.q, gamma.k,
                  {s: tuple(c * x for x in vec) for s, vec in gamma.coeffs.items()})


@_property
@given(_rational_jets() | _symbolic_jets(), _scalars())
def test_phi_row_m_scales_by_c_to_the_letters_of_m(gamma, c):
    """phi(c * gamma)[row m] = c^|m| * phi(gamma)[row m]."""
    pm, pmc = phi(gamma), phi(_times(gamma, c))
    degree = lambda r: len(pm.basis.monomials[r])
    for col, colc in zip(pm.columns, pmc.columns):
        assert set(col) == set(colc)
        assert all(colc[r] == c ** degree(r) * x for r, x in col.items())


@_property
@given(_rational_jets() | _symbolic_jets(), _scalars())
def test_curve_system_column_s_scales_by_c_to_the_letters_of_s(gamma, c):
    """[u^m] (c * gamma(u))^s = c^|s| * [u^m] gamma(u)^s."""
    sysm, sysc = curve_system(gamma, 1), curve_system(_times(gamma, c), 1)
    for row, rowc in zip(sysm.matrix.data, sysc.matrix.data):
        assert all(xc == c ** sum(s) * x for (s, _), x, xc in zip(sysm.col_index, row, rowc))
