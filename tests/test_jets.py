import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetinv.exact import Matrix, PolyRing
from jetinv.jets import (
    JetMap,
    compose,
    gkp_entry,
    group_matrix,
    group_param_name,
    identity_jet,
    invert,
    jet_var_name,
    powers,
    random_jet,
    random_reparam,
    symbolic_jet,
    symbolic_reparam,
)
from jetinv.symbasis import orderings_count, partitions_of, sym_basis
from oracles import inverse, power_coefficient, sparse_product, vector_to_sym


def test_compose_identity():
    rng = random.Random(0)
    f = random_jet(rng, 1, 3, 3)
    assert compose(identity_jet(3, 3), f) == f
    assert compose(f, identity_jet(1, 3)) == f


def test_compose_k2_by_hand():
    g = JetMap(1, 1, 2, {(1,): (Fraction(2),), (2,): (Fraction(3),)})
    f = JetMap(1, 1, 2, {(1,): (Fraction(5),), (2,): (Fraction(7),)})
    out = compose(g, f)
    # g(f(t)) = g1*f1 t + (g1*f2 + g2*f1^2) t^2
    assert out.coeffs[(1,)] == (Fraction(10),)
    assert out.coeffs[(2,)] == (Fraction(2 * 7 + 3 * 25),)


def test_compose_associative_random():
    rng = random.Random(1)
    for p, k in [(1, 4), (2, 2)]:
        for _ in range(15):
            h = random_reparam(rng, p, k, bound=6)
            g = random_reparam(rng, p, k, bound=6)
            f = random_reparam(rng, p, k, bound=6)
            assert compose(compose(h, g), f) == compose(h, compose(g, f))


def test_group_matrix_eq1_small():
    psi, ring = symbolic_reparam(1, 2)
    m = group_matrix(psi)
    a1, a2 = ring.var("a1"), ring.var("a2")
    assert m.data[0] == [a1, a2]
    assert m.data[1][0] == 0 and m.data[1][1] == a1**2


def test_group_matrix_identity():
    assert group_matrix(identity_jet(1, 3)) == Matrix.identity(3)
    assert group_matrix(identity_jet(2, 2)) == Matrix.identity(5)


def test_gk_entry_fixtures():
    _, ring = symbolic_reparam(1, 4)
    a = {i: ring.var(f"a{i}") for i in range(1, 5)}
    assert gkp_entry((1, 1), (1, 1, 1), 1, 4, ring) == 2 * a[1] * a[2]
    assert gkp_entry((1, 1, 1), (1, 1), 1, 4, ring) == 0
    for j in range(1, 5):
        assert gkp_entry((1,), (1,) * j, 1, 4, ring) == a[j]


@pytest.mark.parametrize("p,k", [(1, 4), (1, 8), (2, 2), (2, 3), (2, 4), (3, 3)])
def test_closed_form_matches_oracle(p, k):
    psi, ring = symbolic_reparam(p, k)
    m = group_matrix(psi)
    basis = sym_basis(p, k)
    for i, tau in enumerate(basis.monomials):
        for j, nu in enumerate(basis.monomials):
            assert m.data[i][j] == gkp_entry(tau, nu, p, k, ring), (tau, nu)


def test_example_2_1_pinned_entries():
    """The worked 9x9 case: generating first rows, P, Q, and the clean rows."""
    psi, ring = symbolic_reparam(2, 3)
    m = group_matrix(psi)
    basis = sym_basis(2, 3)
    a = lambda s: ring.var(group_param_name(1, s))
    b = lambda s: ring.var(group_param_name(2, s))
    # first two rows are the free parameters, in basis order
    for j, nu in enumerate(basis.exponents):
        assert m.data[0][j] == a(nu)
        assert m.data[1][j] == b(nu)
    i_e1e2 = basis.position[(1, 2)]
    j_112 = basis.position[(1, 1, 2)]
    j_122 = basis.position[(1, 2, 2)]
    P = a((1, 0)) * b((1, 1)) + a((1, 1)) * b((1, 0)) + a((2, 0)) * b((0, 1)) + a((0, 1)) * b((2, 0))
    Q = a((0, 1)) * b((1, 1)) + a((1, 1)) * b((0, 1)) + a((0, 2)) * b((1, 0)) + a((1, 0)) * b((0, 2))
    assert m.data[i_e1e2][j_112] == P
    assert m.data[i_e1e2][j_122] == Q
    # block (2,2) row e1e2 as displayed
    assert m.data[i_e1e2][basis.position[(1, 1)]] == a((1, 0)) * b((1, 0))
    assert m.data[i_e1e2][i_e1e2] == a((1, 0)) * b((0, 1)) + a((0, 1)) * b((1, 0))
    assert m.data[i_e1e2][basis.position[(2, 2)]] == a((0, 1)) * b((0, 1))
    # block upper triangularity
    for i, tau in enumerate(basis.monomials):
        for j, nu in enumerate(basis.monomials):
            if len(tau) > len(nu):
                assert m.data[i][j] == 0


def test_group_law_random():
    rng = random.Random(9)
    for p, k, trials in [(1, 4, 25), (2, 3, 8)]:
        for _ in range(trials):
            psi = random_reparam(rng, p, k, bound=6)
            chi = random_reparam(rng, p, k, bound=6)
            assert group_matrix(compose(psi, chi)) == group_matrix(psi) @ group_matrix(chi)


def test_group_law_product_order_frozen():
    """Regression: the law is M(psi o chi) = M(psi) M(chi), not the reverse.

    Pinned on a pair where the matrices do not commute."""
    psi = JetMap(1, 1, 3, {(1,): (Fraction(1),), (2,): (Fraction(1),)})
    chi = JetMap(1, 1, 3, {(1,): (Fraction(2),)})
    lhs = group_matrix(compose(psi, chi))
    good = group_matrix(psi) @ group_matrix(chi)
    bad = group_matrix(chi) @ group_matrix(psi)
    assert lhs == good
    assert not (lhs == bad)


def test_unipotent_diagonal_and_exact_sequence():
    rng = random.Random(4)
    for p, k in [(1, 4), (2, 2)]:
        psi = random_reparam(rng, p, k, bound=6, unipotent=True)
        m = group_matrix(psi)
        size = len(sym_basis(p, k))
        for i in range(size):
            assert m.data[i][i] == 1
        # diagonal depends only on the linear block
        chi = random_reparam(rng, p, k, bound=6)
        chi2_coeffs = dict(chi.coeffs)
        for s in sym_basis(p, k).exponents:
            if sum(s) > 1:
                chi2_coeffs[s] = tuple(Fraction(0) for _ in range(p))
        chi2 = JetMap(p, p, k, chi2_coeffs)
        m1 = group_matrix(chi)
        m2 = group_matrix(chi2)
        for i in range(size):
            assert m1.data[i][i] == m2.data[i][i]


def test_invert_hand_case_and_two_sided():
    rng = random.Random(6)
    for _ in range(25):
        psi = random_reparam(rng, 1, 2, bound=8)
        inv = invert(psi)
        a1 = psi.coeffs[(1,)][0]
        a2 = psi.coefficient((2,))[0]
        assert inv.coeffs[(1,)][0] == 1 / a1
        assert inv.coefficient((2,))[0] == -a2 / a1**3
    for p, k in [(1, 4), (2, 3)]:
        for _ in range(25 if p == 1 else 8):
            psi = random_reparam(rng, p, k, bound=6)
            inv = invert(psi)
            assert compose(psi, inv) == identity_jet(p, k)
            assert compose(inv, psi) == identity_jet(p, k)
            assert invert(inv) == psi


_coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
_property = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def _reparams(draw, p, k):
    """Rational reparametrization jets with an invertible linear block."""
    coeffs = {s: tuple(draw(_coefficients) for _ in range(p)) for s in sym_basis(p, k).exponents}
    jet = JetMap(p, p, k, coeffs)
    assume(jet.linear_matrix().det() != 0)
    return jet


_shapes = st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)])


@_property
@given(_shapes.flatmap(lambda pk: st.tuples(_reparams(*pk), _reparams(*pk))))
def test_group_law_property(pair):
    psi, chi = pair
    assert group_matrix(compose(psi, chi)) == group_matrix(psi) @ group_matrix(chi)


@_property
@given(_shapes.flatmap(lambda pk: _reparams(*pk)))
def test_invert_round_trips(psi):
    inv = invert(psi)
    identity = identity_jet(psi.p, psi.k)
    assert compose(psi, inv) == identity
    assert compose(inv, psi) == identity
    assert invert(inv) == psi


@_property
@given(st.sampled_from([(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]), st.integers(0, 2**32))
def test_invert_reads_the_linear_rows_of_the_inverse(shape, seed):
    """invert solves for the p linear rows of the inverse group matrix only;
    they equal the first p rows of the whole inverse."""
    p, k = shape
    psi = random_jet(random.Random(seed), p, p, k, bound=5, regular=True)
    m = group_matrix(psi)
    rows = inverse(m).data[:p]
    assert m.inverse_rows(p) == rows
    exps = sym_basis(p, k).exponents
    assert [[invert(psi).coefficient(s)[i] for s in exps] for i in range(p)] == rows


@st.composite
def _sparse_jets(draw, p, q, k, reparam=False):
    """Rational jets C^p -> C^q on a few drawn exponents; a reparametrization
    (q = p) also has every linear exponent, with an invertible block."""
    exps = sym_basis(p, k).exponents
    support = draw(st.lists(st.sampled_from(exps), unique=True, max_size=4))
    if reparam:
        support = exps[:p] + support
    jet = JetMap(p, q, k, {s: tuple(draw(_coefficients) for _ in range(q)) for s in support})
    if reparam:
        assume(jet.is_reparam())
    return jet


@st.composite
def _power_cases(draw):
    """(f, exps, g, psi): f: C^p -> C^q, a few exponents over q letters in
    drawn order (so the memo fills out of order), g: C^q -> C^r and a
    reparametrization psi of C^p, all of order k."""
    p, q, k = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    f = draw(_sparse_jets(p, q, k))
    exps = draw(st.lists(st.sampled_from(sym_basis(q, k).exponents), unique=True,
                         min_size=1, max_size=6))
    g = draw(_sparse_jets(q, draw(st.integers(1, 2)), k))
    return f, exps, g, draw(_sparse_jets(p, p, k, reparam=True))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_power_cases())
def test_powers_compose_and_group_matrix_are_power_oracle_sums(case):
    """The one power table against [u^t] f(u)^s by ordered decompositions:
    the table itself, compose(g, f) = sum_s g_s f^s, and row s of the group
    matrix."""
    f, exps, g, psi = case
    ts = sym_basis(f.p, f.k).exponents
    oracle = lambda jet, s: {t: c for t in ts if (c := power_coefficient(jet, t, s))}
    assert powers(f, exps) == {s: oracle(f, s) for s in exps}
    expected = {t: tuple(sum(gvec[r] * power_coefficient(f, t, s) for s, gvec in g.coeffs.items())
                         for r in range(g.q)) for t in ts}
    assert compose(g, f) == JetMap(f.p, g.q, f.k, expected)
    assert group_matrix(psi) == Matrix([[power_coefficient(psi, t, s) for t in ts] for s in ts])


@pytest.mark.parametrize("p, k", [(1, 7), (1, 8), (2, 3), (2, 4)])
def test_powers_are_the_reference_products_where_the_field_width_changes(p, k):
    """The packed fields of ``powers`` are k.bit_length() bits wide: 3 then 4
    for p = 1, 2 then 3 for p = 2.  Every power over two letters against
    repeated tuple-keyed products truncated at k."""
    f = random_jet(random.Random(k), p, 2, k, bound=5)
    coords = [{t: vec[j] for t, vec in f.coeffs.items() if vec[j]} for j in range(2)]
    exps = sym_basis(2, k).exponents
    expected = {}
    for s in exps:
        prod = {(0,) * p: Fraction(1)}
        for j, e in enumerate(s):
            for _ in range(e):
                prod = sparse_product(prod, coords[j], k)
        expected[s] = prod
    assert powers(f, exps) == expected


def test_invert_rejects_symbolic_and_singular():
    psi, _ = symbolic_reparam(1, 2)
    with pytest.raises(TypeError):
        invert(psi)
    with pytest.raises(ValueError):
        invert(JetMap(1, 1, 2, {(2,): (Fraction(1),)}))


def test_composition_matches_partition_expansion():
    """Raw-derivative form of the vanishing equations.

    The m-th coefficient of the composed jet equals the partition sum
    sum_tau perm(tau)/prod(i!) Psi(gamma_tau) once raw derivatives
    gamma^(i) = i! gamma_i and the hom pairing are substituted.
    """
    k, n = 4, 2
    dom = sym_basis(1, k)
    names = []
    for s in dom.exponents:
        for j in range(1, n + 1):
            names.append(jet_var_name("u", s, j))
    psi_basis = sym_basis(n, k)
    for s in psi_basis.exponents:
        names.append(jet_var_name("P", s, 1))
    ring = PolyRing(names)
    gamma = JetMap(
        1,
        n,
        k,
        {
            s: tuple(ring.var(jet_var_name("u", s, j)) for j in range(1, n + 1))
            for s in dom.exponents
        },
    )
    psi = JetMap(
        n,
        1,
        k,
        {s: (ring.var(jet_var_name("P", s, 1)),) for s in psi_basis.exponents},
    )
    composed = compose(psi, gamma)

    def psi_hom(sym_elt):
        total = ring.zero()
        for s, coeff in sym_elt.items():
            total = total + ring.var(jet_var_name("P", s, 1)) * coeff * Fraction(
                1, psi_basis.orderings[psi_basis.exponent_position[s]]
            )
        return total

    for m in range(1, k + 1):
        rhs = ring.zero()
        for tau in partitions_of(m):
            raw = {(0,) * n: Fraction(1)}
            for i in tau:
                vec = tuple(c * factorial(i) for c in gamma.coeffs[(i,)])
                raw = sparse_product(raw, vector_to_sym(vec, n))
            coeff = Fraction(orderings_count(tau))
            for i in tau:
                coeff /= factorial(i)
            rhs = rhs + coeff * psi_hom(raw)
        assert composed.coeffs[(m,)][0] == rhs, m


def test_regular_random_jet_needs_n_at_least_p():
    with pytest.raises(ValueError):
        random_jet(random.Random(0), 3, 2, 2, regular=True)
    assert random_jet(random.Random(0), 3, 2, 2).q == 2  # non-regular draws still work


def test_integral_scales_every_coefficient_by_one_lcm():
    jet = JetMap(1, 2, 2, {(1,): (Fraction(1, 4), Fraction(-3)), (2,): (Fraction(5, 6), 0)})
    scaled, d = jet.integral()
    assert d == 12
    assert scaled.coeffs == {(1,): (3, -36), (2,): (10, 0)}
    assert all(type(c) is int for vec in scaled.coeffs.values() for c in vec)
    gamma, ring = symbolic_jet(1, 2, 2)
    half = JetMap(1, 2, 2, {s: tuple(x * Fraction(1, 2) + Fraction(1, 3) for x in vec)
                            for s, vec in gamma.coeffs.items()})
    scaled, d = half.integral()
    assert d == 6 and scaled.coeffs[(1,)][0] == 3 * ring.var("u1_1") + 2
    assert gamma.integral() == (gamma, 1)
