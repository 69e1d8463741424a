import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetinv.exact import Matrix, rank
from jetinv.jets import (
    JetMap,
    compose,
    flat_jet,
    group_matrix,
    random_jet,
    random_reparam,
    symbolic_jet,
)
from jetinv.embedding import (
    WedgeVector,
    apply_group_to_wedge,
    p_point,
    phi,
    wedge_of_sparse_vectors,
)
from jetinv.symbasis import sym_basis
from oracles import dense, same_span, sym_matrix_of


def _column_dict(pm, s):
    idx = pm.col_index.index(s)
    return {pm.basis.monomials[pos]: c for pos, c in pm.columns[idx].items()}


def _column_wedge(gamma):
    """The exterior product of all the columns of phi(gamma)."""
    pm = phi(gamma)
    return wedge_of_sparse_vectors(pm.n, pm.k, pm.columns)


def test_example_8_7_exact():
    """phi(v10, v01, v20, v11, v02) = (v10, v01, v20+v10^2, v11+2 v10 v01, v02+v01^2)."""
    gamma, ring = symbolic_jet(2, 2, 2, prefix="v")
    pm = phi(gamma)
    v = lambda s, j: ring.var(f"v[{s[0]},{s[1]}]_{j}")
    assert _column_dict(pm, (1, 0)) == {(1,): v((1, 0), 1), (2,): v((1, 0), 2)}
    assert _column_dict(pm, (0, 1)) == {(1,): v((0, 1), 1), (2,): v((0, 1), 2)}
    col20 = _column_dict(pm, (2, 0))
    assert col20[(1, 1)] == v((1, 0), 1) ** 2
    assert col20[(1, 2)] == 2 * v((1, 0), 1) * v((1, 0), 2)
    assert col20[(2, 2)] == v((1, 0), 2) ** 2
    assert col20[(1,)] == v((2, 0), 1)
    col11 = _column_dict(pm, (1, 1))
    assert col11[(1, 1)] == 2 * v((1, 0), 1) * v((0, 1), 1)
    assert col11[(1, 2)] == 2 * (
        v((1, 0), 1) * v((0, 1), 2) + v((1, 0), 2) * v((0, 1), 1)
    )
    assert col11[(1,)] == v((1, 1), 1)
    col02 = _column_dict(pm, (0, 2))
    assert col02[(1, 1)] == v((0, 1), 1) ** 2


def test_example_7_4_matrix_up_to_conventions():
    """The 2x5 display transposed; degree-1 rows exact, quadratic rows up to
    the documented per-entry normalization scalars."""
    gamma, ring = symbolic_jet(1, 2, 2)
    pm = phi(gamma)
    u = lambda i, j: ring.var(f"u{i}_{j}")
    col1 = _column_dict(pm, (1,))
    assert col1 == {(1,): u(1, 1), (2,): u(1, 2)}
    col2 = _column_dict(pm, (2,))
    # f''_i/2! = u2_i exactly; Sym^2 rows proportional to the display
    assert col2[(1,)] == u(2, 1) and col2[(2,)] == u(2, 2)
    display = {
        (1, 1): u(1, 1) ** 2,
        (1, 2): u(1, 1) * u(1, 2),
        (2, 2): u(1, 2) ** 2,
    }
    for mono, expected in display.items():
        actual = col2[mono]
        assert _proportional(actual, expected), mono


def _proportional(a, b):
    if not a or not b:
        return not a and not b
    return a.normalized() == b.normalized()


def test_example_7_5_blocks_up_to_conventions():
    """Both displayed blocks of the 3x19 case, entrywise up to nonzero
    scalars, raw derivatives translated to normalized coordinates."""
    gamma, ring = symbolic_jet(1, 3, 3)
    pm = phi(gamma)
    u = lambda i, j: ring.var(f"u{i}_{j}")
    fp = lambda j: u(1, j)  # f'_j
    fpp = lambda j: 2 * u(2, j)  # f''_j
    fppp = lambda j: 6 * u(3, j)  # f'''_j
    zero = ring.zero()
    display = {}
    # display row 1 = our column 1
    for j in (1, 2, 3):
        display[((j,), (1,))] = fp(j)
    # display row 2 = our column 2 over Sym^{<=2}
    for j in (1, 2, 3):
        display[((j,), (2,))] = fpp(j) * Fraction(1, 2)
    display[((1, 1), (2,))] = fp(1) ** 2
    display[((1, 2), (2,))] = fp(1) * fp(2)
    display[((2, 2), (2,))] = fp(2) ** 2
    display[((1, 3), (2,))] = fp(1) * fp(3)
    display[((2, 3), (2,))] = fp(2) * fp(3)
    display[((3, 3), (2,))] = fp(3) ** 2
    # display row 3 = our column 3
    for j in (1, 2, 3):
        display[((j,), (3,))] = fppp(j) * Fraction(1, 6)
    display[((1, 1), (3,))] = fp(1) * fpp(1)
    display[((1, 2), (3,))] = fp(1) * fpp(2) + fpp(1) * fp(2)
    display[((2, 2), (3,))] = fp(2) * fpp(2)
    display[((1, 3), (3,))] = fp(1) * fpp(3) + fp(3) * fpp(1)
    display[((2, 3), (3,))] = fp(2) * fpp(3) + fp(3) * fpp(2)
    display[((3, 3), (3,))] = fp(3) * fpp(3)
    display[((1, 1, 1), (3,))] = fp(1) ** 3
    display[((1, 1, 2), (3,))] = fp(1) ** 2 * fp(2)
    display[((1, 2, 2), (3,))] = fp(1) * fp(2) ** 2
    display[((2, 2, 2), (3,))] = fp(2) ** 3
    display[((1, 3, 3), (3,))] = fp(1) * fp(3) ** 2
    display[((1, 1, 3), (3,))] = fp(1) ** 2 * fp(3)
    display[((2, 2, 3), (3,))] = fp(2) ** 2 * fp(3)
    display[((2, 3, 3), (3,))] = fp(2) * fp(3) ** 2
    display[((3, 3, 3), (3,))] = fp(3) ** 3
    display[((1, 2, 3), (3,))] = fp(1) * fp(2) * fp(3)
    cols = {s: _column_dict(pm, s) for s in [(1,), (2,), (3,)]}
    for (mono, col), expected in display.items():
        actual = cols[col].get(mono, zero)
        assert _proportional(actual, expected), (mono, col, str(actual), str(expected))
    # zero pattern: Sym^2 and Sym^3 rows vanish on column 1; Sym^3 on column 2
    for mono in sym_basis(3, 3).monomials:
        if len(mono) >= 2:
            assert mono not in cols[(1,)]
        if len(mono) == 3:
            assert mono not in cols[(2,)]


def test_p_point_small():
    p2 = p_point(1, 2)
    b = p2.basis()
    terms = {tuple(b.monomials[x] for x in t): c for t, c in p2.terms.items()}
    assert terms == {((1,), (2,)): Fraction(1), ((1,), (1, 1)): Fraction(1)}
    p3 = p_point(1, 3)
    assert len(p3.terms) == 6
    p22 = p_point(2, 2)
    assert p22.r == 5 and p22.n == 5
    assert len(p22.terms) == 8


def test_wedge_repeated_vector_vanishes():
    vec = {0: Fraction(1), 2: Fraction(-3)}
    w = wedge_of_sparse_vectors(2, 2, [vec, dict(vec)])
    assert w.is_zero()
    # a zero column wedges to zero
    gamma = JetMap(1, 2, 2, {(2,): (Fraction(1), Fraction(2))})
    assert _column_wedge(gamma).is_zero()


_fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)).filter(bool)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.dictionaries(st.integers(0, 8), _fractions, min_size=1, max_size=5),
    min_size=r, max_size=r)))
def test_wedge_coefficients_are_row_minors(vectors):
    # sym_basis(2, 3) has 9 positions
    w = wedge_of_sparse_vectors(2, 3, vectors)
    r = len(vectors)
    support = sorted(set().union(*vectors))
    for rows in itertools.combinations(support, r):
        minor = Matrix([[vec.get(pos, Fraction(0)) for vec in vectors] for pos in rows])
        assert w.terms.get(rows, Fraction(0)) == minor.det()
    assert all(type(c) is Fraction and c for c in w.terms.values())
    assert set(w.terms) <= set(itertools.combinations(support, r))


def test_degenerate_jet_wedge():
    k = 3
    gamma = JetMap(1, k, k, {(1,): tuple(Fraction(1 if j == 0 else 0) for j in range(k))})
    w = _column_wedge(gamma)
    b = w.basis()
    terms = {tuple(b.monomials[x] for x in t): c for t, c in w.terms.items()}
    assert terms == {((1,), (1, 1), (1, 1, 1)): Fraction(1)}
    assert not _in_affine_chart(w)


def _in_affine_chart(w):
    """Some term uses only degree-1 factors: the projection to the top cell
    of the wedge of the linear block is nonzero."""
    return any(all(len(w.basis().monomials[pos]) == 1 for pos in t) for t in w.terms)


def test_affine_chart():
    assert _in_affine_chart(p_point(1, 2))
    assert _in_affine_chart(p_point(2, 2))
    w = WedgeVector(2, 2, 1, {})
    assert not _in_affine_chart(w)


def _flag(pm, d):
    """The column vectors of a curve's embedding of degree <= d, its first d."""
    return [[col.get(r, 0) for r in range(len(pm.basis))] for col in pm.columns[:d]]


def test_flag_spans_dims():
    rng = random.Random(3)
    gamma = JetMap(1, 2, 2, {(1,): (Fraction(1), Fraction(0))})
    g3 = random_jet(rng, 1, 3, 3, bound=7, regular=True)
    for jet, dims in [(flat_jet(1, 4), [1, 2, 3, 4]), (gamma, [1, 2]), (g3, [1, 2, 3])]:
        pm = phi(jet)
        assert [rank(_flag(pm, d)) for d in range(1, pm.k + 1)] == dims


def test_flag_invariance_under_reparam():
    rng = random.Random(5)
    for _ in range(10):
        gamma = random_jet(rng, 1, 3, 3, bound=6, regular=True)
        psi = random_reparam(rng, 1, 3, bound=6)
        pm1, pm2 = phi(gamma), phi(compose(gamma, psi))
        for d in range(1, 4):
            assert same_span(_flag(pm1, d), _flag(pm2, d))


@pytest.mark.parametrize("p,k,n", [(1, 2, 2), (1, 3, 3), (1, 4, 4), (2, 2, 5)])
def test_equivariance_right_action(p, k, n):
    rng = random.Random(k * 10 + p)
    for _ in range(6):
        gamma = random_jet(rng, p, n, k, bound=5, regular=True)
        psi = random_reparam(rng, p, k, bound=5)
        lhs = dense(phi(compose(gamma, psi)))
        rhs = dense(phi(gamma)) @ group_matrix(psi)
        assert lhs == rhs


def test_gl_equivariance():
    rng = random.Random(8)
    n, k = 3, 3
    for _ in range(6):
        gamma = random_jet(rng, 1, n, k, bound=5)
        g = Matrix([[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)])
        moved = JetMap(
            1,
            n,
            k,
            {
                s: tuple(
                    sum(g.data[r][c] * vec[c] for c in range(n)) for r in range(n)
                )
                for s, vec in gamma.coeffs.items()
            },
        )
        lhs = dense(phi(moved))
        rhs = sym_matrix_of(g, n, k) @ dense(phi(gamma))
        assert lhs == rhs


def test_wedge_scaling_by_group_determinant():
    rng = random.Random(13)
    for p, k, n in [(1, 3, 3), (2, 2, 5)]:
        for _ in range(5):
            gamma = random_jet(rng, p, n, k, bound=4, regular=True)
            psi = random_reparam(rng, p, k, bound=4)
            m = group_matrix(psi)
            w1 = _column_wedge(compose(gamma, psi))
            w0 = _column_wedge(gamma)
            det = m.det()
            assert w1 == w0.scaled(det)
            # special linear part with unipotent-like normalization: det 1
            psi_s = random_reparam(rng, p, k, bound=4, special=True)
            ms = group_matrix(psi_s)
            assert ms.det() == 1
            w2 = _column_wedge(compose(gamma, psi_s))
            assert w2 == w0


def test_group_action_on_wedge_matches_phi_of_matrix():
    """g . p_k equals the embedded wedge of the jet whose coefficients are
    the columns of g (the orbit description of the distinguished point)."""
    rng = random.Random(21)
    k = 3
    pk = p_point(1, k)
    for _ in range(5):
        g = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)])
        if g.det() == 0:
            continue
        jet = JetMap(
            1,
            k,
            k,
            {(i,): tuple(g.data[r][i - 1] for r in range(k)) for i in range(1, k + 1)},
        )
        assert apply_group_to_wedge(g, pk) == _column_wedge(jet)


def test_unipotent_group_fixes_p_point():
    rng = random.Random(34)
    for k in (2, 3, 4):
        pk = p_point(1, k)
        for _ in range(5):
            psi = random_reparam(rng, 1, k, bound=6, unipotent=True)
            m = group_matrix(psi)
            assert apply_group_to_wedge(m, pk) == pk


_coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _jet_and_reparam(draw):
    """A rational jet C^p -> C^n and a reparametrization of C^p, p in {1, 2}."""
    p, k, n = draw(st.sampled_from([(1, 2, 1), (1, 3, 2), (1, 4, 2), (1, 3, 3),
                                    (2, 2, 2), (2, 3, 2), (2, 2, 3)]))
    exponents = sym_basis(p, k).exponents
    gamma = JetMap(p, n, k, {s: tuple(draw(_coefficients) for _ in range(n)) for s in exponents})
    psi = JetMap(p, p, k, {s: tuple(draw(_coefficients) for _ in range(p)) for s in exponents})
    assume(psi.is_reparam())
    return gamma, psi


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_jet_and_reparam())
def test_phi_intertwines_composition_and_group_matrix(pair):
    gamma, psi = pair
    assert dense(phi(compose(gamma, psi))) == dense(phi(gamma)) @ group_matrix(psi)


@st.composite
def _matrix_and_wedge(draw):
    """A matrix g, drawn as it comes, singular or with a zero column, and a
    sparse wedge over Sym^{<=k} C^n with at most three terms."""
    n, k = draw(st.sampled_from([(1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]))
    size = len(sym_basis(n, k))
    g = [[draw(_coefficients) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["drawn", "singular", "zero column"]))
    if kind == "singular" and n > 1:
        for row in g:
            row[-1] = 2 * row[0]
    elif kind != "drawn":  # for n = 1 the only singular g
        j = draw(st.integers(0, n - 1))
        for row in g:
            row[j] = Fraction(0)
    r = draw(st.integers(1, min(3, size)))
    factors = st.sets(st.integers(0, size - 1), min_size=r, max_size=r).map(sorted).map(tuple)
    terms = draw(st.dictionaries(factors, _coefficients.filter(bool), max_size=3))
    return Matrix(g), WedgeVector(n, k, r, terms)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_matrix_and_wedge())
def test_group_action_on_wedge_is_the_wedge_of_oracle_columns(case):
    """g acting on a wedge is the sum over its terms of the coefficient times
    the wedge of the columns of the dense induced action at the term's
    factors; that wedge's coefficient at rows T is the minor on T."""
    g, w = case
    image = sym_matrix_of(g, w.n, w.k).data
    expected = {}
    for factors, c in w.terms.items():
        rows = [i for i, row in enumerate(image) if any(row[j] for j in factors)]
        for t in itertools.combinations(rows, w.r):
            expected[t] = expected.get(t, 0) + c * Matrix([[image[i][j] for j in factors] for i in t]).det()
    assert apply_group_to_wedge(g, w).terms == {t: v for t, v in expected.items() if v}
