import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.exact import Matrix, kernel_basis, rank
from jetinv.embedding import WedgeVector, apply_group_to_wedge, p_point, wedge_of_sparse_vectors
from jetinv.invariants import ResourceLimitError
from jetinv.orbits import (
    EpsWeight,
    OneParamSubgroup,
    TwistedPoint,
    closed_form_matches_limit,
    codim_report,
    distinguished_stabilizer,
    extra_direction_is_new,
    extra_stabilizer,
    extra_stabilizer_case,
    head,
    hilbert_mumford_torus,
    infinitesimal_stabilizer,
    lambda_sigma,
    lambda_tilde,
    limit_of_distinguished,
    limit_point,
    limit_stabilizer_matrix,
    mu_sigma,
    n_sigma_exponents,
    probe_stabilizer_conjecture,
    theta_choice,
    twist_exponent,
    z_closed_form,
    _cut_columns,
    _minimal_weight_parts,
    _span_stabilizer,
)
from jetinv.symbasis import _sym_basis_cached, partitions_of, sym_basis
from oracles import (
    distinguished_twisted_point,
    hilbert_mumford_bruteforce,
    lie_action_on_wedge,
    limit_by_eps_weights,
    stabilizer_full_tensor_e1,
    weight_of,
)


def test_eps_weight_order():
    assert EpsWeight.of(1) < EpsWeight.of(2, -5)
    assert EpsWeight.of(2, -1) < EpsWeight.of(2)
    assert EpsWeight.of(0, 1) > EpsWeight.of(0)
    assert EpsWeight.of(1, 2) + EpsWeight.of(3, -2) == EpsWeight.of(4)
    assert str(EpsWeight.of(2, -1)) == "2-1e"


def test_distinguished_subgroups():
    l2 = lambda_sigma(2, 4)
    assert [(w.a, w.b) for w in l2.weights] == [(1, 0), (2, -1), (3, -1), (4, -2)]
    m3 = mu_sigma(3, 4)
    assert [(w.a, w.b) for w in m3.weights] == [(1, 0), (2, 0), (3, 1), (4, 0)]
    assert head(l2) == (2, "regular")
    assert head(m3) == (3, "degenerate")
    assert head(lambda_tilde(5)) is None
    with pytest.raises(ValueError):
        lambda_sigma(1, 4)
    with pytest.raises(ValueError):
        mu_sigma(4, 4)  # the degenerate family stops at k-1


def test_weight_of():
    lam = OneParamSubgroup((EpsWeight.of(1), EpsWeight.of(2), EpsWeight.of(3)))
    assert weight_of(lam, (1, 2)) == EpsWeight.of(3)
    lt = lambda_tilde(6)
    for tau in [(1, 1, 2), (3, 3), (6,)]:
        assert weight_of(lt, tau) == EpsWeight.of(sum(tau))
    l2 = lambda_sigma(2, 4)
    assert weight_of(l2, (2, 2)) == EpsWeight.of(4, -2)


def test_limit_point_fixtures():
    p4 = p_point(1, 4)
    lt = lambda_tilde(4)
    assert limit_point(p4, lt) == p4
    zl = limit_point(p4, lambda_sigma(2, 4))
    b = zl.basis()
    terms = {tuple(b.monomial_at(x) for x in t): c for t, c in zl.terms.items()}
    # e1 ^ e2 ^ (e3 + 2 e1e2) ^ (e4 + e2^2) expanded
    assert terms == {
        ((1,), (2,), (3,), (4,)): Fraction(1),
        ((1,), (2,), (3,), (2, 2)): Fraction(1),
        ((1,), (2,), (1, 2), (2, 2)): Fraction(2),
        ((1,), (2,), (4,), (1, 2)): Fraction(-2),
    }
    zm = limit_point(p4, mu_sigma(2, 4))
    terms_m = {tuple(zm.basis().monomial_at(x) for x in t): c for t, c in zm.terms.items()}
    # e1 ^ e1^2 ^ (e3 + e1^3) ^ (e4 + 2 e1e3 + e1^4)
    expected_cols = [
        {(1,): 1},
        {(1, 1): 1},
        {(3,): 1, (1, 1, 1): 1},
        {(4,): 1, (1, 3): 2, (1, 1, 1, 1): 1},
    ]
    count = 1
    for c in expected_cols:
        count *= len(c)
    assert len(terms_m) == count
    with pytest.raises(ValueError):
        limit_point(WedgeVector(2, 2, 1, {}), lt)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_closed_form_equals_limit(k):
    pk = p_point(1, k)
    for sigma in range(2, k + 1):
        assert z_closed_form(sigma, k, "regular") == limit_point(pk, lambda_sigma(sigma, k))
        assert closed_form_matches_limit(sigma, k, "regular")
    for sigma in range(2, k):
        assert z_closed_form(sigma, k, "degenerate") == limit_point(pk, mu_sigma(sigma, k))
        assert closed_form_matches_limit(sigma, k, "degenerate")


@pytest.mark.parametrize("k", [8, 9, 10])
def test_closed_form_matches_limit_k8_to_k10(k):
    for sigma in range(2, k + 1):
        assert closed_form_matches_limit(sigma, k, "regular")
    for sigma in range(2, k):
        assert closed_form_matches_limit(sigma, k, "degenerate")


def test_closed_form_verdict_tells_a_wrong_filter_apart(monkeypatch):
    """The sigma + 1 filter against the lambda_sigma limit is refuted, and
    `orbit closed-form` exits 1 on it."""
    import jetinv.orbits
    from jetinv.cli import main

    right = jetinv.orbits._closed_form_parts
    monkeypatch.setattr(jetinv.orbits, "_closed_form_parts",
                        lambda sigma, k, kind: right(sigma + 1, k, kind))
    assert not closed_form_matches_limit(2, 6, "regular")
    assert main(["orbit", "closed-form", "--k", "6", "--sigma", "2", "--kind", "lambda"]) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_eps_robustness(k):
    for eps in (Fraction(1, k + 2), Fraction(1, 10 * k)):
        for sigma in range(2, k + 1):
            assert limit_of_distinguished(sigma, k, "regular", eps=eps) == z_closed_form(
                sigma, k, "regular"
            )
        for sigma in range(2, k):
            assert limit_of_distinguished(sigma, k, "degenerate", eps=eps) == z_closed_form(
                sigma, k, "degenerate"
            )


_small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _wedge_and_subgroup(draw):
    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        w = p_point(1, k)
    else:
        d = draw(st.integers(1, 3))
        size = len(sym_basis(k, d))
        vec = st.dictionaries(st.integers(0, size - 1), _small_rationals.filter(bool),
                              min_size=1, max_size=5)
        w = wedge_of_sparse_vectors(k, d, draw(st.lists(vec, min_size=1, max_size=3)))
    return w, draw(_subgroups(k))


@st.composite
def _subgroups(draw, k):
    """Diagonal subgroups of any sign, with a formal or a rational eps part."""
    pairs = draw(st.lists(st.tuples(_small_rationals, _small_rationals), min_size=k, max_size=k))
    if draw(st.booleans()):
        weights = tuple(EpsWeight(a, b) for a, b in pairs)
    else:
        eps = draw(st.builds(Fraction, st.integers(1, 7), st.just(8)))
        weights = tuple(EpsWeight(a + b * eps) for a, b in pairs)
    return OneParamSubgroup(weights)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_wedge_and_subgroup())
def test_limit_point_matches_eps_weight_oracle(case):
    w, lam = case
    if w.is_zero():
        return
    assert limit_point(w, lam).terms == limit_by_eps_weights(w, lam)


@lru_cache(maxsize=None)
def _p_point(k):
    return p_point(1, k)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(st.integers(2, 6).flatmap(_subgroups))
def test_minimal_weight_columns_wedge_to_the_limit(lam):
    k = lam.k
    limit = wedge_of_sparse_vectors(k, k, _cut_columns(k, _minimal_weight_parts(lam, k)))
    assert limit == limit_point(_p_point(k), lam)


@pytest.fixture(scope="module")
def p7():
    return p_point(1, 7)


@pytest.mark.parametrize("sigma,kind,subgroup", [(3, "regular", lambda_sigma),
                                                (2, "degenerate", mu_sigma)])
def test_closed_form_equals_limit_k7(p7, sigma, kind, subgroup):
    z = z_closed_form(sigma, 7, kind, force=True)
    assert z == limit_point(p7, subgroup(sigma, 7))
    assert z == limit_point(p7, subgroup(sigma, 7, Fraction(1, 16)))


def test_degenerate_kind_rejected_at_sigma_k():
    with pytest.raises(ValueError):
        z_closed_form(4, 4, "degenerate")


def test_degree2_column_of_degenerate():
    z = z_closed_form(2, 4, "degenerate")
    b = z.basis()
    degree2 = {
        m
        for t in z.terms
        for m in (b.monomial_at(p) for p in t)
        if sum(m) == 2
    }
    assert degree2 == {(1, 1)}  # partitions of 2 avoiding the part 2


def test_rho_inequalities():
    """rho_j = j lambda_1 - lambda_j satisfies the partition subadditivity
    required of limit candidates."""
    for k in range(2, 7):
        for sigma in range(2, k + 1):
            lam = lambda_sigma(sigma, k)
            rho = [lam.weights[0] * j - lam.weights[j - 1] for j in range(1, k)]
            for j in range(2, k):
                for tau in partitions_of(j):
                    total = rho[tau[0] - 1]
                    for i in tau[1:]:
                        total = total + rho[i - 1]
                    assert not (total > rho[j - 1])


# -- stabilizers -------------------------------------------------------------


def test_lemma_6_1_dimensions():
    for k in (2, 3, 4):
        for M in (1, 2):
            tp = distinguished_twisted_point(1, k, M)
            assert tp.b == M * k * (k + 1) // 2 + 1
            res = infinitesimal_stabilizer(tp, "sl", "affine")
            assert res.dimension == k - 1, (k, M)
            for X in res.basis:
                for i in range(k):
                    for j in range(i + 1):
                        assert X.data[i][j] == 0


def test_stabilizer_basis_spans_unipotent_lie_algebra():
    """The stabilizer basis of the twisted distinguished point spans exactly
    the linearization of the one-dimensional reparametrization group: the
    degree-i parameter directions of the group matrix at the identity."""
    from jetinv.jets import JetMap, group_matrix

    for k in (2, 3, 4):
        res = infinitesimal_stabilizer(
            distinguished_twisted_point(1, k, 1), "sl", "affine"
        )
        gens = []
        for i in range(2, k + 1):
            # group matrix along alpha_i = t; entries have degree <= 2 in t,
            # so two evaluations separate the linear part
            m1 = group_matrix(JetMap(1, 1, k, {(1,): (Fraction(1),), (i,): (Fraction(1),)}))
            m2 = group_matrix(JetMap(1, 1, k, {(1,): (Fraction(1),), (i,): (Fraction(2),)}))
            ident = Matrix.identity(k)
            lin = [
                [
                    (4 * (m1.data[r][c] - ident.data[r][c]) - (m2.data[r][c] - ident.data[r][c]))
                    / 2
                    for c in range(k)
                ]
                for r in range(k)
            ]
            gens.append([x for row in lin for x in row])
        stab = [[x for row in X.data for x in row] for X in res.basis]
        assert rank(gens) == rank(stab) == rank(gens + stab) == k - 1


def test_twist_reduction_vs_full_tensor_k2():
    """Full tensor expansion at k=2, K=2 agrees with the reduced system."""
    w = p_point(1, 2)
    for K in (2, 3, 4):
        full_dim = stabilizer_full_tensor_e1(w, K, "sl")
        reduced = infinitesimal_stabilizer(
            TwistedPoint(wedge=w, a=1, b=K, twist_dim=1), "sl", "affine"
        )
        assert full_dim == reduced.dimension, K


def test_wedge_twist_reduction_vs_full_tensor():
    """Same cross-check for the wedge-line twist at a small synthetic size,
    on the decomposable wedge e1 ^ (e2 + 2 e1e2 - e3)."""
    n, p, K = 3, 2, 2
    w = _wedge_of(n, 2, [{(1,): 1}, {(2,): 1, (1, 2): 2, (3,): -1}])
    assert len(w.terms) == 3
    unknowns = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    pairs = list(itertools.combinations(range(1, n + 1), p))  # wedge-line basis

    def line_action(a, b):
        """X on e_1 ^ ... ^ e_p expanded over the pair basis, per slot."""
        out = {}
        base = tuple(range(1, p + 1))
        for slot in range(p):
            letter = base[slot]
            if b != letter:
                continue
            replaced = list(base)
            replaced[slot] = a
            if len(set(replaced)) < p:
                continue
            sign = 1
            ordered = tuple(sorted(replaced))
            # permutation sign of sorting a transposition-adjacent list
            inv = sum(
                1
                for i in range(p)
                for j in range(i + 1, p)
                if replaced[i] > replaced[j]
            )
            if inv % 2:
                sign = -1
            out[ordered] = out.get(ordered, 0) + sign
        return out

    columns = {}
    for a, b in unknowns:
        col = {}
        for key, c in lie_action_on_wedge(a, b, w).items():
            slots = (tuple(range(1, p + 1)),) * K
            col[(key, slots)] = col.get((key, slots), Fraction(0)) + c
        la = line_action(a, b)
        for slot in range(K):
            for pair, sgn in la.items():
                for key, c in w.terms.items():
                    slots = tuple(
                        pair if i == slot else tuple(range(1, p + 1)) for i in range(K)
                    )
                    col[(key, slots)] = col.get((key, slots), Fraction(0)) + sgn * c
        columns[(a, b)] = {kk: v for kk, v in col.items() if v}
    keys = sorted({kk for col in columns.values() for kk in col})
    rows = [[columns[u].get(kk, Fraction(0)) for u in unknowns] for kk in keys]
    rows.append([Fraction(1) if a == b else Fraction(0) for (a, b) in unknowns])
    full_dim = len(kernel_basis(rows, len(unknowns)))
    reduced = infinitesimal_stabilizer(
        TwistedPoint(wedge=w, a=1, b=K, twist_dim=p), "sl", "affine"
    )
    assert full_dim == reduced.dimension == 1


def _wedge_of(n, k, columns):
    """Wedge of columns given as {monomial: coefficient} over Sym^{<=k} C^n."""
    basis = sym_basis(n, k)
    vectors = [{basis.index_of(m): Fraction(c) for m, c in col.items()} for col in columns]
    return wedge_of_sparse_vectors(n, k, vectors)


def test_non_decomposable_wedge_is_rejected():
    """e1^e2 + 2 e1^x1x2 - e3^x2^2 has a nonzero wedge square, so it is no
    Plucker point; the span reduction refuses it."""
    basis = sym_basis(3, 2)
    w = WedgeVector(3, 2, 2, {
        (basis.index_of((1,)), basis.index_of((2,))): Fraction(1),
        (basis.index_of((1,)), basis.index_of((1, 2))): Fraction(2),
        (basis.index_of((3,)), basis.index_of((2, 2))): Fraction(-1),
    })
    for target, mode in [(w, "affine"), (w, "projective"), (TwistedPoint(w, 1, 2, 2), "affine")]:
        with pytest.raises(ValueError, match="not decomposable"):
            infinitesimal_stabilizer(target, "sl", mode)


def test_span_stabilizer_needs_nonzero_reduced_vectors():
    """Spanning vectors must be reduced up to scale: each vector's smallest
    position occurs in no other vector."""
    one = Fraction(1)
    with pytest.raises(ValueError, match="zero vector"):
        _span_stabilizer(2, 2, [{0: one}, {}], "sl", "affine")
    for vectors in ([{0: one, 1: one}, {1: one}],  # the second pivot occurs in the first
                    [{0: one, 2: one}, {0: one, 1: one}]):  # one pivot shared
        with pytest.raises(ValueError, match="reduced echelon"):
            _span_stabilizer(2, 2, vectors, "sl", "affine")
    scaled = _span_stabilizer(2, 2, [{0: Fraction(3), 3: one}, {1: Fraction(-2)}], "gl", "projective")
    unit = _span_stabilizer(2, 2, [{0: one, 3: Fraction(1, 3)}, {1: one}], "gl", "projective")
    assert scaled.dimension == unit.dimension and scaled.basis == unit.basis


def _wedge_oracle_kernel(w, algebra, mode, twist=None):
    """The stabilizer system on the expanded wedge: E_{a<-b} on every term."""
    n = w.n
    unknowns = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    columns = [lie_action_on_wedge(a, b, w) for a, b in unknowns]
    constraints = []
    if mode == "projective":
        columns.append({key: -c for key, c in w.terms.items()})
    if twist is not None:
        ratio, p = twist
        for j in range(1, p + 1):
            col = columns[unknowns.index((j, j))]
            for key, c in w.terms.items():
                col[key] = col.get(key, Fraction(0)) + ratio * c
        constraints += [[Fraction(u == (a, j)) for u in unknowns]
                        for j in range(1, p + 1) for a in range(p + 1, n + 1)]
    if algebra == "sl":
        constraints.append([Fraction(a == b) for a, b in unknowns]
                           + [Fraction(0)] * (len(columns) - len(unknowns)))
    keys = sorted({key for col in columns for key in col})
    rows = [[col.get(key, Fraction(0)) for col in columns] for key in keys]
    return [vec[: len(unknowns)] for vec in kernel_basis(rows + constraints, len(columns))]


@st.composite
def _decomposable_wedge(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    size = len(sym_basis(n, k))
    r = draw(st.integers(1, min(3, size)))
    entry = st.integers(-3, 3).filter(bool)
    vectors = [draw(st.dictionaries(st.integers(0, size - 1), entry, min_size=1, max_size=3))
               for _ in range(r)]
    return wedge_of_sparse_vectors(n, k, [{pos: Fraction(c) for pos, c in v.items()}
                                          for v in vectors])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_decomposable_wedge(), st.sampled_from(["sl", "gl"]), st.integers(1, 3),
       st.integers(1, 2), st.integers(0, 3))
def test_span_stabilizer_matches_wedge_oracle(w, algebra, p, a, b):
    if w.is_zero():
        return

    def flat(res):
        return [[x for row in X.data for x in row] for X in res.basis]

    for mode in ("affine", "projective"):
        assert flat(infinitesimal_stabilizer(w, algebra, mode)) == _wedge_oracle_kernel(
            w, algebra, mode)
    p = min(p, w.n)
    twisted = infinitesimal_stabilizer(TwistedPoint(w, a, b, p), algebra, "affine")
    assert flat(twisted) == _wedge_oracle_kernel(w, algebra, "affine", (Fraction(b, a), p))


def test_projective_stabilizer_grassmann_self_consistency():
    """Stabilizer of the pure top cell e1 ^ e2 at k=2 computed from the
    general machinery matches a direct hand count: matrices with X e_1 and
    X e_2 staying in span(e1, e2) modulo the sym-degree mixing rows."""
    k = 2
    basis = sym_basis(k, k)
    w = WedgeVector(
        k, k, 2, {(basis.index_of((1,)), basis.index_of((2,))): Fraction(1)}
    )
    res = infinitesimal_stabilizer(w, "sl", "projective")
    # direct: X.(e1^e2) = (X11+X22) e1^e2 + X21' terms...: brute force over
    # the 4 elementary directions plus scalar
    unknowns = [(a, b) for a in range(1, 3) for b in range(1, 3)]
    cols = {u: lie_action_on_wedge(u[0], u[1], w) for u in unknowns}
    keys = sorted({kk for c in cols.values() for kk in c} | set(w.terms))
    rows = []
    for key in keys:
        row = [cols[u].get(key, Fraction(0)) for u in unknowns]
        row.append(-w.terms.get(key, Fraction(0)))
        rows.append(row)
    rows.append([Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0)])
    expected = len(kernel_basis(rows, 5))
    assert res.dimension == expected == 3  # the Borel of sl(2) plus nothing


def test_gl_projective_stabilizer_contains_scaling_direction():
    pk = p_point(1, 3)
    diag = Matrix(
        [[Fraction(i + 1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    )
    total = {}
    for a in range(1, 4):
        coeff = diag.data[a - 1][a - 1]
        for key, c in lie_action_on_wedge(a, a, pk).items():
            total[key] = total.get(key, Fraction(0)) + coeff * c
    scale = Fraction(1 + 2 + 3)
    assert total == {key: scale * c for key, c in pk.terms.items()}
    res = infinitesimal_stabilizer(pk, "gl", "projective")
    assert res.dimension >= 2  # scaling direction plus the unipotent ones


# -- limit stabilizer ---------------------------------------------------------


def test_limit_stabilizer_k2():
    lsm = limit_stabilizer_matrix(2, 2)
    b1 = lsm.ring.var("b1")
    b2 = lsm.ring.var("b2")
    assert lsm.entries[0][0] == b1
    assert lsm.entries[0][1] == b2
    assert lsm.entries[1][0] == 0
    assert lsm.entries[1][1] == b1**2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_limit_stabilizer_properties(k):
    rng = random.Random(100 + k)
    for sigma in range(2, k + 1):
        lsm = limit_stabilizer_matrix(sigma, k)  # raises on negative powers
        z = z_closed_form(sigma, k, "regular")
        for _ in range(5):
            beta = [Fraction(rng.randint(1, 8), rng.randint(1, 8))]
            beta += [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k - 1)]
            g = lsm.evaluate(beta)
            moved = apply_group_to_wedge(g, z)
            assert moved.proportional_to(z) not in (None, Fraction(0))
        dirs = lsm.first_order_directions()
        flat = [[x for row in d.data for x in row] for d in dirs]
        assert rank(flat) == k
        strict = [
            d
            for d in dirs
            if all(d.data[i][j] == 0 for i in range(k) for j in range(i + 1))
        ]
        assert len(strict) == k - 1


def test_eq40_entry_monomial():
    for k in (3, 4, 5):
        for sigma in range(2, k + 1):
            lsm = limit_stabilizer_matrix(sigma, k)
            for i in range(2, k + 1):
                th = theta_choice(sigma, k, i)
                entry = lsm.entries[th - 1][th + i - 2]
                exp = [0] * k
                exp[0] = th - 1
                exp[i - 1] += 1
                assert tuple(exp) in entry.terms, (k, sigma, i)


def test_n_exponents_nonnegative_and_first_zero():
    for k in (2, 3, 4, 5, 6):
        for sigma in range(2, k + 1):
            ns = n_sigma_exponents(sigma, k)
            assert ns[0] == EpsWeight.of(0)
            for n in ns[1:]:
                assert n > EpsWeight.of(0)


# -- extra transformations ----------------------------------------------------


def test_extra_case_classification():
    assert extra_stabilizer_case(4, 4) == 1
    assert extra_stabilizer_case(3, 4) == 2
    assert extra_stabilizer_case(2, 5) == 3  # 5 = -1 mod 2
    assert extra_stabilizer_case(3, 5) == 3  # 5 = -1 mod 3
    with pytest.raises(ValueError):
        extra_stabilizer_case(2, 3)  # residual case below k = 4


@pytest.mark.parametrize(
    "sigma,k",
    [(2, 2), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5), (4, 5), (5, 5), (2, 6)],
)
def test_extra_transformation_fixes_limit(sigma, k):
    z = z_closed_form(sigma, k, "regular")
    t = extra_stabilizer(sigma, k, Fraction(7, 3))
    assert apply_group_to_wedge(t, z) == z
    assert extra_direction_is_new(sigma, k)


def test_case2_example_3_4():
    """sigma=3, k=4: T(e4) = e4 + zeta e3 fixes the limit."""
    z = z_closed_form(3, 4, "regular")
    t = extra_stabilizer(3, 4, Fraction(2))
    assert t.data[2][3] == 2 and t.data[3][3] == 1
    assert apply_group_to_wedge(t, z) == z


def test_case3_example_2_5():
    """sigma=2, k=5: e4 -> e4 + zeta e2, e5 -> e5 + zeta e3."""
    t = extra_stabilizer(2, 5, Fraction(1))
    assert t.data[1][3] == 1 and t.data[2][4] == 1


# -- Hilbert-Mumford -----------------------------------------------------------


def test_hilbert_mumford_fixtures():
    assert hilbert_mumford_torus([(1,), (-1,)]) == "stable"
    assert hilbert_mumford_torus([(1,), (2,)]) == "unstable"
    assert hilbert_mumford_torus([(0,)]) == "semistable-not-stable"
    assert hilbert_mumford_torus([(1, 0), (-1, 0)]) == "semistable-not-stable"
    assert hilbert_mumford_torus([(1, 0), (-1, 1), (0, -1)]) == "stable"


def test_hilbert_mumford_against_oracle():
    rng = random.Random(77)
    for _ in range(200):
        d = rng.choice([1, 2, 3])
        m = rng.randint(1, 6)
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(m)]
        assert hilbert_mumford_torus(pts) == hilbert_mumford_bruteforce(pts), pts


# -- reports -------------------------------------------------------------------


def test_twist_exponent():
    assert twist_exponent(1, 4, 1) == 11
    assert twist_exponent(1, 2, 1) == 4
    assert twist_exponent(2, 2, 1) == 9  # 1*2 + 2*3, times M=1, plus 1


def test_codim_report_k4():
    rep = codim_report(4, 1)
    assert rep["base_stabilizer_dim"] == 3
    assert rep["open_orbit_dim"] == 12
    kinds = {(c["kind"], c["sigma"]) for c in rep["candidates"]}
    assert kinds == {("lambda", 2), ("lambda", 3), ("lambda", 4), ("mu", 2), ("mu", 3)}
    for c in rep["candidates"]:
        assert c["proj_stab_dim"] >= 5
        assert c["orbit_codim"] >= 2
        assert c["bound_ok"]
    assert rep["all_bounds_ok"]


def test_codim_report_k3_informative():
    rep = codim_report(3, 1)
    assert rep["base_stabilizer_dim"] == 2
    assert {(c["kind"], c["sigma"]) for c in rep["candidates"]} == {
        ("lambda", 2),
        ("lambda", 3),
        ("mu", 2),
    }


def test_probe_conjecture():
    rep = probe_stabilizer_conjecture(2, 2, 1)
    assert rep["n"] == 5 and rep["K"] == 9
    assert rep["predicted_dim"] == 9
    assert rep["measured_dim"] == 9 and rep["match"]
    rep1 = probe_stabilizer_conjecture(1, 4, 1)
    assert rep1["measured_dim"] == rep1["predicted_dim"] == 3
    with pytest.raises(ResourceLimitError):
        probe_stabilizer_conjecture(2, 6, 1)


@pytest.mark.parametrize("p,k,dim", [(2, 3, 17), (3, 2, 26), (2, 4, 27),
                                     (2, 5, 39), (3, 4, 101), (4, 3, 135), (5, 2, 99)])
def test_probe_conjecture_past_2_2(p, k, dim):
    """Past the old (2, 2) gate the measured dimension is p*n - 1."""
    rep = probe_stabilizer_conjecture(p, k, 1)
    assert rep["measured_dim"] == rep["predicted_dim"] == dim
    assert rep["match"]


@pytest.mark.parametrize("k,dims", [
    (6, [9, 9, 9, 9, 7, 10, 9, 8, 7]),
    (7, [9, 11, 9, 11, 10, 8, 12, 11, 10, 9, 8]),
])
def test_codim_report_k6_k7(k, dims):
    rep = codim_report(k, 1)
    assert rep["base_stabilizer_dim"] == k - 1
    assert [c["proj_stab_dim"] for c in rep["candidates"]] == dims
    assert rep["all_bounds_ok"]


@pytest.mark.parametrize("k,dims", [
    (9, [12, 14, 15, 12, 14, 14, 12, 10, 16, 15, 14, 13, 12, 11, 10]),
    (10, [15, 16, 16, 15, 15, 16, 15, 13, 11, 18, 17, 16, 15, 14, 13, 12, 11]),
])
def test_codim_report_k9_k10(k, dims):
    """Past the old ceiling, without force: the base stabilizer has dimension
    k - 1, lambda_k and mu_{k-1} have projective stabilizer k + 1, and mu_sigma
    has 2k - sigma."""
    rep = codim_report(k, 1)
    assert rep["base_stabilizer_dim"] == k - 1
    assert [c["proj_stab_dim"] for c in rep["candidates"]] == dims
    by_kind = {(c["kind"], c["sigma"]): c["proj_stab_dim"] for c in rep["candidates"]}
    assert by_kind[("lambda", k)] == by_kind[("mu", k - 1)] == k + 1
    assert all(by_kind[("mu", s)] == 2 * k - s for s in range(2, k))
    assert rep["all_bounds_ok"]


@pytest.fixture
def drop_cached_bases():
    """Forced runs cache Sym bases of up to a million monomials; drop them
    afterwards, so the rest of the suite does not hold them."""
    yield
    _sym_basis_cached.cache_clear()


@pytest.mark.slow
@pytest.mark.usefixtures("drop_cached_bases")
def test_codim_report_k11():
    """The paper's codimension-two statement at k = 11 (forced; about 3 s and
    390 MB): base stabilizer k - 1, lambda_k and mu_{k-1} at k + 1, mu_sigma
    at 2k - sigma."""
    k = 11
    rep = codim_report(k, 1, force=True)
    assert rep["base_stabilizer_dim"] == k - 1
    assert [c["proj_stab_dim"] for c in rep["candidates"]] == [
        15, 16, 16, 18, 15, 17, 18, 16, 14, 12, 20, 19, 18, 17, 16, 15, 14, 13, 12]
    by_kind = {(c["kind"], c["sigma"]): c["proj_stab_dim"] for c in rep["candidates"]}
    assert by_kind[("lambda", k)] == by_kind[("mu", k - 1)] == k + 1
    assert all(by_kind[("mu", s)] == 2 * k - s for s in range(2, k))
    assert rep["all_bounds_ok"]


@pytest.mark.slow
@pytest.mark.usefixtures("drop_cached_bases")
def test_probe_conjecture_2_6():
    """Probe (2, 6), past the span gate (forced; about 5 s and 630 MB)."""
    rep = probe_stabilizer_conjecture(2, 6, 1, force=True)
    assert rep["measured_dim"] == rep["predicted_dim"] == 53
    assert rep["match"]


def test_decomposition_reads_the_span_of_the_columns():
    """The span read off p_point's Plucker coordinates is the span of the
    flat-jet columns, so both routes give the same stabilizer basis."""
    for k in (3, 4):
        tp = distinguished_twisted_point(1, k, 1)
        assert infinitesimal_stabilizer(tp).basis == distinguished_stabilizer(1, k, 1).basis


# Entries of limit_stabilizer_matrix(sigma, k) for 2 <= sigma <= k <= 6, as
# computed by an explicit sum over ordered compositions; rows joined by " | ".
LIMIT_STABILIZER_PINS = {
    (2, 2): [
        "b1 | b2",
        "0 | b1^2",
    ],
    (2, 3): [
        "b1 | 0 | b3",
        "0 | b1^2 | 2*b1*b2",
        "0 | 0 | b1^3",
    ],
    (3, 3): [
        "b1 | b2 | b3",
        "0 | b1^2 | 0",
        "0 | 0 | b1^3",
    ],
    (2, 4): [
        "b1 | 0 | b3 | b4",
        "0 | b1^2 | 2*b1*b2 | 2*b1*b3",
        "0 | 0 | b1^3 | 0",
        "0 | 0 | 0 | b1^4",
    ],
    (3, 4): [
        "b1 | b2 | b3 | b4",
        "0 | b1^2 | 0 | 2*b1*b3",
        "0 | 0 | b1^3 | 3*b1^2*b2",
        "0 | 0 | 0 | b1^4",
    ],
    (4, 4): [
        "b1 | b2 | b3 | b4",
        "0 | b1^2 | 2*b1*b2 | 0",
        "0 | 0 | b1^3 | 0",
        "0 | 0 | 0 | b1^4",
    ],
    (2, 5): [
        "b1 | 0 | b3 | 0 | b5",
        "0 | b1^2 | 2*b1*b2 | 2*b1*b3 | 2*b1*b4 + 2*b2*b3",
        "0 | 0 | b1^3 | 0 | 3*b1^2*b3",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2",
        "0 | 0 | 0 | 0 | b1^5",
    ],
    (3, 5): [
        "b1 | b2 | 0 | b4 | b5",
        "0 | b1^2 | 0 | 0 | 2*b1*b4",
        "0 | 0 | b1^3 | 3*b1^2*b2 | 3*b1^2*b3 + 3*b1*b2^2",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2",
        "0 | 0 | 0 | 0 | b1^5",
    ],
    (4, 5): [
        "b1 | b2 | b3 | b4 | b5",
        "0 | b1^2 | 2*b1*b2 | 0 | 2*b1*b4",
        "0 | 0 | b1^3 | 0 | 0",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2",
        "0 | 0 | 0 | 0 | b1^5",
    ],
    (5, 5): [
        "b1 | b2 | b3 | b4 | b5",
        "0 | b1^2 | 2*b1*b2 | 2*b1*b3 + b2^2 | 0",
        "0 | 0 | b1^3 | 3*b1^2*b2 | 0",
        "0 | 0 | 0 | b1^4 | 0",
        "0 | 0 | 0 | 0 | b1^5",
    ],
    (2, 6): [
        "b1 | 0 | b3 | 0 | b5 | b6",
        "0 | b1^2 | 2*b1*b2 | 2*b1*b3 | 2*b1*b4 + 2*b2*b3 | 2*b1*b5 + b3^2",
        "0 | 0 | b1^3 | 0 | 3*b1^2*b3 | 0",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2 | 4*b1^3*b3",
        "0 | 0 | 0 | 0 | b1^5 | 0",
        "0 | 0 | 0 | 0 | 0 | b1^6",
    ],
    (3, 6): [
        "b1 | b2 | 0 | b4 | b5 | b6",
        "0 | b1^2 | 0 | 0 | 2*b1*b4 | 0",
        "0 | 0 | b1^3 | 3*b1^2*b2 | 3*b1^2*b3 + 3*b1*b2^2 | 3*b1^2*b4",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2 | 0",
        "0 | 0 | 0 | 0 | b1^5 | 0",
        "0 | 0 | 0 | 0 | 0 | b1^6",
    ],
    (4, 6): [
        "b1 | b2 | b3 | b4 | b5 | b6",
        "0 | b1^2 | 2*b1*b2 | 0 | 2*b1*b4 | 2*b1*b5 + 2*b2*b4",
        "0 | 0 | b1^3 | 0 | 0 | 3*b1^2*b4",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2 | 4*b1^3*b3 + 6*b1^2*b2^2",
        "0 | 0 | 0 | 0 | b1^5 | 5*b1^4*b2",
        "0 | 0 | 0 | 0 | 0 | b1^6",
    ],
    (5, 6): [
        "b1 | b2 | b3 | b4 | b5 | b6",
        "0 | b1^2 | 2*b1*b2 | 2*b1*b3 + b2^2 | 0 | 2*b1*b5",
        "0 | 0 | b1^3 | 3*b1^2*b2 | 0 | 0",
        "0 | 0 | 0 | b1^4 | 0 | 0",
        "0 | 0 | 0 | 0 | b1^5 | 5*b1^4*b2",
        "0 | 0 | 0 | 0 | 0 | b1^6",
    ],
    (6, 6): [
        "b1 | b2 | b3 | b4 | b5 | b6",
        "0 | b1^2 | 2*b1*b2 | 2*b1*b3 + b2^2 | 2*b1*b4 + 2*b2*b3 | 0",
        "0 | 0 | b1^3 | 3*b1^2*b2 | 3*b1^2*b3 + 3*b1*b2^2 | 0",
        "0 | 0 | 0 | b1^4 | 4*b1^3*b2 | 0",
        "0 | 0 | 0 | 0 | b1^5 | 0",
        "0 | 0 | 0 | 0 | 0 | b1^6",
    ],
}


def test_limit_stabilizer_matches_pinned_entries():
    for (sigma, k), rows in LIMIT_STABILIZER_PINS.items():
        lsm = limit_stabilizer_matrix(sigma, k)
        assert [" | ".join(map(str, row)) for row in lsm.entries] == rows, (sigma, k)
        assert all(e.ring == lsm.ring for row in lsm.entries for e in row)
