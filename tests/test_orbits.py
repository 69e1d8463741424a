import hashlib
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.exact import Matrix, kernel_basis, rank
from jetinv.embedding import WedgeVector, apply_group_to_wedge, p_point, phi, wedge_of_sparse_vectors
from jetinv.invariants import ResourceLimitError
from jetinv.orbits import (
    EpsWeight,
    OneParamSubgroup,
    TwistedPoint,
    closed_form_matches_limit,
    codim_report,
    distinguished_stabilizer,
    extra_stabilizer,
    extra_stabilizer_case,
    hilbert_mumford_torus,
    infinitesimal_stabilizer,
    lambda_sigma,
    limit_of_distinguished,
    limit_point,
    limit_stabilizer_matrix,
    mu_sigma,
    n_sigma_exponents,
    probe_stabilizer_conjecture,
    twist_exponent,
    z_closed_form,
    _closed_form_parts,
    _cut,
    _cut_columns,
    _flat_jet_columns,
    _minimal_weight_parts,
    _span_cost,
    _span_stabilizer,
    _subgroup,
)
from jetinv.jets import flat_jet
from jetinv.symbasis import _sym_basis_cached, partitions_of, sym_basis, sym_dim
from oracles import (
    distinguished_twisted_point,
    evaluate,
    first_order_directions,
    hilbert_mumford_bruteforce,
    lie_action_on_wedge,
    limit_by_eps_weights,
    proportional_to,
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
    with pytest.raises(ValueError):
        lambda_sigma(1, 4)
    with pytest.raises(ValueError):
        mu_sigma(4, 4)  # the degenerate family stops at k-1


def test_weight_of():
    lam = OneParamSubgroup((EpsWeight.of(1), EpsWeight.of(2), EpsWeight.of(3)))
    assert weight_of(lam, (1, 2)) == EpsWeight.of(3)
    lt = OneParamSubgroup(tuple(map(EpsWeight.of, range(1, 7))))
    for tau in [(1, 1, 2), (3, 3), (6,)]:
        assert weight_of(lt, tau) == EpsWeight.of(sum(tau))
    l2 = lambda_sigma(2, 4)
    assert weight_of(l2, (2, 2)) == EpsWeight.of(4, -2)


def test_limit_point_fixtures():
    p4 = p_point(1, 4)
    lt = OneParamSubgroup(tuple(map(EpsWeight.of, range(1, 5))))
    assert limit_point(p4, lt) == p4
    zl = limit_point(p4, lambda_sigma(2, 4))
    b = zl.basis()
    terms = {tuple(b.monomials[x] for x in t): c for t, c in zl.terms.items()}
    # e1 ^ e2 ^ (e3 + 2 e1e2) ^ (e4 + e2^2) expanded
    assert terms == {
        ((1,), (2,), (3,), (4,)): Fraction(1),
        ((1,), (2,), (3,), (2, 2)): Fraction(1),
        ((1,), (2,), (1, 2), (2, 2)): Fraction(2),
        ((1,), (2,), (4,), (1, 2)): Fraction(-2),
    }
    zm = limit_point(p4, mu_sigma(2, 4))
    terms_m = {tuple(zm.basis().monomials[x] for x in t): c for t, c in zm.terms.items()}
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
        assert z_closed_form(sigma, k, "lambda") == limit_point(pk, lambda_sigma(sigma, k))
        assert closed_form_matches_limit(sigma, k, "lambda")
    for sigma in range(2, k):
        assert z_closed_form(sigma, k, "mu") == limit_point(pk, mu_sigma(sigma, k))
        assert closed_form_matches_limit(sigma, k, "mu")


@pytest.mark.parametrize("k", [8, 9, 10])
def test_closed_form_matches_limit_k8_to_k10(k):
    for sigma in range(2, k + 1):
        assert closed_form_matches_limit(sigma, k, "lambda")
    for sigma in range(2, k):
        assert closed_form_matches_limit(sigma, k, "mu")


def test_closed_form_verdict_tells_a_wrong_filter_apart(monkeypatch):
    """The sigma + 1 filter against the lambda_sigma limit is refuted, and
    `orbit closed-form` exits 1 on it."""
    import jetinv.orbits
    from jetinv.cli import main

    right = jetinv.orbits._closed_form_parts
    monkeypatch.setattr(jetinv.orbits, "_closed_form_parts",
                        lambda sigma, k, kind: right(sigma + 1, k, kind))
    assert not closed_form_matches_limit(2, 6, "lambda")
    assert main(["orbit", "closed-form", "--k", "6", "--sigma", "2", "--kind", "lambda"]) == 1


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_eps_robustness(k):
    for eps in (Fraction(1, k + 2), Fraction(1, 10 * k)):
        for sigma in range(2, k + 1):
            assert limit_of_distinguished(sigma, k, "lambda", eps=eps) == z_closed_form(
                sigma, k, "lambda"
            )
        for sigma in range(2, k):
            assert limit_of_distinguished(sigma, k, "mu", eps=eps) == z_closed_form(
                sigma, k, "mu"
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


@pytest.mark.parametrize("sigma,kind,subgroup", [(3, "lambda", lambda_sigma),
                                                (2, "mu", mu_sigma)])
def test_closed_form_equals_limit_k7(p7, sigma, kind, subgroup):
    z = z_closed_form(sigma, 7, kind, force=True)
    assert z == limit_point(p7, subgroup(sigma, 7))
    assert z == limit_point(p7, subgroup(sigma, 7, Fraction(1, 16)))


def test_degenerate_kind_rejected_at_sigma_k():
    with pytest.raises(ValueError):
        z_closed_form(4, 4, "mu")


@pytest.mark.parametrize("call", [lambda: z_closed_form(2, 4, "regular"),
                                  lambda: closed_form_matches_limit(2, 4, "degenerate"),
                                  lambda: limit_of_distinguished(2, 4, "regular")],
                         ids=["z_closed_form", "closed_form_matches_limit", "limit_of_distinguished"])
def test_kind_is_lambda_or_mu(call):
    """The subgroup kinds are the values of --kind and of the codim-report
    candidates; any other name is refused, and the message names both."""
    with pytest.raises(ValueError, match=r"\blambda\b.*\bmu\b"):
        call()


def test_degree2_column_of_degenerate():
    z = z_closed_form(2, 4, "mu")
    b = z.basis()
    degree2 = {
        m
        for t in z.terms
        for m in (b.monomials[p] for p in t)
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
    vectors = [{basis.position[m]: Fraction(c) for m, c in col.items()} for col in columns]
    return wedge_of_sparse_vectors(n, k, vectors)


def test_non_decomposable_wedge_is_rejected():
    """e1^e2 + 2 e1^x1x2 - e3^x2^2 has a nonzero wedge square, so it is no
    Plucker point; the span reduction refuses it."""
    basis = sym_basis(3, 2)
    w = WedgeVector(3, 2, 2, {
        (basis.position[(1,)], basis.position[(2,)]): Fraction(1),
        (basis.position[(1,)], basis.position[(1, 2)]): Fraction(2),
        (basis.position[(3,)], basis.position[(2, 2)]): Fraction(-1),
    })
    for target, mode in [(w, "affine"), (w, "projective"), (TwistedPoint(w, 1, 2, 2), "affine")]:
        with pytest.raises(ValueError, match="not decomposable"):
            infinitesimal_stabilizer(target, "sl", mode)


def test_span_stabilizer_needs_nonzero_reduced_vectors():
    """Spanning vectors must be reduced up to scale: each vector's smallest
    monomial occurs in no other vector."""
    one = Fraction(1)
    x1, x2, x11, x12 = (1,), (2,), (1, 1), (1, 2)  # in Sym^{<=2} C^2
    with pytest.raises(ValueError, match="zero vector"):
        _span_stabilizer(2, [{x1: one}, {}], "sl", "affine")
    for vectors in ([{x1: one, x2: one}, {x2: one}],  # the second pivot occurs in the first
                    [{x1: one, x11: one}, {x1: one, x2: one}]):  # one pivot shared
        with pytest.raises(ValueError, match="reduced echelon"):
            _span_stabilizer(2, vectors, "sl", "affine")
    scaled = _span_stabilizer(2, [{x1: Fraction(3), x12: one}, {x2: Fraction(-2)}], "gl", "projective")
    unit = _span_stabilizer(2, [{x1: one, x12: Fraction(1, 3)}, {x2: one}], "gl", "projective")
    assert scaled.dimension == unit.dimension and scaled.basis == unit.basis


@pytest.mark.parametrize("p,k_max", [(1, 8), (2, 4), (3, 4)])
def test_flat_jet_columns_are_phi_of_the_flat_jet(p, k_max):
    """The closed-form columns are phi(flat_jet(p, k)) keyed by monomials,
    and for p = 1 the cut columns are those columns cut to the same parts,
    for every sigma and kind."""
    for k in range(1, k_max + 1):
        m = phi(flat_jet(p, k))
        monomials = sym_basis(m.n, k).monomials
        columns = _flat_jet_columns(p, k)
        assert columns == [{monomials[pos]: c for pos, c in col.items()} for col in m.columns]
        if p == 1:
            for kind, sigma in [("lambda", s) for s in range(2, k + 1)] + [("mu", s) for s in range(2, k)]:
                for parts in (list(_closed_form_parts(sigma, k, kind)),
                              list(_minimal_weight_parts(_subgroup(sigma, k, kind), k))):
                    assert _cut(parts) == [{q: col[q] for q in cut} for col, cut in zip(columns, parts)]


@pytest.mark.parametrize("p,k", [(1, 2), (1, 7), (1, 12), (2, 3), (2, 5), (3, 3), (5, 2)])
def test_span_cost_counts_the_letter_index(p, k):
    """_span_cost's closed-form count of letter-index entries is the number
    of distinct letters summed over the support terms of the built columns."""
    entries = sum(len(set(m)) for col in _flat_jet_columns(p, k) for m in col)
    assert _span_cost(p, k) == (entries + 12 * p) * sym_dim(p, k) ** 3


def _basis_digest(res):
    data = [[[str(x) for x in row] for row in X.data] for X in res.basis]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


# SHA-256 of the distinguished stabilizer bases (identical for M = 1 and 2),
# and of the 4 (algebra, mode) stabilizer bases of every lambda_sigma cut of
# the flat-jet columns per k, as computed by the position-keyed span system.
DISTINGUISHED_PINS = {
    (1, 1): "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    (1, 2): "1b84fd6c71368c790a11d50e1e99f7994a35417f59b2c5182a28e0c8008923a7",
    (1, 3): "bd7590c164f5d66ba9251c17fe262873034cbf1fbfaeb7d3fa83c1c369a6c612",
    (1, 4): "8e61912b6fd73a17c524104d9979d9fe4a362632312813f5672e76a974048ac4",
    (1, 5): "13a6fd78a498fbe3ba095bed7968d7f0e8d1f44088fa8215dd088af03ec12234",
    (1, 6): "7280b63c20386dc963471f3b30af5869def1db1ef5e27f9909d38ead551e9a29",
    (1, 7): "296436923599aba644cddfa8e09c06646c30cde7e22fd31ae26133351e339a9a",
    (1, 8): "b57be55539ebdf75d7bc66fde50edf1ac1a3e8f91ce8665ad6c16f517e0b1cc8",
    (2, 3): "22143d46976b04c6b5c0d87ec698e119a47c958ee42d1fcaa54c41f1a670cd12",
    (3, 2): "97b460ae11f6cdb25067629ca673c3c9259c2a65d0b1640c2f37bea1a4740050",
    (3, 3): "0db0826ef0f642ec5b750fbf7327ba7853b66b99144949f997827946a1276c32",
    (2, 4): "ef322e89497d7f9d3161e5b9e0352395e76a988c04274bb8ecacbb254096b718",
}
LAMBDA_CUT_PINS = {
    3: ([3, 3, 3, 4, 4, 4, 4, 5],
        "49b692ac6b89b37ba050f4c355026dd844cf9403eb27378e8ad935db8ea77671"),
    4: ([6, 6, 6, 7, 6, 6, 6, 7, 5, 5, 5, 6],
        "915a4864ab07124fe3a47d64530a96f626a9776e9c53f436c30935143a7bfafe"),
    5: ([6, 6, 6, 7, 6, 6, 6, 7, 8, 8, 8, 9, 6, 6, 6, 7],
        "421181dbb7639b4837b4898868ff01526d525ef25ffee47052b2a8ec034aee34"),
    6: ([9, 9, 9, 10, 9, 9, 9, 10, 9, 9, 9, 10, 9, 9, 9, 10, 7, 7, 7, 8],
        "88dd10bba415dbac96df649c4c86c403bb3dc36a8a9fc8f342f24773e426c65c"),
}


# The base system and every candidate system of codim_report(k), in report
# order: their dimensions and the SHA-256 of their basis digests, as computed
# by the dense kernel basis of the full system.
CODIM_REPORT_PINS = {
    2: ([1, 3], "e1e3d4cd3a723c7efc310c26c81d29dfee1c3e834ab80e81d068b406f5930b3b"),
    3: ([2, 3, 4, 4], "3ba590d5ab5b9d4501664dcbd183aa108ad09fd55cd521ab765954214a6fb101"),
    4: ([3, 6, 6, 5, 6, 5], "4c4fcbff039c21ea6dd97055bdc5716779b34eb86a2f24e1091d64bf01b01fdb"),
    5: ([4, 6, 6, 8, 6, 8, 7, 6], "3a2bcda725235dc118965b800019c2597265b0c2887bfd2ff908c53b8551ceb0"),
    6: ([5, 9, 9, 9, 9, 7, 10, 9, 8, 7],
        "68359cadef4e76c8ecd8b8d6a86a6e18781d58e1f20de8fbf7d2eea0074176d2"),
    7: ([6, 9, 11, 9, 11, 10, 8, 12, 11, 10, 9, 8],
        "134c76e09aa32e354cc2e62398f54db2fc79c4a3077867993cceae7e5b2d32a8"),
}


@pytest.mark.parametrize("p,k", sorted(DISTINGUISHED_PINS))
def test_distinguished_stabilizer_bases_are_pinned(p, k):
    for M in (1, 2) if p == 1 else (1,):
        res = distinguished_stabilizer(p, k, M)
        assert _basis_digest(res) == DISTINGUISHED_PINS[p, k]
        assert res.dimension == len(res.basis)


@pytest.mark.parametrize("k", sorted(CODIM_REPORT_PINS))
def test_codim_report_stabilizer_bases_are_pinned(k):
    """The basis, computed on first read from the sparse system the result
    keeps, is the one the dense system gave, and its length is the rank-based
    dimension that codim_report reports."""
    columns = _flat_jet_columns(1, k)
    results = [_span_stabilizer(k, columns, "sl", "affine", (Fraction(twist_exponent(1, k, 1)), 1))]
    for kind, sigma in [("lambda", s) for s in range(2, k + 1)] + [("mu", s) for s in range(2, k)]:
        parts = _closed_form_parts(sigma, k, kind)
        results.append(_span_stabilizer(k, _cut(parts), "sl", "projective"))
    dims = [res.dimension for res in results]
    digest = hashlib.sha256(" ".join(map(_basis_digest, results)).encode()).hexdigest()
    assert (dims, digest) == CODIM_REPORT_PINS[k]
    assert dims == [len(res.basis) for res in results]
    report = codim_report(k)
    assert dims == [report["base_stabilizer_dim"]] + [c["proj_stab_dim"] for c in report["candidates"]]


@pytest.mark.parametrize("k", sorted(LAMBDA_CUT_PINS))
def test_lambda_cut_stabilizer_bases_are_pinned(k):
    results = [_span_stabilizer(k, _cut(_closed_form_parts(sigma, k, "lambda")),
                                algebra, mode)
               for sigma in range(2, k + 1) for algebra in ("sl", "gl")
               for mode in ("affine", "projective")]
    digest = hashlib.sha256(" ".join(map(_basis_digest, results)).encode()).hexdigest()
    assert ([res.dimension for res in results], digest) == LAMBDA_CUT_PINS[k]


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
        k, k, 2, {(basis.position[(1,)], basis.position[(2,)]): Fraction(1)}
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
        z = z_closed_form(sigma, k, "lambda")
        for _ in range(5):
            beta = [Fraction(rng.randint(1, 8), rng.randint(1, 8))]
            beta += [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(k - 1)]
            point = dict(zip(lsm.ring.names, beta))
            g = Matrix([[evaluate(e, point) for e in row] for row in lsm.entries])
            moved = apply_group_to_wedge(g, z)
            assert proportional_to(moved, z) not in (None, Fraction(0))
        dirs = first_order_directions(lsm)
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
            lam, ns = lambda_sigma(sigma, k).weights, n_sigma_exponents(sigma, k)
            for i in range(2, k + 1):
                # theta: the least maximizer j of lambda_{j+i-1} - lambda_j
                th = next(j for j in range(1, k - i + 2) if lam[j + i - 2] - lam[j - 1] == ns[i - 1])
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


@pytest.mark.parametrize("sigma,k", [(1, 4), (-1, 4), (0, 4), (5, 4)])
def test_extra_stabilizer_refuses_sigma_outside_2_to_k(sigma, k):
    with pytest.raises(ValueError, match="need 2 <= sigma <= k"):
        extra_stabilizer_case(sigma, k)
    with pytest.raises(ValueError, match="need 2 <= sigma <= k"):
        extra_stabilizer(sigma, k)


def _flat(m):
    return [x for row in m.data for x in row]


def _explicit_directions(sigma, k):
    """The first-order directions of limit_stabilizer_matrix, diag(1..k) and
    diag(floor(i/sigma)), flattened, and last the extra direction
    extra_stabilizer(sigma, k, 1) - I."""
    dirs = [_flat(d) for d in first_order_directions(limit_stabilizer_matrix(sigma, k))]
    dirs += [[Fraction(f(i)) if i == j else 0 for i in range(1, k + 1) for j in range(1, k + 1)]
             for f in (lambda i: i, lambda i: i // sigma)]
    extra = extra_stabilizer(sigma, k).data
    return dirs + [[x - (i == j) for i, row in enumerate(extra) for j, x in enumerate(row)]]


def _assert_explicit_directions_stabilize(stab, sigma, k):
    """Every explicit direction lies in the stabilizer of the lambda_sigma
    limit, and the extra one is new: it raises the rank of the others by one,
    to at least k + 1.  Returns the rank of all of them."""
    dirs = _explicit_directions(sigma, k)
    total = rank(dirs)
    assert rank([_flat(b) for b in stab.basis] + dirs) == stab.dimension, (sigma, k)
    assert total == rank(dirs[:-1]) + 1 and total >= k + 1, (sigma, k)
    return total


@pytest.mark.parametrize(
    "sigma,k",
    [(2, 2), (3, 3), (2, 4), (3, 4), (4, 4), (2, 5), (3, 5), (4, 5), (5, 5), (2, 6)],
)
def test_extra_transformation_fixes_limit(sigma, k):
    z = z_closed_form(sigma, k, "lambda")
    t = extra_stabilizer(sigma, k, Fraction(7, 3))
    assert apply_group_to_wedge(t, z) == z
    _assert_explicit_directions_stabilize(infinitesimal_stabilizer(z, "gl", "projective"), sigma, k)


@pytest.mark.parametrize("k", range(4, 11))
def test_explicit_directions_span_k_plus_2_of_the_lambda_stabilizer(k):
    """On the cut-column systems that codim_report builds, for every sigma the
    k + 3 explicit directions lie in the projective gl stabilizer of the
    lambda_sigma limit and span k + 2 dimensions; at sigma = k they span it."""
    for sigma in range(2, k + 1):
        parts = _closed_form_parts(sigma, k, "lambda")
        stab = _span_stabilizer(k, _cut(parts), "gl", "projective")
        assert _assert_explicit_directions_stabilize(stab, sigma, k) == k + 2, (sigma, k)
    assert stab.dimension == k + 2


def test_case2_example_3_4():
    """sigma=3, k=4: T(e4) = e4 + zeta e3 fixes the limit."""
    z = z_closed_form(3, 4, "lambda")
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
    assert hilbert_mumford_torus([()]) == "stable"  # d = 0: both systems are trivially feasible
    assert hilbert_mumford_torus([(), ()]) == "stable"
    assert hilbert_mumford_torus([(1, 0), (-1, 0), (0, 1)]) == "semistable-not-stable"
    assert hilbert_mumford_torus([(0, 0), (0, 0)]) == "semistable-not-stable"


def test_hilbert_mumford_against_oracle():
    """200 sets with m <= 6 and coordinates up to 4 in absolute value, then
    200 with m <= 9, coordinates up to 8 and weights repeated from a smaller
    pool."""
    rng = random.Random(77)
    for _ in range(200):
        d = rng.choice([1, 2, 3])
        m = rng.randint(1, 6)
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(m)]
        assert hilbert_mumford_torus(pts) == hilbert_mumford_bruteforce(pts), pts
    for _ in range(200):
        d = rng.choice([1, 2, 3])
        m = rng.randint(1, 9)
        pool = [tuple(rng.randint(-8, 8) for _ in range(d)) for _ in range(rng.randint(1, m))]
        pts = [rng.choice(pool) for _ in range(m)]
        assert hilbert_mumford_torus(pts) == hilbert_mumford_bruteforce(pts), pts


# -- reports -------------------------------------------------------------------


def test_twist_exponent():
    assert twist_exponent(1, 4, 1) == 11
    assert twist_exponent(1, 2, 1) == 4
    assert twist_exponent(2, 2, 1) == 9  # 1*2 + 2*3, times M=1, plus 1
    with pytest.raises(ValueError):
        twist_exponent(1, 4, 0)


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
        probe_stabilizer_conjecture(2, 7, 1)


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


def test_codim_report_k11():
    """The paper's codimension-two statement at k = 11 (forced): base
    stabilizer k - 1, lambda_k and mu_{k-1} at k + 1, mu_sigma at 2k - sigma."""
    k = 11
    rep = codim_report(k, 1, force=True)
    assert rep["base_stabilizer_dim"] == k - 1
    assert [c["proj_stab_dim"] for c in rep["candidates"]] == [
        15, 16, 16, 18, 15, 17, 18, 16, 14, 12, 20, 19, 18, 17, 16, 15, 14, 13, 12]
    by_kind = {(c["kind"], c["sigma"]): c["proj_stab_dim"] for c in rep["candidates"]}
    assert by_kind[("lambda", k)] == by_kind[("mu", k - 1)] == k + 1
    assert all(by_kind[("mu", s)] == 2 * k - s for s in range(2, k))
    assert rep["all_bounds_ok"]


def test_codim_report_k12_builds_only_the_domain_basis():
    """k = 12 in the same shape as k = 11; the span systems are keyed by
    monomials, so the only Sym basis the report builds is the domain's,
    Sym^{<=12} C^1."""
    k = 12
    _sym_basis_cached.cache_clear()
    rep = codim_report(k, 1, force=True)
    info = _sym_basis_cached.cache_info()
    assert info.currsize == 1
    sym_basis(1, k)
    assert _sym_basis_cached.cache_info().hits == info.hits + 1
    assert rep["base_stabilizer_dim"] == k - 1
    assert [c["proj_stab_dim"] for c in rep["candidates"]] == [
        18, 19, 19, 20, 18, 18, 19, 19, 17, 15, 13, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13]
    assert rep["all_bounds_ok"]


def test_probe_conjecture_2_6():
    """Probe (2, 6), under the span gate."""
    rep = probe_stabilizer_conjecture(2, 6, 1)
    assert rep["measured_dim"] == rep["predicted_dim"] == 53
    assert rep["match"]


def test_probe_conjecture_2_7():
    """Probe (2, 7), past the span gate (forced)."""
    rep = probe_stabilizer_conjecture(2, 7, 1, force=True)
    assert rep["measured_dim"] == rep["predicted_dim"] == 69
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
