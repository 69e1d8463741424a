import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetinv.embedding import phi, phi_integral
from jetinv.exact import Matrix, MinorPlan, MinorTable, PolyRing, SparsePolynomial, kernel_basis, rank, term_list
from jetinv.jets import (
    JetMap,
    compose,
    jet_var_name,
    random_jet,
    random_reparam,
    symbolic_jet,
)
from jetinv.invariants import test_curve_system as curve_system
from jetinv.invariants import (
    InvariantPoly,
    MINOR_COUNT_CEILING,
    TRIAL_BOUND,
    ResourceLimitError,
    _candidates,
    _generator_families,
    _is_new,
    _symbolic_table,
    _trial_plan,
    count_candidate_minors,
    generator_set,
    scale_jet,
    solution_space_equals_perp,
    verify_generator_suite,
)
from jetinv.symbasis import orderings_count, sym_basis, sym_dim
import oracles
from oracles import (bulk_invariance_check, exact_minor, sparse_product, vector_to_sym,
                     verify_invariance_symbolic, verify_suite_in_rationals)


def test_generator_set_2_2_contents():
    gens = generator_set(2, 2, 1)
    polys = {str(g.poly.normalized()) for g in gens}
    assert polys == {
        "u1_1",
        "u1_2",
        "u1_1*u2_2 - u1_2*u2_1",
        "u1_1^3",
        "u1_1^2*u1_2",
        "u1_1*u1_2^2",
        "u1_2^3",
    }
    degree_one = [g for g in gens if g.weighted_degree == 1]
    assert {str(g.poly) for g in degree_one} == {"u1_1", "u1_2"}


def test_generator_set_1_1():
    gens = generator_set(1, 1, 1)
    assert len(gens) == 1 and str(gens[0].poly) == "u1_1"


def test_replace_drops_the_cached_polynomial():
    """A generator rebuilt by dataclasses.replace expands its own minor: with
    its three rows reversed, one transposition, it is minus the original, as
    a fresh entry with that provenance computes it."""
    g = generator_set(2, 3)[-1]
    assert len(g.rows) == 3 and g.poly
    swapped = dataclasses.replace(g, rows=g.rows[::-1])
    fresh = InvariantPoly(n=g.n, k=g.k, p=g.p, rows=g.rows[::-1], cols=g.cols,
                          weighted_degree=g.weighted_degree)
    assert swapped.poly == fresh.poly == -g.poly


def test_equal_provenance_compares_equal_materialized_or_not():
    """dataclasses.replace drops the packed minor and the polynomial; neither
    takes part in == or repr."""
    for g in generator_set(2, 3):
        assert g.poly and "poly" in vars(g) and g._packed is not None
        bare = dataclasses.replace(g)
        assert bare == g and repr(bare) == repr(g)
        assert bare._packed is None and "poly" not in vars(bare)
        assert g == InvariantPoly(n=g.n, k=g.k, p=g.p, rows=g.rows, cols=g.cols,
                                  weighted_degree=g.weighted_degree)
    assert generator_set(2, 3)[0] != dataclasses.replace(generator_set(2, 3)[0], weighted_degree=0)


def test_generator_weighted_degrees_are_column_sums():
    gens = generator_set(3, 3, 1)
    for g in gens:
        s = len(g.cols)
        assert g.weighted_degree == s * (s + 1) // 2


def test_generator_homogeneity_symbolic():
    """Every term of a generator has torus weight equal to the stated
    weighted degree (the symbolic homogeneity check)."""
    for n, k in [(2, 2), (3, 3)]:
        gens = generator_set(n, k, 1)
        dom = sym_basis(1, k)
        for g in gens:
            ring = g.poly.ring
            weights = []
            for name in ring.names:
                for s in dom.exponents:
                    for j in range(1, n + 1):
                        if name == jet_var_name("u", s, j):
                            weights.append(s[0])
            assert len(weights) == len(ring.names)
            for exp in g.poly.terms:
                w = sum(e * wt for e, wt in zip(exp, weights))
                assert w == g.weighted_degree, (g.rows, g.cols)


def test_verify_invariance_positive():
    gens = generator_set(2, 2, 1)
    for g in gens:
        rep = verify_generator_suite([g], trials=30, seed=11)
        assert rep["ok"] and rep["witness"] is None, rep


def test_verify_invariance_detects_noninvariant():
    """A raw second-derivative coordinate is not invariant; a witness must
    be found."""
    fake = InvariantPoly(
        n=2, k=2, p=1, rows=((1,),), cols=((2,),), weighted_degree=2
    )
    # rows e1, column 2 picks u2_1 + quadratic terms; its degree-1 part alone
    # transforms with an alpha_2 shear, so the minor (here a single entry)
    # is *not* unipotent-invariant.
    rep = verify_generator_suite([fake], trials=50, seed=0)
    assert not rep["ok"]
    assert rep["witness"]["kind"] == "invariance"


@pytest.mark.parametrize("n,k,p,wrong", [(2, 2, 1, 2), (3, 2, 2, (4, 3))])
def test_verify_wrong_weighted_degree_gives_homogeneity_witness(n, k, p, wrong):
    """An invariant minor with a misstated torus weight passes the invariance
    comparison and fails the homogeneity one."""
    g = generator_set(n, k, p, force=True)[0]
    assert g.weighted_degree != wrong
    fake = dataclasses.replace(g, weighted_degree=wrong)
    rep = verify_generator_suite([g, fake], trials=5, seed=3)
    assert not rep["ok"]
    assert rep["witness"]["kind"] == "homogeneity" and rep["witness"]["trial"] == 0


def _suites():
    """Generator lists for the oracle comparison: p = 1 and p = 2 shapes, each
    also with a misstated weighted degree, and a non-invariant entry."""
    curves, surfaces = generator_set(2, 3, 1), generator_set(3, 2, 2, force=True)
    raw = InvariantPoly(n=2, k=3, p=1, rows=((1,),), cols=((2,),), weighted_degree=2)
    return {
        "p=1": curves,
        "p=2": surfaces,
        "p=1 wrong degree": curves[:4] + [dataclasses.replace(curves[4], weighted_degree=7)],
        "p=2 wrong degree": [dataclasses.replace(surfaces[-1], weighted_degree=(3, 4))],
        "non-invariant": curves[:3] + [raw] + curves[3:],
        "reversed rows": [dataclasses.replace(g, rows=g.rows[::-1]) for g in curves[-3:]],
    }


_SUITES = _suites()


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.sampled_from(sorted(_SUITES)), st.integers(0, 10**6), st.integers(1, 3))
def test_verify_suite_equals_the_rational_oracle(name, seed, trials):
    """The integer-scale comparison reports exactly what comparing rational
    minor values reports, witness included."""
    gens = _SUITES[name]
    assert verify_generator_suite(gens, trials=trials, seed=seed) == \
        verify_suite_in_rationals(gens, trials, seed)


def _sparse_random_jet(zeroed):
    """random_jet with the coordinates (coefficient index, coordinate) in
    zeroed forced to 0, after the same draws."""
    def draw(rng, p, q, k, bound=20, regular=False):
        jet = random_jet(rng, p, q, k, bound=bound, regular=regular)
        return JetMap(p, q, k, {s: tuple(Fraction(0) if (i, c) in zeroed else x for c, x in enumerate(vec))
                                for i, (s, vec) in enumerate(jet.coeffs.items())})
    return draw


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.sampled_from(sorted(_SUITES)), st.integers(0, 10**6), st.integers(1, 3),
       st.sets(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=6))
def test_verify_suite_on_sparse_jets_equals_the_rational_oracle(name, seed, trials, zeroed):
    """Jets with forced zero coefficients, the first coordinate of the first
    coefficient always among them, give trial tables whose supports lie
    strictly inside the structural supports of the shared plan; the report,
    witness included, is still the rational oracle's."""
    from unittest import mock

    gens, draw = _SUITES[name], _sparse_random_jet(zeroed | {(0, 0)})
    first = draw(random.Random(seed), gens[0].p, gens[0].n, gens[0].k, bound=TRIAL_BOUND)
    assert MinorTable(phi_integral(first)[0]).supports != _trial_plan(gens).supports
    with mock.patch("jetinv.invariants.random_jet", draw), mock.patch.object(oracles, "random_jet", draw):
        assert verify_generator_suite(gens, trials=trials, seed=seed) == \
            verify_suite_in_rationals(gens, trials, seed)


def test_trial_plan_of_the_3_4_generators():
    """One plan for the 1,363 generators at (n, k) = (3, 4): 1,560 nodes with
    the empty minor, where one recursive table per matrix memoized 2,747."""
    plan = _trial_plan(generator_set(3, 4))
    assert [len(level) for level in plan.levels] == [3, 21, 274, 1261]
    assert sum(len(cells) for level in plan.levels for _, cells, _ in level) == 3247
    assert 1 + sum(map(len, plan.levels)) == 1560 < 2747


def test_candidate_plan_of_the_3_4_generator_set():
    """generator_set(3, 4) reads the 2,248 candidates that the block key
    keeps, of 6,104, off one plan on the symbolic table's supports: 2,408
    nodes and 4,822 cells."""
    from unittest import mock

    plans = []

    class Kept(MinorPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    with mock.patch("jetinv.invariants.MinorPlan", Kept):
        generator_set(3, 4)
    plan, = plans
    assert plan.count == 2248
    assert [len(level) for level in plan.levels] == [3, 21, 274, 2110]
    assert sum(len(cells) for level in plan.levels for _, cells, _ in level) == 4822


def test_verify_invariance_symbolic_small():
    gens = generator_set(2, 2, 1)
    for g in gens:
        assert verify_invariance_symbolic(g)
    gens33 = generator_set(3, 3, 1)
    picked = [gens33[0], gens33[len(gens33) // 2], gens33[-1]]
    for g in picked:
        assert verify_invariance_symbolic(g)


def test_verify_generator_suite():
    gens = generator_set(3, 3, 1)
    rep = verify_generator_suite(gens, trials=15, seed=4)
    assert rep["ok"] and rep["generators"] == len(gens)


def test_generators_of_mixed_shapes_are_refused():
    """The trial jets and the plan have one (n, k, p): a generator of another
    shape would be read as some other minor, so a mixed list raises."""
    fake = InvariantPoly(n=3, k=2, p=1, rows=((3,),), cols=((2,),), weighted_degree=2)
    assert verify_generator_suite([fake], trials=5, seed=0)["witness"]["kind"] == "invariance"
    for mixed in (generator_set(2, 2) + [fake], generator_set(2, 2) + generator_set(3, 3)[:3],
                  generator_set(2, 2) + generator_set(3, 3), generator_set(3, 2, 2)[:1] + generator_set(3, 2)):
        with pytest.raises(ValueError, match="shape"):
            verify_generator_suite(mixed, trials=5, seed=0)


def test_bulk_invariance_check():
    rep = bulk_invariance_check(4, 4, trials=10, seed=9)
    assert rep["ok"] and rep["failures"] == 0


@pytest.mark.parametrize("trials", [0, -5])
def test_zero_trials_never_report_ok(trials):
    with pytest.raises(ValueError):
        verify_generator_suite(generator_set(2, 2, 1), trials=trials)
    with pytest.raises(ValueError):
        verify_generator_suite([], trials=trials)
    with pytest.raises(ValueError):
        bulk_invariance_check(2, 2, trials=trials)


def test_empty_generator_suite_is_refused():
    # a check over no generator draws no jet, so it must not report ok
    with pytest.raises(ValueError, match="at least one generator"):
        verify_generator_suite([])


def test_generator_count_limit():
    assert count_candidate_minors(4, 4) > 20000
    with pytest.raises(ResourceLimitError):
        generator_set(4, 4, 1)


def test_count_equals_enumeration():
    """One staircase rule: the count is the number of candidates that the
    brute-force oracle enumerates, on every shape small enough to enumerate;
    the enumeration behind generator_set skips the block-factor duplicates
    among them."""
    shapes = 0
    for p in (1, 2, 3):
        for n in range(1, 6):
            for k in range(1, 5):
                count = count_candidate_minors(n, k, p)
                if count > 30000:
                    continue
                assert count == len(oracles.staircase_candidates(n, k, p)), (n, k, p)
                shapes += 1
    assert shapes == 48
    assert count_candidate_minors(3, 2, 2) == 75
    assert count_candidate_minors(4, 2, 2) == 910
    assert count_candidate_minors(3, 4) == 6104 and len(_candidates(3, 4, 1)) == 2248


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(1, 5)
                                  if count_candidate_minors(n, k) <= MINOR_COUNT_CEILING] + [(2, 5)])
def test_block_skip_keeps_the_generators_of_every_candidate(n, k):
    """The generators, term maps included, are those that _is_new keeps
    from one plan over every oracle candidate: a candidate that the block
    key skips is never the first of its proportionality class."""
    basis, domain = sym_basis(n, k), sym_basis(1, k).exponents
    where = oracles.staircase_candidates(n, k, 1)
    table, seen, expected = _symbolic_table(n, k, 1), {}, []
    for q, terms in table.packed(MinorPlan([(rows, range(s)) for rows, s, _ in where], table.supports)):
        if terms and _is_new(terms, seen):
            rows, s, wd = where[q]
            expected.append((tuple(map(basis.monomials.__getitem__, rows)), tuple(domain[:s]), wd, terms))
    assert [(g.rows, g.cols, g.weighted_degree, g._packed_minor()[1])
            for g in generator_set(n, k)] == expected


_BLOCK_CANDIDATES = {shape: oracles.staircase_candidates(*shape, 1) for shape in ((3, 4), (2, 5))}


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.sampled_from(sorted(_BLOCK_CANDIDATES)), st.integers(0, 10**6))
def test_a_flag_minor_is_the_product_of_its_blocks(shape, i):
    """With the row degrees sorted, a row of degree d_j = j opens a block:
    the minor is the product of the block minors, and a one-row block is a
    positive multiple of the monomial of its row's first-order coordinates,
    the first n variables of the symbolic jet."""
    n, k = shape
    rows, s, _ = _BLOCK_CANDIDATES[shape][i % len(_BLOCK_CANDIDATES[shape])]
    basis, gamma = sym_basis(n, k), symbolic_jet(1, n, k)[0]
    degree = lambda r: len(basis.monomials[r])
    rows = sorted(rows, key=degree)
    starts = [j for j in range(s) if degree(rows[j]) == j + 1] + [s]
    blocks = [exact_minor(gamma, rows[a:b], list(range(a, b))) for a, b in zip(starts, starts[1:])]
    product = blocks[0]
    for block in blocks[1:]:
        product = product * block
    assert exact_minor(gamma, rows, list(range(s))) == product
    for a, b, block in zip(starts, starts[1:], blocks):
        if b - a == 1:
            (exponent, coeff), = block.terms.items()
            assert coeff > 0 and exponent == basis.exponents[rows[a]] + (0,) * (len(exponent) - n)


def test_generator_families_need_no_basis(monkeypatch):
    """Column degrees and weighted degrees come from binomial counts; they
    equal those read off the domain basis, which the families never build."""
    import jetinv.invariants

    for p in (2, 3):
        for k in (1, 2, 3, 4):
            cols = sym_basis(p, k).exponents
            assert _generator_families(60, k, p) == [
                (tuple(map(sum, cols)), tuple(map(sum, zip(*cols))))]

    def no_basis(*args):
        raise AssertionError("basis built")

    monkeypatch.setattr(jetinv.invariants, "sym_basis", no_basis)
    assert _generator_families(2, 12, 8) == []  # 125,969 columns, 90 rows
    assert count_candidate_minors(2, 12, 8) == 0
    assert generator_set(2, 12, 8) == []


def test_generator_gate_runs_before_any_candidate(monkeypatch):
    import jetinv.invariants

    def no_enumeration(*args):
        raise AssertionError("candidates enumerated past the gate")

    monkeypatch.setattr(jetinv.invariants, "_staircase_row_sets", no_enumeration)
    with pytest.raises(ResourceLimitError):
        generator_set(5, 5, 1)


def test_generator_set_p2_maximal_minors():
    gens = generator_set(3, 2, 2, force=True)
    assert gens, "maximal minors should exist for n=3, p=k=2"
    for g in gens:
        assert len(g.cols) == sym_dim(2, 2) == 5
        assert g.weighted_degree == (4, 4)
    rep = verify_generator_suite(gens[:10], trials=10, seed=2)
    assert rep["ok"]


def test_scale_jet():
    rng = random.Random(3)
    jet = random_jet(rng, 2, 2, 2, bound=5)
    lam = (Fraction(2), Fraction(3))
    scaled = scale_jet(jet, lam)
    assert scaled.coeffs[(1, 1)][0] == 6 * jet.coeffs[(1, 1)][0]
    assert scaled.coeffs[(2, 0)][1] == 4 * jet.coeffs[(2, 0)][1]


# -- test-curve systems ------------------------------------------------------


def test_rank_kN_random_regular():
    rng = random.Random(17)
    for k, n, N in [(2, 2, 1), (3, 3, 2), (4, 4, 1)]:
        for _ in range(8):
            g = random_jet(rng, 1, n, k, bound=7, regular=True)
            assert curve_system(g, N).matrix.rank() == k * N


def test_rank_p2():
    rng = random.Random(19)
    g = random_jet(rng, 2, 3, 2, bound=7, regular=True)
    sysm = curve_system(g, 1)
    assert sysm.matrix.rank() == sym_dim(2, 2)
    assert sysm.matrix.rows == sym_dim(2, 2)


def test_nonregular_rank_drops():
    bad = JetMap(1, 2, 4, {(2,): (Fraction(1), Fraction(2)), (4,): (Fraction(3), Fraction(1))})
    assert curve_system(bad, 1).matrix.rank() < 4


def test_solution_space_equals_perp():
    rng = random.Random(23)
    for k, n, N in [(3, 3, 1), (2, 2, 2), (2, 3, 1)]:
        for _ in range(6):
            g = random_jet(rng, 1, n, k, bound=7, regular=True)
            assert solution_space_equals_perp(g, N)
    from jetinv.jets import flat_jet

    assert solution_space_equals_perp(flat_jet(1, 3), 1)
    g = random_jet(rng, 2, 3, 2, bound=7, regular=True)
    assert solution_space_equals_perp(g, 1)


def test_solution_space_equals_perp_fails_on_misweighted_rows(monkeypatch):
    g = random_jet(random.Random(31), 1, 3, 3, bound=7, regular=True)
    assert solution_space_equals_perp(g, 1)
    # unit weights break the monomial/hom pairing on coordinates such as u^(1,2)
    basis = sym_basis(3, 3)
    monkeypatch.setattr(basis, "orderings", [1] * len(basis))
    assert not solution_space_equals_perp(g, 1)


_property = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def _jets(draw):
    """Random jets with p in {1, 2}, k, n <= 4 and N <= 3, regular or not;
    half of the irregular ones have a vanishing linear block."""
    p, k, regular = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.booleans())
    n, N = draw(st.integers(p if regular else 1, 4)), draw(st.integers(1, 3))
    gamma = random_jet(random.Random(draw(st.integers(0, 10**6))), p, n, k, bound=5,
                       regular=regular)
    if not regular and draw(st.booleans()):
        gamma = JetMap(p, n, k, {s: v if sum(s) > 1 else (Fraction(0),) * n
                                 for s, v in gamma.coeffs.items()})
    return gamma, N


def _spans_agree(gamma, N):
    """The former perp check, kept as a reference oracle: span S = rowspace A
    by rank S = rank A = rank(S + A), with S the embedded columns weighted by
    1 / orderings and tensored with C^N."""
    sysm = curve_system(gamma, N)
    pm = phi(gamma)
    col_of = {sc: i for i, sc in enumerate(sysm.col_index)}
    span_rows = []
    for col in pm.columns:
        for c in range(N):
            vec = [Fraction(0)] * len(sysm.col_index)
            for pos, val in col.items():
                vec[col_of[(pm.basis.exponents[pos], c)]] = val / orderings_count(
                    pm.basis.monomials[pos])
            span_rows.append(vec)
    return rank(span_rows) == sysm.matrix.rank() == rank(span_rows + sysm.matrix.data)


@_property
@given(_jets())
def test_perp_check_agrees_with_the_span_oracle(case):
    gamma, N = case
    for jet in (gamma, gamma.integral()[0]):
        assert solution_space_equals_perp(jet, N)
        assert _spans_agree(jet, N)


@_property
@given(_jets())
def test_integral_jet_system_keeps_the_rank_and_perp_verdict(case):
    """Column (s, c) of the system of D * gamma is D^|s| times that of gamma,
    in ints, so the rank is kept; the perp identity scales the same way (the
    span oracle runs on both jets in the test above)."""
    gamma, N = case
    scaled, d = gamma.integral()
    sysm, syss = curve_system(gamma, N), curve_system(scaled, N)
    assert all(type(x) is int for row in syss.matrix.data for x in row)
    assert all(xs == d ** sum(s) * x for row, rows in zip(sysm.matrix.data, syss.matrix.data)
               for (s, _), x, xs in zip(sysm.col_index, row, rows))
    assert syss.matrix.rank() == sysm.matrix.rank()
    assert solution_space_equals_perp(scaled, N, syss) is solution_space_equals_perp(gamma, N, sysm)


@_property
@given(_jets(), st.data())
def test_perp_check_refutes_any_changed_entry(case, data):
    """On the system of gamma and on the int system of D * gamma: a changed
    cell, a changed zero cell and a missing row are each refuted."""
    gamma, N = case
    for jet in (gamma, gamma.integral()[0]):
        sysm = curve_system(jet, N)
        assert solution_space_equals_perp(jet, N, sysm)
        cells = [(i, j, x) for i, row in enumerate(sysm.matrix.data) for j, x in enumerate(row)]
        for pool in (cells, [cell for cell in cells if not cell[2]]):
            if not pool:
                continue
            i, j, _ = data.draw(st.sampled_from(pool))
            rows = [list(row) for row in sysm.matrix.data]
            rows[i][j] += data.draw(st.sampled_from([1, -1, Fraction(1, 2), Fraction(-5, 3)]))
            changed = dataclasses.replace(sysm, matrix=Matrix(rows))
            assert not solution_space_equals_perp(jet, N, changed)
        # every row must be there: a system missing its last equation is refuted
        short = dataclasses.replace(sysm, row_index=sysm.row_index[:-1],
                                    matrix=Matrix(sysm.matrix.data[:-1]))
        assert not solution_space_equals_perp(jet, N, short)


@pytest.mark.parametrize("p,k,n", [(1, 3, 2), (2, 2, 2), (1, 3, 3)])
@pytest.mark.parametrize("N", [1, 2])
def test_perp_identity_holds_for_symbolic_jets(p, k, n, N):
    # entries are polynomials in the jet coefficients, so this proves the
    # identity at these sizes; a rank-based check cannot run on them
    gamma, _ = symbolic_jet(p, n, k)
    assert solution_space_equals_perp(gamma, N)


def test_reparametrization_closure():
    rng = random.Random(29)
    g = random_jet(rng, 1, 3, 3, bound=5, regular=True)
    sysm = curve_system(g, 1)
    col_of = {sc: i for i, sc in enumerate(sysm.col_index)}
    kernel_jets = [JetMap(3, 1, 3, {s: (vec[col_of[(s, 0)]],) for s in sym_basis(3, 3).exponents})
                   for vec in kernel_basis(sysm.matrix.data, len(sysm.col_index))]
    assert kernel_jets
    for Psi in kernel_jets:
        assert not compose(Psi, g).coeffs
    psi = random_reparam(rng, 1, 3, bound=5)
    g2 = compose(g, psi)
    for Psi in kernel_jets[:5]:
        assert not compose(Psi, g2).coeffs


def test_example_8_3_symbolic_rows():
    """The five displayed vanishing equations at k = p = 2, written with the
    hom pairing Psi''(v, w) = sum_s Psi_s [e^s](v w)/orderings(s)."""
    n = 3
    gamma, _ = symbolic_jet(2, n, 2, prefix="g")
    sysm = curve_system(gamma, 1)
    ring = gamma.coeffs[(1, 0)][0].ring
    g = lambda s, j: ring.var(f"g[{s[0]},{s[1]}]_{j}")

    def hom_pair_row(linear_vec, quad_pairs):
        """Expected row: Psi'(linear_vec) + sum of c * Psi''(v, w) terms."""
        row = {}
        for j in range(1, n + 1):
            row[((0,) * (j - 1) + (1,) + (0,) * (n - j), 0)] = linear_vec[j - 1]
        quadrics = sym_basis(n, 2)
        for coeff, v, w in quad_pairs:
            prod = sparse_product(vector_to_sym(v, n), vector_to_sym(w, n))
            for s, c in prod.items():
                key = (s, 0)
                add = coeff * c * Fraction(1, quadrics.orderings[quadrics.exponent_position[s]])
                row[key] = row.get(key, ring.zero()) + add
        return row

    vec = lambda s: [g(s, j) for j in range(1, n + 1)]
    expected_rows = {
        (1, 0): hom_pair_row(vec((1, 0)), []),
        (0, 1): hom_pair_row(vec((0, 1)), []),
        (2, 0): hom_pair_row(vec((2, 0)), [(1, vec((1, 0)), vec((1, 0)))]),
        (1, 1): hom_pair_row(vec((1, 1)), [(2, vec((1, 0)), vec((0, 1)))]),
        (0, 2): hom_pair_row(vec((0, 2)), [(1, vec((0, 1)), vec((0, 1)))]),
    }
    col_of = {sc: i for i, sc in enumerate(sysm.col_index)}
    for (m, c), row in zip(sysm.row_index, sysm.matrix.data):
        expected = expected_rows[m]
        for idx, entry in enumerate(row):
            want = expected.get(sysm.col_index[idx], ring.zero())
            assert entry == want, (m, sysm.col_index[idx], str(entry), str(want))


_KEY_RING = PolyRing(["x", "y", "z"])
_INT_POLYS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-6, 6).filter(bool), min_size=1, max_size=5,
).map(lambda terms: SparsePolynomial(_KEY_RING, terms))
_NONZERO_RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)


def _packed_new(*polys):
    """Whether each of polys, packed by one MinorTable, is new up to scale
    after the ones before it, as generator_set dedups its candidates."""
    table, seen = MinorTable([dict(enumerate(polys))]), {}
    plan = MinorPlan([([i], [0]) for i in range(len(polys))], table.supports)
    return [_is_new(terms, seen) for _, terms in table.packed(plan)]


@_property
@given(_INT_POLYS, _NONZERO_RATIONALS)
def test_support_buckets_collapse_rational_multiples(f, c):
    g = f * c.denominator  # so that c * g has integer coefficients too
    cg = SparsePolynomial(_KEY_RING, {e: int(c * v) for e, v in g.terms.items()})
    assert cg == g * c and _packed_new(cg, g, f) == [True, False, False]


@_property
@given(_INT_POLYS, _INT_POLYS, st.lists(st.integers(-6, 6).filter(bool), min_size=5, max_size=5))
def test_support_buckets_separate_non_proportional_polynomials(f, g, cs):
    """Also against h, a map on f's own support: a bucket hit is compared
    exactly, not taken as a duplicate."""
    h = SparsePolynomial(_KEY_RING, dict(zip(f.terms, cs)))
    for other in (g, h):
        (_, a), (_, b) = f.leading_term(), other.leading_term()
        assert _packed_new(f, other) == [True, f * b != other * a]


@pytest.mark.parametrize("n, k, p", [(2, 2, 1), (3, 3, 1), (2, 4, 1), (3, 4, 1), (3, 2, 2), (2, 3, 2)])
def test_packed_json_equals_the_json_of_the_expanded_minor(n, k, p):
    """to_json writes the terms straight off the packed minor: they equal the
    terms of the materialized polynomial, and those of the minor expanded
    afresh from the provenance."""
    gamma = symbolic_jet(p, n, k)[0]
    for g in generator_set(n, k, p):
        packed = g.to_json()
        for poly in (g.poly, exact_minor(gamma, *g.positions())):
            assert packed == {**packed, "poly": term_list(poly.terms), "vars": poly.ring.names}


@pytest.mark.parametrize("n, k, p", [(2, 3, 1), (3, 3, 1), (3, 2, 2)])
def test_replaced_generators_expand_their_own_packed_minor(n, k, p):
    """A generator rebuilt by dataclasses.replace carries no packed minor; it
    expands its provenance on first read to the same JSON and polynomial."""
    for g in generator_set(n, k, p):
        bare = dataclasses.replace(g)
        assert bare.to_json() == g.to_json() and bare._packed is not None
        assert dataclasses.replace(g).poly == g.poly


def test_structurally_zero_generator_writes_no_terms():
    g = InvariantPoly(n=2, k=2, p=1, rows=((1, 1),), cols=((1,),), weighted_degree=1)
    assert g.to_json()["poly"] == [] and not g.poly
    assert g.to_json()["vars"] == symbolic_jet(1, 2, 2)[1].names


def test_generator_set_shares_one_tuple_per_monomial():
    """Equal exponent tuples across one call are one object, so the JSON
    writer's identity memo writes each monomial once."""
    gens = generator_set(3, 3)
    first = {}
    assert all(first.setdefault(e, e) is e for g in gens for e in g.poly.terms)
    assert len(first) < sum(len(g.poly.terms) for g in gens)


def test_generator_set_3_4_counts_and_fraction_coefficients():
    """The dedup on integer minors keeps 1,363 generators, and what it
    returns has Fraction coefficients like any other polynomial."""
    gens = generator_set(3, 4)
    counts = {}
    for g in gens:
        counts[g.weighted_degree] = counts.get(g.weighted_degree, 0) + 1
    assert counts == {1: 3, 3: 13, 6: 86, 10: 1261}
    assert all(type(c) is Fraction for g in gens for c in g.poly.terms.values())
