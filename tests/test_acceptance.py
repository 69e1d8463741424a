"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated runtime budget.

All checks are exact; there are no numeric tolerances anywhere.
"""

import random
import time
from fractions import Fraction

from jetinv.exact import Matrix, rank
from jetinv.jets import (
    compose,
    gkp_entry,
    group_matrix,
    group_param_name,
    identity_jet,
    invert,
    random_jet,
    random_reparam,
    symbolic_jet,
    symbolic_reparam,
)
from jetinv.embedding import apply_group_to_wedge, p_point, phi
from jetinv.invariants import test_curve_system as curve_system
from jetinv.invariants import (
    generator_set,
    solution_space_equals_perp,
    verify_generator_suite,
)
from jetinv.orbits import (
    TwistedPoint,
    codim_report,
    extra_stabilizer,
    hilbert_mumford_torus,
    infinitesimal_stabilizer,
    lambda_sigma,
    limit_point,
    limit_stabilizer_matrix,
    mu_sigma,
    probe_stabilizer_conjecture,
    z_closed_form,
)
from jetinv.symbasis import sym_basis, sym_dim
from oracles import (bulk_invariance_check, distinguished_twisted_point, evaluate, first_order_directions,
                     hilbert_mumford_bruteforce, proportional_to, sparse_product, stabilizer_full_tensor_e1,
                     vector_to_sym)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            verdict = "PASS"
        else:
            verdict = "FAIL"
        print(f"ACCEPTANCE {self.name}: {verdict} ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        return False


def test_criterion_01_group_matrix_fixtures():
    with _Budget("1 group-matrix fixtures", 1.0):
        # Eq. 1 symbolic k x k, entrywise against the general entry formula
        for k in (2, 3, 4):
            psi, ring = symbolic_reparam(1, k)
            m = group_matrix(psi)
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    assert m.data[i - 1][j - 1] == gkp_entry((1,) * i, (1,) * j, 1, k, ring)
            if k >= 3:
                a1, a2 = ring.var("a1"), ring.var("a2")
                assert m.data[1][2] == 2 * a1 * a2  # the displayed 2 a1 a2
        # Example 2.1: the 9 x 9 with the P and Q entries, exactly
        psi23, ring = symbolic_reparam(2, 3)
        m = group_matrix(psi23)
        basis = sym_basis(2, 3)
        a = lambda s: ring.var(group_param_name(1, s))
        b = lambda s: ring.var(group_param_name(2, s))
        assert m.rows == m.cols == 9
        for j, nu in enumerate(basis.exponents):
            assert m.data[0][j] == a(nu) and m.data[1][j] == b(nu)
        i_12 = basis.position[(1, 2)]
        P = a((1, 0)) * b((1, 1)) + a((1, 1)) * b((1, 0)) + a((2, 0)) * b((0, 1)) + a((0, 1)) * b((2, 0))
        Q = a((0, 1)) * b((1, 1)) + a((1, 1)) * b((0, 1)) + a((0, 2)) * b((1, 0)) + a((1, 0)) * b((0, 2))
        assert m.data[i_12][basis.position[(1, 1, 2)]] == P
        assert m.data[i_12][basis.position[(1, 2, 2)]] == Q
        for i, tau in enumerate(basis.monomials):
            for j, nu in enumerate(basis.monomials):
                assert m.data[i][j] == gkp_entry(tau, nu, 2, 3, ring)


def test_criterion_02_closed_form_entries():
    with _Budget("2 closed-form entries", 10.0):
        for p, k in [(1, 4), (2, 2), (2, 3)]:
            psi, ring = symbolic_reparam(p, k)
            m = group_matrix(psi)
            basis = sym_basis(p, k)
            for i, tau in enumerate(basis.monomials):
                for j, nu in enumerate(basis.monomials):
                    assert m.data[i][j] == gkp_entry(tau, nu, p, k, ring), (p, k, tau, nu)


def test_criterion_03_group_law_and_inverse():
    with _Budget("3 group law", 120.0):
        rng = random.Random(2024)
        for p, k in [(1, 4), (2, 3)]:
            for _ in range(100):
                psi = random_reparam(rng, p, k, bound=9)
                chi = random_reparam(rng, p, k, bound=9)
                assert group_matrix(compose(psi, chi)) == group_matrix(psi) @ group_matrix(chi)
        for i in range(100):
            p, k = (1, 4) if i % 2 == 0 else (2, 3)
            psi = random_reparam(rng, p, k, bound=9)
            inv = invert(psi)
            assert compose(psi, inv) == identity_jet(p, k)
            assert compose(inv, psi) == identity_jet(p, k)


def test_criterion_04_phi_fixtures():
    with _Budget("4 phi fixtures", 5.0):
        # Example 8.7 exactly
        gamma, ring = symbolic_jet(2, 2, 2, prefix="v")
        pm = phi(gamma)
        v = lambda s, j: ring.var(f"v[{s[0]},{s[1]}]_{j}")

        def col(s):
            idx = pm.col_index.index(s)
            return {pm.basis.monomials[pos]: c for pos, c in pm.columns[idx].items()}

        assert col((1, 0)) == {(1,): v((1, 0), 1), (2,): v((1, 0), 2)}
        assert col((0, 1)) == {(1,): v((0, 1), 1), (2,): v((0, 1), 2)}
        c20, c11, c02 = col((2, 0)), col((1, 1)), col((0, 2))
        assert c20[(1, 1)] == v((1, 0), 1) ** 2 and c20[(1,)] == v((2, 0), 1)
        assert c11[(1, 1)] == 2 * v((1, 0), 1) * v((0, 1), 1)
        assert c11[(1,)] == v((1, 1), 1)
        assert c02[(2, 2)] == v((0, 1), 2) ** 2

        # Example 7.4: the five minors up to nonzero scalar, plus coordinates
        gens = generator_set(2, 2, 1)
        normalized = {str(g.poly.normalized()) for g in gens}
        assert {
            "u1_1",
            "u1_2",
            "u1_1^3",
            "u1_1^2*u1_2",
            "u1_1*u1_2^2",
            "u1_2^3",
            "u1_1*u2_2 - u1_2*u2_1",
        } == normalized
        # the determinant minor is half of f'1 f''2 - f''1 f'2 in raw terms
        gamma22, r22 = symbolic_jet(1, 2, 2)
        u = lambda i, j: r22.var(f"u{i}_{j}")
        delta_raw = u(1, 1) * (2 * u(2, 2)) - (2 * u(2, 1)) * u(1, 2)
        minor = next(g for g in gens if len(g.cols) == 2 and len(g.poly.terms) == 2)
        assert delta_raw == 2 * minor.poly

        # Example 7.5: both displayed blocks, entrywise up to nonzero scalars
        gamma33, r33 = symbolic_jet(1, 3, 3)
        pm33 = phi(gamma33)
        u3 = lambda i, j: r33.var(f"u{i}_{j}")

        def col33(d):
            idx = pm33.col_index.index((d,))
            return {pm33.basis.monomials[pos]: c for pos, c in pm33.columns[idx].items()}

        fp = lambda j: u3(1, j)
        fpp = lambda j: 2 * u3(2, j)
        cols = {d: col33(d) for d in (1, 2, 3)}
        display = {}
        for j in (1, 2, 3):
            display[((j,), 1)] = fp(j)
            display[((j,), 2)] = u3(2, j)
            display[((j,), 3)] = u3(3, j)
        for (i, j) in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)]:
            display[(tuple(sorted((i, j))), 2)] = fp(i) * fp(j)
            display[(tuple(sorted((i, j))), 3)] = fp(i) * fpp(j) + fpp(i) * fp(j)
        from itertools import combinations_with_replacement

        for mono in combinations_with_replacement((1, 2, 3), 3):
            prod = r33.one()
            for letter in mono:
                prod = prod * fp(letter)
            display[(mono, 3)] = prod
        for (mono, d), expected in display.items():
            actual = cols[d].get(mono, r33.zero())
            if not expected:
                assert not actual
            else:
                assert actual and actual.normalized() == expected.normalized(), (
                    mono,
                    d,
                )
        # zero blocks of the display
        for mono in sym_basis(3, 3).monomials:
            if len(mono) >= 2:
                assert mono not in cols[1]
            if len(mono) == 3:
                assert mono not in cols[2]


def test_criterion_05_invariance_suite():
    with _Budget("5 invariance suite", 60.0):
        for n, k in [(2, 2), (3, 3), (2, 4)]:
            gens = generator_set(n, k, 1)
            report = verify_generator_suite(gens, trials=100, seed=1000 + n * 10 + k)
            assert report["ok"], (n, k, report)
        # (4,4): the factored certificate covers every flag minor at once
        # (Cauchy-Binet: columns transform by a block of determinant 1), plus
        # direct spot checks on a deterministic sample of the generator set.
        bulk = bulk_invariance_check(4, 4, trials=100, seed=99)
        assert bulk["ok"], bulk
        sample_rng = random.Random(7)
        gens44 = generator_set(4, 4, 1, force=True)
        sample = sample_rng.sample(gens44, 60)
        report = verify_generator_suite(sample, trials=100, seed=44)
        assert report["ok"], report
        # torus homogeneity, symbolically: every term of every generator has
        # the stated weight
        from jetinv.jets import jet_var_name

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
                for exp in g.poly.terms:
                    assert sum(e * w for e, w in zip(exp, weights)) == g.weighted_degree


def test_criterion_06_test_curve_codimension():
    with _Budget("6 test-curve codimension", 30.0):
        rng = random.Random(606)
        for k, n, N in [(2, 2, 1), (3, 3, 2), (4, 4, 1)]:
            for _ in range(50):
                g = random_jet(rng, 1, n, k, bound=9, regular=True)
                sysm = curve_system(g, N)
                assert sysm.matrix.rank() == k * N
                assert solution_space_equals_perp(g, N)
        for _ in range(50):
            g = random_jet(rng, 2, 3, 2, bound=9, regular=True)
            sysm = curve_system(g, 1)
            assert sysm.matrix.rank() == sym_dim(2, 2)
            assert solution_space_equals_perp(g, 1)
        # Eq. 64: the five displayed equations, symbolically
        gamma, _ = symbolic_jet(2, 3, 2, prefix="g")
        sysm = curve_system(gamma, 1)
        ring = gamma.coeffs[(1, 0)][0].ring
        gv = lambda s, j: ring.var(f"g[{s[0]},{s[1]}]_{j}")
        quadrics = sym_basis(3, 2)

        def quad_row(linear, pairs):
            row = {}
            for j in range(1, 4):
                key = (tuple(1 if i == j - 1 else 0 for i in range(3)), 0)
                row[key] = linear[j - 1]
            for coeff, vv, ww in pairs:
                prod = sparse_product(vector_to_sym(vv, 3), vector_to_sym(ww, 3))
                for s, c in prod.items():
                    add = coeff * c * Fraction(1, quadrics.orderings[quadrics.exponent_position[s]])
                    row[(s, 0)] = row.get((s, 0), ring.zero()) + add
            return row

        vec = lambda s: [gv(s, j) for j in range(1, 4)]
        expected = {
            (1, 0): quad_row(vec((1, 0)), []),
            (0, 1): quad_row(vec((0, 1)), []),
            (2, 0): quad_row(vec((2, 0)), [(1, vec((1, 0)), vec((1, 0)))]),
            (1, 1): quad_row(vec((1, 1)), [(2, vec((1, 0)), vec((0, 1)))]),
            (0, 2): quad_row(vec((0, 2)), [(1, vec((0, 1)), vec((0, 1)))]),
        }
        assert len(sysm.row_index) == 5
        for (m, c), row in zip(sysm.row_index, sysm.matrix.data):
            want_row = expected[m]
            for idx, entry in enumerate(row):
                want = want_row.get(sysm.col_index[idx], ring.zero())
                assert entry == want, (m, sysm.col_index[idx])


def test_criterion_07_distinguished_stabilizer():
    with _Budget("7 distinguished stabilizer", 60.0):
        for k in (2, 3, 4):
            for M in (1, 2):
                tp = distinguished_twisted_point(1, k, M)
                assert tp.b == M * k * (k + 1) // 2 + 1
                res = infinitesimal_stabilizer(tp, "sl", "affine")
                assert res.dimension == k - 1, (k, M)
        # cross-validate the twist reduction against full tensor expansion
        w = p_point(1, 2)
        full = stabilizer_full_tensor_e1(w, 2, "sl")
        reduced = infinitesimal_stabilizer(
            TwistedPoint(wedge=w, a=1, b=2, twist_dim=1), "sl", "affine"
        )
        assert full == reduced.dimension


def test_criterion_08_closed_form_equivalence():
    with _Budget("8 closed forms", 60.0):
        for k in range(2, 7):
            pk = p_point(1, k)
            for sigma in range(2, k + 1):
                z = z_closed_form(sigma, k, "lambda")
                assert z == limit_point(pk, lambda_sigma(sigma, k))
                for eps in (Fraction(1, k + 2), Fraction(1, 10 * k)):
                    assert z == limit_point(pk, lambda_sigma(sigma, k, eps))
            for sigma in range(2, k):
                z = z_closed_form(sigma, k, "mu")
                assert z == limit_point(pk, mu_sigma(sigma, k))
                for eps in (Fraction(1, k + 2), Fraction(1, 10 * k)):
                    assert z == limit_point(pk, mu_sigma(sigma, k, eps))


def test_criterion_09_codimension_two_check():
    with _Budget("9 codimension-two check", 300.0):
        rep = codim_report(4, 1)
        assert rep["base_stabilizer_dim"] == 3
        assert rep["open_orbit_dim"] == 12
        assert len(rep["candidates"]) == 5
        for c in rep["candidates"]:
            assert c["proj_stab_dim"] >= 5, c
            assert c["orbit_codim"] >= 2, c
            assert c["bound_ok"], c
        assert rep["all_bounds_ok"]
        # the extra transformations fix their limit points; the first-order
        # directions of the limit stabilizer, diag(i), diag(floor(i/sigma)) and
        # the extra direction all lie in the projective gl stabilizer of the
        # limit, and the extra one raises the rank of the others by one, to at
        # least k + 1
        flat = lambda m: [x for row in m.data for x in row]
        for sigma, k in [(2, 4), (3, 4), (4, 4), (2, 5), (3, 5)]:
            z = z_closed_form(sigma, k, "lambda")
            # zeta enters the transformed wedge with degree <= 2, so equality
            # at three distinct values proves the identity in zeta
            for zeta in (Fraction(3, 2), Fraction(-1), Fraction(7)):
                t = extra_stabilizer(sigma, k, zeta)
                assert apply_group_to_wedge(t, z) == z, (sigma, k, zeta)
            stab = infinitesimal_stabilizer(z, "gl", "projective")
            dirs = [flat(d) for d in first_order_directions(limit_stabilizer_matrix(sigma, k))]
            dirs += [[Fraction(f(i)) if i == j else 0 for i in range(1, k + 1) for j in range(1, k + 1)]
                     for f in (lambda i: i, lambda i: i // sigma)]
            extra = [x - (i == j) for i, row in enumerate(extra_stabilizer(sigma, k).data)
                     for j, x in enumerate(row)]
            total = rank(dirs + [extra])
            assert rank([flat(b) for b in stab.basis] + dirs + [extra]) == stab.dimension, (sigma, k)
            assert total == rank(dirs) + 1 and total >= k + 1, (sigma, k)


def test_criterion_10_limit_stabilizer():
    with _Budget("10 limit stabilizer", 120.0):
        rng = random.Random(1010)
        for k in (2, 3, 4, 5):
            for sigma in range(2, k + 1):
                lsm = limit_stabilizer_matrix(sigma, k)  # polynomiality enforced
                z = z_closed_form(sigma, k, "lambda")
                for _ in range(50):
                    beta = [Fraction(rng.randint(1, 9), rng.randint(1, 9))]
                    beta += [
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(k - 1)
                    ]
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


def test_criterion_11_hilbert_mumford():
    with _Budget("11 Hilbert-Mumford", 5.0):
        assert hilbert_mumford_torus([(1,), (-1,)]) == "stable"
        assert hilbert_mumford_torus([(1,), (2,)]) == "unstable"
        assert hilbert_mumford_torus([(0,)]) == "semistable-not-stable"
        rng = random.Random(1111)
        for _ in range(200):
            d = rng.choice([1, 2, 3])
            m = rng.randint(1, 6)
            pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(m)]
            assert hilbert_mumford_torus(pts) == hilbert_mumford_bruteforce(pts), pts


def test_criterion_12_conjecture_probe():
    with _Budget("12 conjecture probe", 60.0):
        rep = probe_stabilizer_conjecture(2, 2, 1)
        # exploratory: completion and a reported comparison are the criteria;
        # a mismatch would be reported, not failed
        assert rep["predicted_dim"] == 9
        assert isinstance(rep["measured_dim"], int)
        print(
            f"conjecture probe (p=2,k=2,M=1): measured {rep['measured_dim']}, "
            f"predicted {rep['predicted_dim']}, match={rep['match']}"
        )
