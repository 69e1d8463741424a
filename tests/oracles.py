"""Independent reference implementations that the tests compare jetinv against.

Each oracle takes the direct, expensive route that the library avoids: the
stabilizer systems on the expanded wedge and the full tensor, Hilbert-Mumford
by subset enumeration, unique solutions and span equality read off kernels and
ranks, orbit limits by EpsWeight sums, the induced action on
Sym^{<=k} C^n as a dense matrix, the jet embedding and the powers of a
jet summed term by term over ordered decompositions, the product of sparse
maps on exponent tuples, the staircase minor candidates from every row
combination, the invariance trials compared as rational determinants, the
symbolic invariance proof of a curve generator (its minor at a symbolic jet
and at that jet composed with a symbolic unipotent reparametrization, each
expanded as one exact minor of the embedding), and the matrix-level
invariance certificate that covers every flag minor at once.  Last come the
helpers that only tests read: ``dense(pm)``, the embedded matrix written out
in full; ``proportional_to(w, v)``, the scalar relating two wedges;
``evaluate(poly, assignment)``, a polynomial at a rational point; and
``first_order_directions(lsm)``, the derivatives of a limit stabilizer
matrix at the identity.
They use public jetinv names only, so a change to a private helper of the
library cannot change an oracle with it.
"""

import bisect
import itertools
import math
import random
from fractions import Fraction

from jetinv.embedding import p_point, phi, phi_integral
from jetinv.exact import Matrix, MinorPlan, MinorTable, PolyRing, divided, kernel_basis, rank
from jetinv.invariants import TRIAL_BOUND, scale_jet
from jetinv.jets import (JetMap, compose, group_matrix, jet_var_name, random_jet, random_rational,
                         random_reparam)
from jetinv.orbits import EpsWeight, TwistedPoint, twist_exponent
from jetinv.symbasis import sym_basis

# -- stabilizer systems on expanded tensors -----------------------------------


def lie_action_on_wedge(a, b, w):
    """E_{a<-b} acting by the Leibniz rule over the wedge factors.

    On a monomial the derivation replaces each occurrence of letter b by a
    once.  Replacing the factor in a slot and re-sorting costs one
    transposition per position moved, so the sign is (-1)^(slot + insertion
    index).
    """
    basis = w.basis()
    out = {}
    for factors, c in w.terms.items():
        for slot, pos in enumerate(factors):
            m = list(basis.monomials[pos])
            mult = m.count(b)
            if not mult:
                continue
            m.remove(b)
            new_pos = basis.position[tuple(sorted(m + [a]))]
            rest = factors[:slot] + factors[slot + 1:]
            lo = bisect.bisect_left(rest, new_pos)
            if lo < len(rest) and rest[lo] == new_pos:
                continue
            sign = -1 if (slot + lo) % 2 else 1
            newf = rest[:lo] + (new_pos,) + rest[lo:]
            val = out.get(newf, Fraction(0)) + c * mult * sign
            if val:
                out[newf] = val
            else:
                out.pop(newf, None)
    return out


def stabilizer_full_tensor_e1(w, K, algebra="sl"):
    """Stabilizer dimension of w ox e_1^K from the full tensor expansion.

    Exponential in K; it cross-validates the twist reduction at small sizes.
    """
    unknowns = [(a, b) for a in range(1, w.n + 1) for b in range(1, w.n + 1)]  # X, row-major
    base_slots = (1,) * K
    columns = []
    for a, b in unknowns:
        col = {(key, base_slots): c for key, c in lie_action_on_wedge(a, b, w).items()}
        if b == 1:
            for slot in range(K):
                slots = tuple(a if i == slot else 1 for i in range(K))
                for key, c in w.terms.items():
                    col[(key, slots)] = col.get((key, slots), Fraction(0)) + c
        columns.append(col)
    keys = sorted({key for col in columns for key in col})
    rows = [[col.get(key, Fraction(0)) for col in columns] for key in keys]
    if algebra == "sl":
        rows.append([Fraction(a == b) for a, b in unknowns])
    return len(kernel_basis(rows, len(unknowns)))


def distinguished_twisted_point(p, k, M):
    """p_point(p, k) twisted by the wedge line e_1 ^ ... ^ e_p to the power
    twist_exponent(p, k, M)."""
    return TwistedPoint(wedge=p_point(p, k), a=1, b=twist_exponent(p, k, M), twist_dim=p)


# -- Hilbert-Mumford by enumeration --------------------------------------------


def hilbert_mumford_bruteforce(weights):
    """Caratheodory subset enumeration for hull membership and
    separating-ray enumeration for interiority."""
    if not weights:
        raise ValueError("empty weight list")
    d = len(weights[0])
    pts = [tuple(Fraction(x) for x in w) for w in weights]
    if not zero_in_hull_caratheodory(pts, d):
        return "unstable"
    if rank([list(p) for p in pts]) == d and not separating_ray_exists(pts, d):
        return "stable"
    return "semistable-not-stable"


def zero_in_hull_caratheodory(pts, d):
    """0 is in the hull iff it is a convex combination of at most d + 1
    affinely independent points, whose weights are then unique."""
    for size in range(1, d + 2):
        for subset in itertools.combinations(range(len(pts)), size):
            rows = [[pts[i][j] for i in subset] for j in range(d)]
            rows.append([Fraction(1)] * size)
            sol = solve_unique(rows, [Fraction(0)] * d + [Fraction(1)])
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def separating_ray_exists(pts, d):
    """Is there a nonzero functional weakly nonnegative on all points?

    Candidates: kernel directions of the point matrix (the lineality of the
    polar cone) and, for a pointed polar cone, extreme rays supported on d-1
    independent points (perpendiculars and cross products).
    """
    candidates = [tuple(v) for v in kernel_basis([list(p) for p in pts], d)]
    if d == 1:
        candidates.extend([(Fraction(1),), (Fraction(-1),)])
    elif d == 2:
        for p in pts:
            candidates.append((-p[1], p[0]))
            candidates.append((p[1], -p[0]))
    elif d == 3:
        for p, q in itertools.combinations(pts, 2):
            cx = (
                p[1] * q[2] - p[2] * q[1],
                p[2] * q[0] - p[0] * q[2],
                p[0] * q[1] - p[1] * q[0],
            )
            candidates.append(cx)
            candidates.append(tuple(-x for x in cx))
    else:
        raise NotImplementedError("oracle implemented for d <= 3")
    for l in candidates:
        if any(l) and all(sum(a * b for a, b in zip(l, p)) >= 0 for p in pts):
            return True
    return False


# -- linear algebra by kernels and ranks -----------------------------------------


def solve_unique(rows, rhs):
    """Solve M x = b when a solution exists and is unique; None otherwise.

    The solutions are the kernel vectors (x, 1) of [M | -b].  There is exactly
    one iff that kernel is one-dimensional and its vector is nonzero in the
    last entry: a second kernel vector, or one with last entry 0, is a
    nonzero kernel vector of M.
    """
    if not rows:
        raise ValueError("solve_unique needs at least one equation")
    if len(rhs) != len(rows):
        raise ValueError("solve_unique needs one right-hand side per equation")
    ncols = len(rows[0])
    kern = kernel_basis([[*row, -b] for row, b in zip(rows, rhs)], ncols + 1)
    if len(kern) != 1 or not kern[0][-1]:
        return None
    return [x / kern[0][-1] for x in kern[0][:-1]]


def inverse(m):
    """Inverse of a square rational Matrix, column j solving M x = e_j by
    solve_unique; ZeroDivisionError if M is singular."""
    n = m.rows
    cols = [solve_unique(m.data, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    if None in cols:
        raise ZeroDivisionError("singular matrix")
    return Matrix(cols).transpose()


def same_span(a, b):
    """Exact span equality by ranks of the stacked matrices."""
    return rank(a) == rank(b) == rank(a + b)


def sym_matrix_of(g, n, k):
    """Dense matrix of the induced action on Sym^{<=k} C^n (columns = images).

    g sends e_b to sum_a g[a][b] e_a, so the monomial e_{b_1} ... e_{b_d}
    goes to the product of those linear forms, expanded here over every
    letter tuple (a_1, ..., a_d): the term prod g[a_i][b_i] lands on the
    sorted letters."""
    basis = sym_basis(n, k)
    size = len(basis)
    data = [[Fraction(0)] * size for _ in range(size)]
    for col, mono in enumerate(basis.monomials):
        for letters in itertools.product(range(1, n + 1), repeat=len(mono)):
            term = Fraction(1)
            for a, b in zip(letters, mono):
                term *= g.data[a - 1][b - 1]
            data[basis.position[tuple(sorted(letters))]][col] += term
    return Matrix(data)


# -- orbit limits by EpsWeight sums ----------------------------------------------


def weight_of(lam, m):
    """The weight of a basis monomial under a diagonal subgroup: the sum of
    its letters' weights."""
    total = EpsWeight.of(0)
    for i in m:
        total = total + lam.weights[i - 1]
    return total


def limit_by_eps_weights(w, lam):
    """The terms of a wedge of minimal total EpsWeight: its limit under lam."""
    basis = w.basis()
    totals = {}
    for factors in w.terms:
        total = EpsWeight.of(0)
        for pos in factors:
            total = total + weight_of(lam, basis.monomials[pos])
        totals[factors] = total
    best = min(totals.values())
    return {f: c for f, c in w.terms.items() if totals[f] == best}


# -- sparse products on exponent tuples -----------------------------------------


def sparse_product(a, b, bound=None):
    """Product of two sparse maps from exponent tuples to coefficients:
    exponents add and coefficients multiply; with a bound, products of total
    degree above it are dropped.  Zero coefficients are pruned by truthiness."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if bound is not None and sum(e1) + sum(e2) > bound:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def vector_to_sym(vec, n):
    """A vector in C^n as a degree-1 element of the symmetric algebra."""
    return {tuple(int(i == j) for i in range(n)): c for j, c in enumerate(vec) if c}


# -- the embedding and jet powers by ordered decompositions ---------------------


def ordered_decompositions(s):
    """Every ordered tuple of nonzero multi-indices summing to s (one empty
    tuple for s = 0)."""
    if not any(s):
        yield ()
        return
    for first in itertools.product(*(range(x + 1) for x in s)):
        if any(first):
            for rest in ordered_decompositions(tuple(a - b for a, b in zip(s, first))):
                yield (first,) + rest


def phi_by_decompositions(gamma):
    """phi(gamma) as dense rows over the Sym basis of C^n, columns the domain
    basis, straight from the definition: entry (m, s) sums, over the ordered
    decompositions s = s_1 + ... + s_j and the letter tuples (a_1, ..., a_j)
    whose sorted letters are m, the products gamma_{s_1}[a_1] ... gamma_{s_j}[a_j]."""
    rows, cols = sym_basis(gamma.q, gamma.k), sym_basis(gamma.p, gamma.k)
    data = [[Fraction(0)] * len(cols) for _ in range(len(rows))]
    for j, s in enumerate(cols.exponents):
        for pieces in ordered_decompositions(s):
            for letters in itertools.product(range(1, gamma.q + 1), repeat=len(pieces)):
                term = Fraction(1)
                for piece, a in zip(pieces, letters):
                    term = term * gamma.coefficient(piece)[a - 1]
                i = rows.position[tuple(sorted(letters))]
                data[i][j] = data[i][j] + term
    return data


def power_coefficient(gamma, m, s):
    """[u^m] gamma(u)^s: over the ordered decompositions m = t_1 + ... + t_r
    into r = |s| parts, the products of gamma_{t_i} at the i-th letter of s."""
    letters = [a for a, e in enumerate(s) for _ in range(e)]
    total = Fraction(0)
    for pieces in ordered_decompositions(m):
        if len(pieces) == len(letters):
            term = Fraction(1)
            for piece, a in zip(pieces, letters):
                term = term * gamma.coefficient(piece)[a]
            total = total + term
    return total


# -- staircase candidates by brute force ----------------------------------------


def staircase_candidates(n, k, p):
    """Every structurally nonzero minor candidate as (row positions, column
    count, weighted degree), family by family, with nothing skipped: each
    combination of row positions whose sorted degrees lie under the sorted
    column degrees.  The families are the first s columns, s = 1..k, for
    p = 1, and all columns for p > 1 if they do not outnumber the rows."""
    rows, cols = sym_basis(n, k), sym_basis(p, k).exponents
    if p == 1:
        families = [(cols[:s], s * (s + 1) // 2) for s in range(1, k + 1)]
    else:
        families = [(cols, tuple(map(sum, zip(*cols))))] if len(cols) <= len(rows) else []
    out = []
    for family, wd in families:
        col_degrees = sorted(map(sum, family))
        for chosen in itertools.combinations(range(len(rows)), len(family)):
            if all(d <= c for d, c in zip(sorted(len(rows.monomials[r]) for r in chosen), col_degrees)):
                out.append((chosen, len(family), wd))
    return out


# -- invariance trials in rationals --------------------------------------------


def verify_suite_in_rationals(gens, trials, seed):
    """verify_generator_suite's report from the same random draws, with each
    minor the rational determinant of a submatrix of phi, compared as a
    value: unchanged under precomposition, times lambda^w under the torus."""
    n, k, p = gens[0].n, gens[0].k, gens[0].p
    rng = random.Random(seed)
    report = {"ok": True, "trials": trials, "witness": None, "generators": len(gens)}
    for t in range(trials):
        gamma = random_jet(rng, p, n, k, bound=TRIAL_BOUND)
        psi = random_reparam(rng, p, k, bound=TRIAL_BOUND, unipotent=(p == 1), special=(p > 1))
        lam = []
        while len(lam) < p:
            x = random_rational(rng, TRIAL_BOUND)
            if x:
                lam.append(x)
        embedded = [phi(jet) for jet in (gamma, compose(gamma, psi), scale_jet(gamma, tuple(lam)))]
        for g in gens:
            rows, cols = g.positions()
            v0, v1, vl = (Matrix([[pm.columns[c].get(r, Fraction(0)) for c in cols] for r in rows]).det()
                          for pm in embedded)
            wd = g.weighted_degree
            weights = (wd,) if isinstance(wd, int) else wd
            if v1 != v0:
                kind = "invariance"
            elif vl != v0 * math.prod(l**w for l, w in zip(lam, weights)):
                kind = "homogeneity"
            else:
                continue
            witness = {"trial": t, "generator": {"rows": g.rows, "cols": g.cols}, "kind": kind}
            return {**report, "ok": False, "witness": witness}
    return report


# -- invariance by symbolic proof and by matrix certificate ---------------------


def exact_minor(gamma, rows, cols):
    """The minor of phi(gamma) on row and column positions: that of
    ``phi_integral(gamma)``, i.e. of phi(D * gamma), over D^(rows' degree)."""
    columns, d = phi_integral(gamma)
    table = MinorTable(columns)
    minor, = table.minors(MinorPlan([(rows, cols)], table.supports))
    monomials = sym_basis(gamma.q, gamma.k).monomials
    return divided(minor, d ** sum(len(monomials[r]) for r in rows))


def verify_invariance_symbolic(q):
    """Symbolic proof of invariance: the minor of the embedded matrix at
    gamma composed with a fully symbolic unipotent reparametrization equals
    the minor at gamma, as polynomials.  Practical for k <= 3."""
    if q.p != 1:
        raise NotImplementedError("symbolic proof implemented for curves only")
    names = {s: [jet_var_name("u", s, j) for j in range(1, q.n + 1)]
             for s in sym_basis(1, q.k).exponents}
    ring = PolyRing([x for row in names.values() for x in row]
                    + [f"a{i}" for i in range(2, q.k + 1)])
    gamma = JetMap(1, q.n, q.k, {s: tuple(map(ring.var, row)) for s, row in names.items()})
    psi = JetMap(1, 1, q.k, {(i,): (ring.var(f"a{i}") if i > 1 else ring.one(),)
                             for i in range(1, q.k + 1)})
    where = q.positions()
    return exact_minor(gamma, *where) == exact_minor(compose(gamma, psi), *where)


def bulk_invariance_check(n, k, trials=100, seed=0):
    """Matrix-level invariance certificate covering every flag minor at once.

    For each trial it verifies, exactly, that the first s columns of the
    embedded matrix after a unipotent precomposition equal the original
    columns times the degree-(<= s) block of the group matrix, and that the
    block determinant is 1.  By the Cauchy-Binet multiplicativity of minors
    this implies every s x s minor of the first s columns is unchanged, so a
    pass certifies the whole generator set for these trials.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        gamma = random_jet(rng, 1, n, k, bound=TRIAL_BOUND)
        psi = random_reparam(rng, 1, k, bound=TRIAL_BOUND, unipotent=True)
        m = group_matrix(psi)
        a = dense(phi(gamma))
        b = dense(phi(compose(gamma, psi)))
        if not (b == a @ m):
            failures += 1
            continue
        for s in range(1, k + 1):
            block = Matrix([[m.data[i][j] for j in range(s)] for i in range(s)])
            if block.det() != 1:
                failures += 1
                break
    return {"ok": failures == 0, "trials": trials, "failures": failures}


# -- helpers that only tests read -----------------------------------------------


def dense(pm):
    """A PhiMatrix as a Matrix over the whole Sym basis of C^n, zeros filled in."""
    return Matrix([[col.get(r, Fraction(0)) for col in pm.columns] for r in range(len(pm.basis))])


def proportional_to(w, v):
    """The scalar c with w = c * v, if one exists (None otherwise)."""
    if w.is_zero():
        return Fraction(0)
    if v.is_zero() or set(w.terms) != set(v.terms):
        return None
    t0 = next(iter(w.terms))
    c = w.terms[t0] / v.terms[t0]
    for t, x in w.terms.items():
        if x != c * v.terms[t]:
            return None
    return c


def evaluate(poly, assignment):
    """Exact value of a SparsePolynomial at a full rational assignment of its
    ring's variables, by name; a missing variable raises KeyError."""
    vals = []
    for name in poly.ring.names:
        if name not in assignment:
            raise KeyError(f"missing variable {name!r}")
        vals.append(Fraction(assignment[name]))
    total = Fraction(0)
    for exp, c in poly.terms.items():
        v = c
        for x, e in zip(vals, exp):
            if e:
                v *= x**e
        total += v
    return total


def first_order_directions(lsm):
    """For each i, d/ds at s = 0 of a LimitStabilizerMatrix on the curve
    beta = (1, 0, .., 0) + s e_i: each entry's partial derivative in b_i at
    that point."""
    point = [Fraction(1)] + [Fraction(0)] * (lsm.k - 1)

    def partial_at(poly, var):
        total = Fraction(0)
        for exp, c in poly.terms.items():
            if exp[var] == 0:
                continue
            v = c * exp[var]
            for j, e in enumerate(exp):
                ee = e - 1 if j == var else e
                if ee:
                    v *= point[j] ** ee
            total += v
        return total

    return [Matrix([[partial_at(e, i) for e in row] for row in lsm.entries]) for i in range(lsm.k)]
