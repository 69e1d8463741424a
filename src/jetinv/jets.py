"""Jets of map germs, truncated composition, and the reparametrization groups
as explicit matrices.

A k-jet of a germ (C^p, 0) -> (C^q, 0) is stored through its monomial
expansion f(u) = sum_s coeffs[s] * u^s over nonzero exponent vectors s with
1 <= |s| <= k; that is, coefficient s holds the normalized Taylor data
(the degree-|s| derivative divided by the multinomial factorials).  The
matrix of the right composition action acts on these coefficient rows, so
the closed-form entry formulas below carry the multiplicities of ordered
compositions.

The powers of a jet are the one table here: `powers` holds [u^t] f(u)^s,
truncated at f.k.  It multiplies on packed exponents, an `exact.Packing` of
the p source letters with fields of f.k.bit_length() bits, through the one
packed product `exact.add_product`, whose degree bound is one int compare;
each power asked for comes back keyed by exponent tuples.  `compose`,
`group_matrix`, `invert`, the test-curve system of `invariants` and the
induced action of GL(n) on wedges (`embedding.apply_group_to_wedge`, on the
linear jet u -> g^T u) read it, and every closed-form entry is tested
against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import Matrix, Packing, PolyRing, SparsePolynomial, add_into, add_product, integral_entries
from .symbasis import Exponent, Monomial, entries_to_exponent, sym_basis, vector_compositions

CoefVec = tuple


@dataclass
class JetMap:
    """Truncation-order-k germ C^p -> C^q with no constant term.

    coeffs maps each nonzero exponent vector s (1 <= |s| <= k) to a length-q
    coefficient vector; absent keys are zero.  Entries are Fractions, or
    SparsePolynomials for symbolic jets (ints and int polynomials in the
    scaled copy that `integral` returns).
    """

    p: int
    q: int
    k: int
    coeffs: dict[Exponent, CoefVec]

    def __post_init__(self):
        clean = {}
        for s, vec in self.coeffs.items():
            s = tuple(s)
            if len(s) != self.p or not (1 <= sum(s) <= self.k):
                raise ValueError(f"bad source multi-index {s!r}")
            if len(vec) != self.q:
                raise ValueError("coefficient vector length mismatch")
            if any(vec):
                clean[s] = tuple(vec)
        self.coeffs = clean

    def coefficient(self, s: Exponent) -> CoefVec:
        return self.coeffs.get(tuple(s), (Fraction(0),) * self.q)

    def integral(self) -> tuple["JetMap", int]:
        """(D * self, D): D is the lcm of the denominators of all coefficients,
        polynomial coefficients included, so the scaled jet has int or
        int-polynomial entries; a symbolic jet has D = 1."""
        ints, d = integral_entries([c for vec in self.coeffs.values() for c in vec])
        q = self.q
        coeffs = {s: tuple(ints[i * q:(i + 1) * q]) for i, s in enumerate(self.coeffs)}
        return JetMap(self.p, q, self.k, coeffs), d

    def linear_matrix(self) -> Matrix:
        """The q x p matrix L of the degree-1 block (column i = image of e_i)."""
        cols = []
        for i in range(self.p):
            e = tuple(1 if j == i else 0 for j in range(self.p))
            cols.append(self.coefficient(e))
        return Matrix([[cols[i][r] for i in range(self.p)] for r in range(self.q)])

    def is_reparam(self) -> bool:
        if self.p != self.q:
            return False
        return bool(self.linear_matrix().det())

    def to_json(self) -> dict:
        coeffs = {}
        for s in sorted(self.coeffs):
            vec = self.coeffs[s]
            coeffs["[" + ",".join(map(str, s)) + "]"] = [str(c) for c in vec]
        return {"p": self.p, "q": self.q, "k": self.k, "coeffs": coeffs}


def identity_jet(p: int, k: int) -> JetMap:
    coeffs = {}
    for i in range(p):
        e = tuple(1 if j == i else 0 for j in range(p))
        coeffs[e] = tuple(Fraction(1 if j == i else 0) for j in range(p))
    return JetMap(p, p, k, coeffs)


def flat_jet(p: int, k: int) -> JetMap:
    """The jet whose coefficient array is the identity of Hom(C^sym, C^n).

    Coefficient s is the standard basis vector at the canonical position of
    s; its embedding image is the distinguished point of the orbit analysis.
    """
    basis = sym_basis(p, k)
    n = len(basis)
    coeffs = {}
    for pos, exp in enumerate(basis.exponents):
        coeffs[exp] = tuple(Fraction(1 if j == pos else 0) for j in range(n))
    return JetMap(p, n, k, coeffs)


def powers(f: JetMap, exps) -> dict[Exponent, dict]:
    """{s: [u^t] f(u)^s} for each exponent vector s over f's q coordinates,
    as sparse maps t -> coefficient truncated at degree f.k.

    One memoized recursion: f^s = f^(s - e_j) * f_j at the first letter j of
    s, so each power, asked for or passed on the way, costs one packed
    product.  The t are packed with fields of f.k.bit_length() bits, wide
    enough for any exponent of degree at most f.k, and unpacked once per
    power asked for.
    """
    packing = Packing(f.p, f.k)
    below = packing.below(f.k)
    coords = [{packing.pack(t): vec[j] for t, vec in f.coeffs.items() if vec[j]} for j in range(f.q)]
    memo: dict[Exponent, dict] = {}
    return {s: packing.unpack(_power(s, memo, coords, below)) for s in exps}


def _power(s: Exponent, memo: dict[Exponent, dict], coords: list[dict], below: int) -> dict:
    """The packed f^s of `powers`, through memo.  Module level: a nested
    function that calls itself is a reference cycle, and this one would keep
    the whole memo alive until the cyclic collector ran."""
    got = memo.get(s)
    if got is None:
        j = next(i for i, e in enumerate(s) if e)
        if sum(s) == 1:
            got = coords[j]
        else:
            rest = s[:j] + (s[j] - 1,) + s[j + 1:]
            got = add_product({}, _power(rest, memo, coords, below), coords[j], below)
        memo[s] = got
    return got


def compose(g: JetMap, f: JetMap) -> JetMap:
    """Truncated formal substitution g(f(u)): (q -> r) after (p -> q), the sum
    over s of g_s times the power f(u)^s, exact in the coefficient ring."""
    if g.p != f.q:
        raise ValueError("dimension mismatch: g.p != f.q")
    if g.k != f.k:
        raise ValueError("order mismatch")
    table = powers(f, g.coeffs)
    sums: list[dict] = [{} for _ in range(g.q)]
    for s, gvec in g.coeffs.items():
        for acc, c in zip(sums, gvec):
            if c:
                add_into(acc, table[s], c)
    zero = Fraction(0)
    support = dict.fromkeys(t for acc in sums for t in acc)
    return JetMap(f.p, g.q, f.k, {t: tuple(acc.get(t, zero) for acc in sums) for t in support})


def group_matrix(psi: JetMap) -> Matrix:
    """Right-action matrix of a reparametrization on jet coefficient rows.

    Row s holds the expansion coefficients of psi(u)^s, so that for every jet
    gamma the coefficient row-array of compose(gamma, psi) equals that of
    gamma times this matrix.  Block upper triangular in the (degree, lex)
    basis order; diagonal block l is the induced action on Sym^l C^p.
    """
    if psi.p != psi.q:
        raise ValueError("reparametrization must have equal source and target dims")
    if not psi.is_reparam():
        raise ValueError("non-invertible linear part")
    exps = sym_basis(psi.p, psi.k).exponents
    zero = Fraction(0)
    return Matrix([[row.get(t, zero) for t in exps] for row in powers(psi, exps).values()])


def group_param_name(l: int, s: Exponent) -> str:
    if len(s) == 1:
        return f"a{s[0]}"
    return f"a{l}[" + ",".join(map(str, s)) + "]"


def gkp_param_ring(p: int, k: int) -> PolyRing:
    basis = sym_basis(p, k)
    names = []
    for l in range(1, p + 1):
        for s in basis.exponents:
            names.append(group_param_name(l, s))
    return PolyRing(names)


def gkp_entry(
    tau: Monomial, nu: Monomial, p: int, k: int, ring: PolyRing
) -> SparsePolynomial:
    """Closed form for the block entry indexed by row tau and column nu.

    Sum over ordered tuples (nu_1, ..., nu_l) of nonzero multi-indices with
    nu_1 + ... + nu_l = nu of a^{tau[1]}_{nu_1} ... a^{tau[l]}_{nu_l}.  The
    ordered range of the tuple is the reading pinned by the composition
    oracle; repeated entries of tau therefore produce multiplicities.
    """
    l = len(tau)
    m = len(nu)
    if l > m:
        return ring.zero()
    nu_exp = entries_to_exponent(nu, p)
    out = ring.zero()
    for pieces in vector_compositions(nu_exp):
        if len(pieces) != l:
            continue
        term = ring.one()
        for slot, piece in enumerate(pieces):
            term = term * ring.var(group_param_name(tau[slot], piece))
        out = out + term
    return out


def symbolic_reparam(p: int, k: int) -> tuple[JetMap, PolyRing]:
    """Fully symbolic reparametrization jet."""
    ring = gkp_param_ring(p, k)
    coeffs: dict[Exponent, CoefVec] = {
        s: tuple(ring.var(group_param_name(l, s)) for l in range(1, p + 1))
        for s in sym_basis(p, k).exponents
    }
    return JetMap(p, p, k, coeffs), ring


def symbolic_jet(p: int, n: int, k: int, prefix: str = "u") -> tuple[JetMap, PolyRing]:
    """Fully symbolic jet C^p -> C^n; variable u{i}_{j} or u[s]_{j}."""
    basis = sym_basis(p, k)
    names = []
    for s in basis.exponents:
        for j in range(1, n + 1):
            names.append(jet_var_name(prefix, s, j))
    ring = PolyRing(names)
    coeffs = {}
    for s in basis.exponents:
        coeffs[s] = tuple(ring.var(jet_var_name(prefix, s, j)) for j in range(1, n + 1))
    return JetMap(p, n, k, coeffs), ring


def jet_var_name(prefix: str, s: Exponent, j: int) -> str:
    if len(s) == 1:
        return f"{prefix}{s[0]}_{j}"
    return f"{prefix}[" + ",".join(map(str, s)) + f"]_{j}"


def invert(psi: JetMap) -> JetMap:
    """Two-sided compositional inverse, read from the linear rows of the
    inverse group matrix.

    The group matrix is multiplicative, M(psi o chi) = M(psi) M(chi), so the
    inverse jet has matrix M(psi)^-1, and its row e_i holds coordinate i of
    that jet.  Only those p rows are solved for.  Numeric coefficients
    only: the inverse of a symbolic jet has rational-function coefficients,
    and Matrix.inverse_rows raises TypeError.
    """
    p = psi.p
    rows = group_matrix(psi).inverse_rows(p)
    return JetMap(p, p, psi.k, dict(zip(sym_basis(p, psi.k).exponents, zip(*rows))))


# -- random sampling ------------------------------------------------------


def random_rational(rng: random.Random, bound: int = 20) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_jet(
    rng: random.Random,
    p: int,
    q: int,
    k: int,
    bound: int = 20,
    regular: bool = False,
) -> JetMap:
    """Random rational jet; with `regular`, the linear block has full rank p,
    which a q x p block can have only when q >= p."""
    if regular and q < p:
        raise ValueError(f"a regular jet needs n >= p, got n={q} < p={p}")
    while True:
        coeffs = {}
        for s in sym_basis(p, k).exponents:
            coeffs[s] = tuple(random_rational(rng, bound) for _ in range(q))
        jet = JetMap(p, q, k, coeffs)
        if not regular:
            return jet
        if jet.linear_matrix().rank() == p:
            return jet


def random_sl(rng: random.Random, p: int, bound: int = 5) -> Matrix:
    """Random determinant-1 rational matrix, as a product of shears."""
    m = Matrix.identity(p)
    for _ in range(2 * p):
        i = rng.randrange(p)
        j = rng.randrange(p)
        if i == j:
            continue
        shear = Matrix.identity(p)
        shear.data[i][j] = random_rational(rng, bound)
        m = m @ shear
    return m


def random_reparam(
    rng: random.Random,
    p: int,
    k: int,
    bound: int = 20,
    unipotent: bool = False,
    special: bool = False,
) -> JetMap:
    """Random reparametrization jet.

    unipotent: identity linear part; special: determinant-1 linear part (for
    p = 1 both mean linear coefficient 1).
    """
    coeffs: dict[Exponent, CoefVec] = {}
    basis = sym_basis(p, k)
    for s in basis.exponents:
        coeffs[s] = tuple(random_rational(rng, bound) for _ in range(p))
    if unipotent:
        L = Matrix.identity(p)
    elif special:
        L = random_sl(rng, p, bound=min(bound, 5)) if p > 1 else Matrix.identity(1)
    else:
        while True:
            L = Matrix([[random_rational(rng, bound) for _ in range(p)] for _ in range(p)])
            if L.det() != 0:
                break
    for i in range(p):
        e = tuple(1 if j == i else 0 for j in range(p))
        coeffs[e] = tuple(L.data[r][i] for r in range(p))
    return JetMap(p, p, k, coeffs)
