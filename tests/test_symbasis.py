import random

from jetinv.symbasis import (
    defect,
    defect_of_partition,
    entries_to_exponent,
    enumerate_sym_basis,
    orderings_count,
    partitions_of,
    sym_basis,
    sym_dim,
    vector_compositions,
)


def test_basis_sizes():
    assert len(enumerate_sym_basis(2, 3)) == 9
    assert len(enumerate_sym_basis(1, 5)) == 5
    assert len(enumerate_sym_basis(4, 4)) == 69
    assert sym_dim(4, 4) == 69
    assert sym_dim(2, 2) == 5


def test_basis_order_and_lookup():
    b = sym_basis(2, 3)
    assert b.monomials[:5] == [(1,), (2,), (1, 1), (1, 2), (2, 2)]
    for pos, m in enumerate(b.monomials):
        assert b.position[m] == pos
    assert len(b.position) == len(b)


def test_n1_basis_is_powers():
    b = sym_basis(1, 4)
    assert b.monomials == [(1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)]


def test_exponent_roundtrip():
    m = (1, 1, 3)
    e = entries_to_exponent(m, 3)
    assert e == (2, 0, 1)
    b = sym_basis(3, 3)
    assert b.monomials[b.exponent_position[e]] == m
    for pos, m in enumerate(b.monomials):
        assert b.exponent_position[entries_to_exponent(m, 3)] == pos


def test_partition_counts():
    assert len(partitions_of(1)) == 1
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(6)) == 11


def test_perm():
    assert orderings_count((1, 1, 1, 3)) == 4
    assert orderings_count((5,)) == 1
    assert orderings_count((1, 2)) == 2
    assert orderings_count((1, 1, 2)) == 3


def test_perm_sums_to_compositions():
    for m in range(1, 8):
        total = sum(orderings_count(t) for t in partitions_of(m))
        assert total == len(vector_compositions((m,))) == 2 ** (m - 1)


def test_defect():
    assert defect(2, 4) == 2
    assert defect_of_partition(3, (1, 2)) == 0
    assert defect_of_partition(2, (2, 2)) == 2


def test_defect_monotone_and_superadditive():
    for sigma in range(2, 6):
        for i in range(1, 12):
            assert defect(sigma, i) <= defect(sigma, i + 1)
        for m in range(1, 10):
            for t in partitions_of(m):
                assert defect_of_partition(sigma, t) <= defect(sigma, m)


def test_vector_compositions():
    comps = vector_compositions((1, 1))
    # ordered: (1,1); (1,0)+(0,1); (0,1)+(1,0)
    assert ((1, 1),) in comps
    assert ((1, 0), (0, 1)) in comps and ((0, 1), (1, 0)) in comps
    assert len(comps) == 3
    pairs = [c for c in comps if len(c) == 2]
    assert len(pairs) == 2  # the two orderings behind the doubled mixed term


def test_vector_compositions_sum():
    rng = random.Random(2)
    for _ in range(10):
        s = (rng.randint(0, 2), rng.randint(0, 2))
        if sum(s) == 0:
            continue
        for parts in vector_compositions(s):
            total = tuple(map(sum, zip(*parts)))
            assert total == s
            assert all(any(p) for p in parts)
