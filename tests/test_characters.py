from itertools import islice
from math import comb, factorial

import pytest

from basechar import characters
from basechar.characters import (CharVector, char_vector_subsets,
                                 char_vector_uniform_partitions, chi_subsets,
                                 chi_uniform_partitions, inner_product,
                                 iter_inner_products, orbit_counts,
                                 sign_vector)
from basechar.errors import CapacityError, ConsistencyError, InputError
from basechar.partitions import CycleType, enumerate_cycle_types
from reference_impls import (count_fixed_subsets, count_fixed_uniform,
                             perm_shortest_first, subsets_inner_product,
                             uniform_partitions_frozen)


def test_chi_subsets_hand_values():
    double_transposition = CycleType.from_parts(4, (2, 2))
    assert chi_subsets(double_transposition, 2) == 2  # {1,2} and {3,4}
    assert chi_subsets(double_transposition, 1) == 0
    four_cycle = CycleType.from_parts(4, (4,))
    assert chi_subsets(four_cycle, 2) == 0
    ident = CycleType.from_parts(5, (1, 1, 1, 1, 1))
    assert chi_subsets(ident, 2) == 10


def test_chi_subsets_matches_enumeration():
    for n in range(2, 8):
        for ct in enumerate_cycle_types(n):
            perm = perm_shortest_first(ct.parts(), n)
            for k in range(1, n + 1):
                assert chi_subsets(ct, k) == count_fixed_subsets(perm, k)


def test_chi_subsets_k_range():
    ct = CycleType.from_parts(4, (4,))
    with pytest.raises(InputError):
        chi_subsets(ct, 0)
    with pytest.raises(InputError):
        chi_subsets(ct, 5)


def test_chi_uniform_matches_enumeration():
    # Every class of every shape with n <= 10, and of 3 blocks of 4.
    shapes = [(r, n // r) for n in range(1, 11) for r in range(1, n + 1)
              if n % r == 0]
    for r, s in shapes + [(3, 4)]:
        n = r * s
        parts_list = uniform_partitions_frozen(n, r, s)
        chi = char_vector_uniform_partitions(n, r, s)
        for ct, value in zip(enumerate_cycle_types(n), chi.values):
            perm = perm_shortest_first(ct.parts(), n)
            assert value == count_fixed_uniform(perm, parts_list)
            assert chi_uniform_partitions(ct, r, s) == value


def test_chi_uniform_fifteen_points():
    # 3 blocks of 5: a few classes, since each costs a sweep over all
    # 126,126 partitions.
    parts_list = uniform_partitions_frozen(15, 3, 5)
    expected = {(5, 5, 5): 1, (3,) * 5: 81, (2,) + (1,) * 13: 36036,
                (2,) * 7 + (1,): 336}
    for parts, value in expected.items():
        perm = perm_shortest_first(parts, 15)
        assert count_fixed_uniform(perm, parts_list) == value
        assert chi_uniform_partitions(
            CycleType.from_parts(15, parts), 3, 5) == value


def test_chi_uniform_transitive_at_ceiling():
    # The identity fixes every partition, and S_n is transitive on them.
    for r, s in ((6, 6), (18, 2), (2, 18)):
        n = r * s
        chi = char_vector_uniform_partitions(n, r, s)
        domain = factorial(n) // (factorial(s) ** r * factorial(r))
        assert chi.domain_size == domain
        assert chi.values[-1] == domain  # identity class comes last
        assert orbit_counts(chi, 1)[0] == 1


def test_chi_uniform_single_block():
    for ct in enumerate_cycle_types(5):
        assert chi_uniform_partitions(ct, 1, 5) == 1


def test_chi_uniform_errors():
    with pytest.raises(InputError):
        chi_uniform_partitions(CycleType.from_parts(6, (6,)), 4, 2)
    with pytest.raises(InputError):
        chi_uniform_partitions(CycleType.from_parts(4, (4,)), 0, 4)
    with pytest.raises(CapacityError):
        chi_uniform_partitions(CycleType.from_parts(38, (38,)), 19, 2)


def test_char_vector_identity_columns():
    for n, k in ((5, 2), (7, 3), (9, 4)):
        chi = char_vector_subsets(n, k)
        assert chi.domain_size == comb(n, k)
        assert chi.values[-1] == comb(n, k)  # identity class comes last
        assert chi.action == f"subsets:{k}"
        assert len(chi.values) == len(list(enumerate_cycle_types(n)))
    chi = char_vector_uniform_partitions(8, 4, 2)
    assert chi.domain_size == factorial(8) // (factorial(2) ** 4 * factorial(4))
    assert chi.values[-1] == chi.domain_size


def test_sign_vector_values():
    sgn = sign_vector(4)
    parts = [tuple(ct.parts()) for ct in enumerate_cycle_types(4)]
    expect = {(4,): -1, (3, 1): 1, (2, 2): 1, (2, 1, 1): -1, (1, 1, 1, 1): 1}
    assert list(sgn.values) == [expect[p] for p in parts]


def test_inner_product_hand_values():
    # S_3 on 1-subsets (natural action): 0, 1, 4 for l = 1, 2, 3.
    chi = char_vector_subsets(3, 1)
    sgn = sign_vector(3)
    assert [inner_product(sgn, chi, l) for l in (1, 2, 3)] == [0, 1, 4]
    assert inner_product(sgn, chi, 0) == 0


def test_inner_product_matches_fraction_reference():
    for n, k in ((4, 2), (5, 2), (6, 3), (7, 2)):
        chi = char_vector_subsets(n, k)
        sgn = sign_vector(n)
        for l in range(5):
            assert inner_product(sgn, chi, l) == subsets_inner_product(n, k, l)


def test_all_ones_vector_counts_orbits():
    chi = char_vector_subsets(5, 2)
    ones = [1] * len(chi.values)
    for l in range(4):
        assert inner_product(ones, chi, l) == orbit_counts(chi, l)[0]


def test_orbit_counts_hand_values():
    chi = char_vector_subsets(3, 1)
    assert orbit_counts(chi, 0) == (1, 1)
    assert orbit_counts(chi, 1) == (1, 1)
    assert orbit_counts(chi, 2) == (2, 3)


def test_split_orbit_identity():
    # <sgn, chi^l> equals the kernel orbit surplus o_K(l) - o(l).
    for n, k in ((5, 2), (6, 2), (7, 3)):
        chi = char_vector_subsets(n, k)
        sgn = sign_vector(n)
        for l in range(5):
            o, o_k = orbit_counts(chi, l)
            assert inner_product(sgn, chi, l) == o_k - o


def test_split_counts_monotone_in_l():
    # Appending a copy of the last entry keeps the stabilizer, so split
    # orbit counts never decrease with l.
    for n, k in ((5, 2), (6, 3)):
        chi = char_vector_subsets(n, k)
        sgn = sign_vector(n)
        values = [inner_product(sgn, chi, l) for l in range(7)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_iter_matches_direct():
    chi = char_vector_uniform_partitions(6, 3, 2)
    sgn = sign_vector(6)
    seq = list(islice(iter_inner_products(sgn, chi), 6))
    assert seq == [(l, inner_product(sgn, chi, l)) for l in range(1, 7)]


def test_tampered_character_is_caught():
    chi = char_vector_subsets(5, 1)
    index = [tuple(ct.parts())
             for ct in enumerate_cycle_types(5)].index((2, 1, 1, 1))
    values = list(chi.values)
    values[index] += 1
    bad = CharVector(5, chi.action, chi.domain_size, tuple(values))
    with pytest.raises(ConsistencyError):
        inner_product(sign_vector(5), bad, 1)


def test_non_integral_partition_character_is_caught(monkeypatch):
    expand = characters._uniform_partition_coefficients

    def tampered(r, s):
        coefficients = dict(expand(r, s))
        coefficients[(6,)] += 1  # 15 * 1 is not a multiple of 6!/6 = 120
        return coefficients

    monkeypatch.setattr(characters, "_uniform_partition_coefficients",
                        tampered)
    with pytest.raises(ConsistencyError):
        char_vector_uniform_partitions(6, 3, 2)


def test_inner_product_input_errors():
    chi = char_vector_subsets(5, 2)
    with pytest.raises(InputError):
        inner_product(sign_vector(4), chi, 1)
    with pytest.raises(InputError):
        inner_product([1, -1], chi, 1)
    with pytest.raises(InputError):
        inner_product(sign_vector(5), chi, -1)
