from itertools import islice, permutations
from math import comb, factorial

import pytest

from basechar import basecount, characters, cli, oracle, partitions
from basechar.characters import (char_vector_subsets,
                                 char_vector_uniform_partitions,
                                 iter_inner_products, orbit_counts)
from basechar.errors import CapacityError, ConsistencyError, InputError
from basechar.partitions import class_size, enumerate_cycle_types, sign_of
from reference_impls import (chi_subsets, count_fixed_subsets,
                             count_fixed_uniform, distinct_vector_sets,
                             long_cycle_counts,
                             merge_by_value, perm_shortest_first, subsets_class_values,
                             subsets_inner_product, uniform_class_values,
                             uniform_partitions_frozen)


def split_count(chi, l):
    """<sgn, chi^l> = o_K - o, as the orbits command reports it."""
    o, o_k = orbit_counts(chi, l)
    return o_k - o


def perm_longest_first(parts, n):
    """A permutation of cycle type `parts`, longest cycles laid out first."""
    images = list(range(n))
    pos = 0
    for length in sorted(parts, reverse=True):
        for i in range(length):
            images[pos + i] = pos + (i + 1) % length
        pos += length
    return images


def uniform_values(n, r, s):
    """{cycle type: value} of the uniform-partition character."""
    chi = char_vector_uniform_partitions(n, r, s)
    return dict(zip(chi.cycle_types, chi.values))


# chi_subsets is the per-class reference in reference_impls; these pin it
# to hand values and to plain enumeration.
def test_chi_subsets_hand_values():
    double_transposition = (2, 2)
    assert chi_subsets(double_transposition, 2) == 2  # {1,2} and {3,4}
    assert chi_subsets(double_transposition, 1) == 0
    four_cycle = (4,)
    assert chi_subsets(four_cycle, 2) == 0
    ident = (1, 1, 1, 1, 1)
    assert chi_subsets(ident, 2) == 10


def test_chi_subsets_matches_enumeration():
    for n in range(2, 8):
        for ct in enumerate_cycle_types(n):
            perm = perm_shortest_first(ct, n)
            for k in range(1, n + 1):
                assert chi_subsets(ct, k) == count_fixed_subsets(perm, k)


def test_chi_subsets_k_range():
    with pytest.raises(InputError):
        char_vector_subsets(4, 0)
    with pytest.raises(InputError):
        char_vector_subsets(4, 5)


def test_chi_uniform_matches_enumeration():
    # Every class of every shape with n <= 10, and of 3 blocks of 4.
    shapes = [(r, n // r) for n in range(1, 11) for r in range(1, n + 1)
              if n % r == 0]
    for r, s in shapes + [(3, 4)]:
        n = r * s
        parts_list = uniform_partitions_frozen(n, r, s)
        chi = char_vector_uniform_partitions(n, r, s)
        for ct, value in zip(enumerate_cycle_types(n), chi.values):
            perm = perm_shortest_first(ct, n)
            assert value == count_fixed_uniform(perm, parts_list)


def test_chi_uniform_fifteen_points():
    # 3 blocks of 5: a few classes, since each costs a sweep over all
    # 126,126 partitions.
    parts_list = uniform_partitions_frozen(15, 3, 5)
    values = uniform_values(15, 3, 5)
    expected = {(5, 5, 5): 1, (3,) * 5: 81, (2,) + (1,) * 13: 36036,
                (2,) * 7 + (1,): 336}
    for parts, value in expected.items():
        perm = perm_shortest_first(parts, 15)
        assert count_fixed_uniform(perm, parts_list) == value
        assert values[parts] == value


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
    values = uniform_values(5, 1, 5)
    assert list(values) == list(enumerate_cycle_types(5))
    assert set(values.values()) == {1}


def test_chi_uniform_errors():
    with pytest.raises(InputError):
        char_vector_uniform_partitions(6, 4, 2)
    with pytest.raises(InputError):
        char_vector_uniform_partitions(4, 0, 4)
    with pytest.raises(CapacityError):
        char_vector_uniform_partitions(38, 19, 2)


def test_char_vector_identity_columns():
    for n, k in ((5, 2), (7, 3), (9, 4)):
        chi = char_vector_subsets(n, k)
        assert chi.domain_size == comb(n, k)
        # the identity's value
        assert max(value for value, _, _ in chi.terms) == comb(n, k)
        assert chi.action == f"subsets:{k}"
        assert chi.cycle_types is None  # no classes listed
        assert sum(weight for _, weight, _ in chi.terms) == factorial(n)
    chi = char_vector_uniform_partitions(8, 4, 2)
    assert chi.domain_size == factorial(8) // (factorial(2) ** 4 * factorial(4))
    assert chi.values[-1] == chi.domain_size  # identity class comes last
    assert len(chi.values) == len(list(enumerate_cycle_types(8)))


def test_sign_vector_values():
    chi = char_vector_uniform_partitions(4, 2, 2)
    parts = list(chi.cycle_types)
    assert parts == list(enumerate_cycle_types(4))
    expect = {(4,): -1, (3, 1): 1, (2, 2): 1, (2, 1, 1): -1, (1, 1, 1, 1): 1}
    # Each value's even count sums the classes of that value and sign +1.
    even = {}
    for p, value in zip(parts, chi.values):
        if expect[p] > 0:
            even[value] = even.get(value, 0) + class_size(p)
    assert {value: e for value, _, e in chi.terms} == {
        value: even.get(value, 0) for value in chi.values}
    # S_4 on points: the even counts make up A_4.
    terms = char_vector_subsets(4, 1).terms
    assert sum(even for _, _, even in terms) == 12


def test_inner_product_hand_values():
    # S_3 on 1-subsets (natural action): 0, 1, 4 for l = 1, 2, 3.
    chi = char_vector_subsets(3, 1)
    assert [split_count(chi, l) for l in (1, 2, 3)] == [0, 1, 4]
    assert split_count(chi, 0) == 0


def test_inner_product_matches_fraction_reference():
    for n, k in ((4, 2), (5, 2), (6, 3), (7, 2)):
        chi = char_vector_subsets(n, k)
        for l in range(5):
            assert split_count(chi, l) == subsets_inner_product(n, k, l)


def test_all_ones_vector_counts_orbits():
    # The all-ones class sum o counts orbits: Burnside's average of
    # fix(g)^l over all 120 permutations of S_5 on 2-subsets.
    chi = char_vector_subsets(5, 2)
    fixed = [count_fixed_subsets(list(perm), 2)
             for perm in permutations(range(5))]
    for l in range(4):
        assert orbit_counts(chi, l)[0] * 120 == sum(f ** l for f in fixed)


def test_orbit_counts_hand_values():
    chi = char_vector_subsets(3, 1)
    assert orbit_counts(chi, 0) == (1, 1)
    assert orbit_counts(chi, 1) == (1, 1)
    assert orbit_counts(chi, 2) == (2, 3)


def test_split_orbit_identity():
    # <sgn, chi^l>, summed with signs over the terms, equals the kernel
    # orbit surplus o_K(l) - o(l); a term has even - odd = 2 even - all.
    for n, k in ((5, 2), (6, 2), (7, 3)):
        chi = char_vector_subsets(n, k)
        for l in range(5):
            signed = sum((2 * even - weight) * value ** l
                         for value, weight, even in chi.terms)
            o, o_k = orbit_counts(chi, l)
            assert signed == (o_k - o) * factorial(n)


def test_split_counts_monotone_in_l():
    # Appending a copy of the last entry keeps the stabilizer, so split
    # orbit counts never decrease with l.
    for n, k in ((5, 2), (6, 3)):
        chi = char_vector_subsets(n, k)
        values = [split_count(chi, l) for l in range(7)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_iter_matches_direct():
    chi = char_vector_uniform_partitions(6, 3, 2)
    seq = list(islice(iter_inner_products(chi), 6))
    assert seq == [(l, *orbit_counts(chi, l)) for l in range(1, 7)]


def test_tampered_character_is_caught():
    # S_5 on points: only the 10 transpositions fix 3 points, all odd.
    chi = char_vector_subsets(5, 1)
    terms = list(chi.terms)
    index = terms.index((3, 10, 0))
    terms[index] = (4, 10, 0)
    bad = chi._replace(terms=tuple(terms))
    with pytest.raises(ConsistencyError):
        orbit_counts(bad, 1)


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
        orbit_counts(chi, -1)
    with pytest.raises(InputError):
        char_vector_subsets(5, 6)


def test_one_class_pass_per_command(monkeypatch, capsys):
    # The subset commands sum merged terms and never enumerate the
    # classes of S_n; partitions-action enumerates them exactly once.
    original = partitions.enumerate_cycle_types
    calls = []

    def counted(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    for module in (partitions, characters, basecount, oracle, cli):
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, counted)
    commands = (
        (("basesize", "--n", "9", "--k", "2"), 0),
        (("orbits", "--n", "9", "--k", "2", "--l", "3"), 0),
        (("wreath", "--n", "9", "--k", "2", "--r", "3"), 0),
        (("partitions-action", "--n", "8", "--r", "4", "--s", "2"), 1),
    )
    for argv, expected in commands:
        calls.clear()
        assert cli.main(list(argv)) == 0
        capsys.readouterr()
        assert calls.count(int(argv[2])) == expected, (argv, calls)


def test_one_class_sum_per_base_size(monkeypatch, capsys):
    # The search starts at L1, which is the base size here, so the loop
    # takes one step; every trace entry below it comes from the bound. At
    # every valid size with n <= 30 the base size is L1 from both sides:
    # below it no count is summed, and at it the one class sum is nonzero.
    steps = []

    def counted(chi, l=1):
        for step in iter_inner_products(chi, l):
            steps.append(step[0])
            yield step

    monkeypatch.setattr(basecount, "iter_inner_products", counted)
    for n, k, base in (("40", "2", 26), ("36", "3", 18)):
        steps.clear()
        assert cli.main(["basesize", "--n", n, "--k", k]) == 0
        capsys.readouterr()
        assert steps == [base], (n, k, steps)
    sizes = [(n, k) for n in range(2, 31) for k in range(1, n)
             if k == 1 or n > 2 * k]
    assert len(sizes) == 211
    for n, k in sizes:
        steps.clear()
        base = basecount.least_l_distinct(n, k)
        assert basecount.base_size_subsets(n, k).base_size == base \
            <= n - 1 <= factorial(n).bit_length() - 1, (n, k)
        assert steps == [base], (n, k, steps)


def check_distribution(chi, classes):
    """chi's terms against per-class (size, sign, value) triples: the
    same merged distribution, and the same o and o_K for l = 0..6."""
    order = factorial(chi.n)
    assert len({value for value, _, _ in chi.terms}) == len(chi.terms)
    assert {value: (weight, even) for value, weight, even in chi.terms} == \
        merge_by_value(classes)
    assert sum(weight for _, weight, _ in chi.terms) == order
    if chi.n < 2:  # A_1 = S_1 has no index-2 kernel, so no o_K
        with pytest.raises(InputError, match="n >= 2"):
            orbit_counts(chi, 0)
        return
    assert sum(even for _, _, even in chi.terms) == order // 2
    for l in range(7):
        total = sum(size * value ** l for size, _, value in classes)
        even = sum(size * value ** l
                   for size, sign, value in classes if sign > 0)
        assert total % order == 0 and 2 * even % order == 0
        assert orbit_counts(chi, l) == (total // order, 2 * even // order)


def test_collapsed_subsets_match_class_sum():
    # The distribution built through (c_1..c_k) against the plain values
    # of every class of S_n, merged by value.
    for n in range(1, 15):
        for k in range(1, n + 1):
            check_distribution(char_vector_subsets(n, k),
                               subsets_class_values(n, k))


def test_partition_distribution_matches_classes():
    for n in range(1, 13):
        for r in range(1, n + 1):
            if n % r == 0:
                check_distribution(char_vector_uniform_partitions(n, r, n // r),
                                   uniform_class_values(n, r, n // r))


def test_halasi_two_subsets():
    # Halasi (2012): S_n on 2-subsets has base size ceil(2(n-1)/3) for
    # n >= 6; the natural action has base size n - 1.
    for n in range(6, 65):
        assert basecount.base_size_subsets(n, 2).base_size == \
            -(-2 * (n - 1) // 3), n
    for n in range(2, 65):
        assert basecount.base_size_subsets(n, 1).base_size == n - 1, n


def test_collapsed_term_counts():
    # One term per distinct value, not p(40) = 37,338 or p(36) = 17,977
    # classes, nor the 725 and 2,231 signed (c_1..c_k) terms they merge.
    assert len(char_vector_subsets(40, 2).terms) == 261
    assert len(char_vector_subsets(36, 3).terms) == 610
    # The k-subset and (n - k)-subset characters are the same.
    assert char_vector_subsets(30, 20).terms == char_vector_subsets(30, 10).terms


def test_large_subset_builds_keep_exact_invariants():
    # Past the per-class reference: the identity is the largest value and
    # the widest packed slot, the weights add up to n! and n!/2, and S_n
    # has rank min(k, n - k) + 1 on k-subsets.
    for n, k in ((64, 2), (64, 3), (64, 5), (40, 20), (32, 16)):
        chi = char_vector_subsets(n, k)
        assert max(chi.terms) == (comb(n, k), 1, 1)
        assert sum(weight for _, weight, _ in chi.terms) == factorial(n)
        assert sum(even for _, _, even in chi.terms) == factorial(n) // 2
        assert [orbit_counts(chi, l)[0] for l in range(3)] == \
            [1, 1, min(k, n - k) + 1], (n, k)


def test_long_cycle_counts_match_class_sizes():
    # D(m) and its even and odd parts against the classes of S_m whose
    # cycles all exceed k, summed one by one; S_0 is the empty permutation.
    classes = [[((), 1, 1)]] + [
        [(parts, class_size(parts), sign_of(parts))
         for parts in enumerate_cycle_types(m)] for m in range(1, 17)]
    for k in range(17):
        long_only = [[(size, sign) for parts, size, sign in of_m
                      if all(part > k for part in parts)] for of_m in classes]
        expected = ([sum(size for size, _ in c) for c in long_only],
                    [sum(size for size, s in c if s > 0) for c in long_only],
                    [sum(size for size, s in c if s < 0) for c in long_only])
        for n in range(k, 17):
            assert characters._long_cycle_counts(n, k) == \
                tuple(column[:n + 1] for column in expected), (n, k)



# <sgn, chi^l> counted as sets of n distinct membership vectors in {0,1}^l
# with every coordinate sum k, past the oracle's S_9. (11, 2, 7) and
# (12, 3, 6) are left out: they take seconds.
DISTINCT_VECTOR_SETS = {(6, 2, 3): 0, (6, 2, 4): 28, (6, 2, 5): 728,
                        (9, 3, 4): 3, (9, 3, 5): 2910, (10, 2, 5): 0,
                        (10, 2, 6): 15, (12, 3, 5): 0}


def test_regular_orbits_are_sets_of_distinct_vectors():
    for (n, k, l), count in DISTINCT_VECTOR_SETS.items():
        assert distinct_vector_sets(n, k, l) == count, (n, k, l)
        assert split_count(char_vector_subsets(n, k), l) == count, (n, k, l)
    # so b(S_10 on 2-subsets) = 6 = ceil(2 * 9 / 3), as Halasi gives it
    assert basecount.base_size_subsets(10, 2).base_size == 6

def test_long_cycle_recurrence_matches_the_double_loop():
    # the linear recurrence from (1 - x) f' = x^k f against the sum over
    # the length of the cycle through the last point, up to the n limit
    for n in range(characters.DEFAULT_N_LIMIT + 1):
        for k in range(n + 1):
            assert characters._long_cycle_counts(n, k) == \
                long_cycle_counts(n, k), (n, k)


def test_subset_vector_n_limit():
    with pytest.raises(CapacityError):
        char_vector_subsets(65, 2)
    with pytest.raises(InputError):
        char_vector_subsets(65, 66)  # bad k is reported before the limit


# Fixed-point counts on uniform set partitions: the closed form against
# the frozenset enumeration in reference_impls.


def test_table_row_counts():
    # The number of partitions, from the closed form and by enumeration.
    for n, r, s, expected in ((4, 2, 2, 3), (6, 3, 2, 15), (6, 2, 3, 10),
                              (8, 4, 2, 105), (9, 3, 3, 280)):
        assert len(uniform_partitions_frozen(n, r, s)) == expected
        chi = char_vector_uniform_partitions(n, r, s)
        assert chi.domain_size == expected
        assert chi.values[-1] == expected  # identity class comes last


def test_table_input_errors():
    with pytest.raises(InputError):
        char_vector_uniform_partitions(7, 3, 2)  # 7 != 3*2
    with pytest.raises(InputError):
        char_vector_uniform_partitions(4, 0, 4)
    with pytest.raises(InputError):
        char_vector_uniform_partitions(4, 4, 0)


def test_counts_match_frozenset_reference():
    parts_list = uniform_partitions_frozen(6, 3, 2)
    values = uniform_values(6, 3, 2)
    for ct in enumerate_cycle_types(6):
        perm = perm_shortest_first(ct, 6)
        expected = count_fixed_uniform(perm, parts_list)
        assert values[ct] == expected


def test_count_class_invariance():
    # Shortest-first and longest-first representatives of one class fix
    # the same number of partitions, and the closed form gives it.
    parts_list = uniform_partitions_frozen(6, 2, 3)
    values = uniform_values(6, 2, 3)
    for ct in enumerate_cycle_types(6):
        a = count_fixed_uniform(perm_longest_first(ct, 6), parts_list)
        b = count_fixed_uniform(perm_shortest_first(ct, 6), parts_list)
        assert a == b == values[ct]


def test_identity_fixes_everything():
    assert uniform_values(6, 3, 2)[(1,) * 6] == 15
    assert uniform_values(4, 2, 2)[(1,) * 4] == 3
