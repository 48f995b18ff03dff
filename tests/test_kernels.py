"""Fixed-point counts on uniform set partitions, read off the closed form.

These checks once ran against an enumerated partition table and a
counting kernel; they now hold the closed form in `characters` to the
same frozenset enumeration in `reference_impls`.
"""

import pytest

from basechar.characters import (char_vector_uniform_partitions,
                                 chi_uniform_partitions)
from basechar.errors import InputError
from basechar.partitions import CycleType, enumerate_cycle_types
from reference_impls import (count_fixed_uniform, perm_shortest_first,
                             uniform_partitions_frozen)


def perm_longest_first(parts, n):
    """A permutation of cycle type `parts`, longest cycles laid out first."""
    images = list(range(n))
    pos = 0
    for length in sorted(parts, reverse=True):
        for i in range(length):
            images[pos + i] = pos + (i + 1) % length
        pos += length
    return images


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
    for ct in enumerate_cycle_types(6):
        perm = perm_shortest_first(ct.parts(), 6)
        expected = count_fixed_uniform(perm, parts_list)
        assert chi_uniform_partitions(ct, 3, 2) == expected


def test_count_class_invariance():
    # Shortest-first and longest-first representatives of one class fix
    # the same number of partitions, and the closed form gives it.
    parts_list = uniform_partitions_frozen(6, 2, 3)
    for ct in enumerate_cycle_types(6):
        a = count_fixed_uniform(perm_longest_first(ct.parts(), 6), parts_list)
        b = count_fixed_uniform(perm_shortest_first(ct.parts(), 6),
                                parts_list)
        assert a == b == chi_uniform_partitions(ct, 2, 3)


def test_identity_fixes_everything():
    assert chi_uniform_partitions(CycleType.from_parts(6, (1,) * 6), 3, 2) == 15
    assert chi_uniform_partitions(CycleType.from_parts(4, (1,) * 4), 2, 2) == 3
