import math

import pytest

from basechar import cli, partitions
from basechar.characters import char_vector_uniform_partitions
from basechar.errors import ConsistencyError, InputError
from basechar.partitions import class_size, enumerate_cycle_types, sign_of
from reference_impls import (cycle_types_recursive, partition_count,
                             sympy_class_data)


def test_n1_single_cycle_type():
    types = list(enumerate_cycle_types(1))
    assert len(types) == 1
    assert types == [(1,)]


def test_counts_match_pentagonal_recurrence():
    # Up to the uniform-partition ceiling, p(36) = 17,977.
    for n in range(1, 37):
        assert len(list(enumerate_cycle_types(n))) == partition_count(n)
    assert partition_count(36) == 17977


def test_walk_matches_recursive_order():
    # The loop walk refills the tail after each step; the recursion on the
    # first part fixes the same order with no refill at all.
    for n in range(1, 31):
        assert list(enumerate_cycle_types(n)) == list(cycle_types_recursive(n, n))


def test_n4_and_n15_counts():
    assert len(list(enumerate_cycle_types(4))) == 5
    assert len(list(enumerate_cycle_types(15))) == 176


def test_order_is_descending_lexicographic():
    for n in (5, 8, 11):
        seen = list(enumerate_cycle_types(n))
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == len(seen)
        for parts in seen:
            assert sum(parts) == n
            assert list(parts) == sorted(parts, reverse=True)


def test_cycle_type_structure():
    # A cycle type is a plain tuple of its part lengths, longest first.
    for ct in enumerate_cycle_types(6):
        assert type(ct) is tuple
        assert all(type(part) is int for part in ct)
        assert list(ct) == sorted(ct, reverse=True)
    assert list(enumerate_cycle_types(4)) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_enumerate_range_errors():
    with pytest.raises(InputError):
        list(enumerate_cycle_types(0))
    with pytest.raises(InputError):
        list(enumerate_cycle_types(-2))


def test_class_size_examples():
    # S_4: 4-cycles 6, 3-cycles 8, double transpositions 3, transpositions 6
    sizes = {ct: class_size(ct) for ct in enumerate_cycle_types(4)}
    assert sizes == {(4,): 6, (3, 1): 8, (2, 2): 3, (2, 1, 1): 6,
                     (1, 1, 1, 1): 1}
    assert class_size((2, 1, 1, 1)) == 10
    assert class_size((15,)) == math.factorial(14)


def test_class_size_remainder_is_a_consistency_error(monkeypatch, capsys):
    # A factorial off by one leaves a remainder: a hard error (exit 4)
    # that python -O cannot drop.
    monkeypatch.setattr(partitions, "factorial",
                        lambda n: math.factorial(n) + 1)
    with pytest.raises(ConsistencyError):
        class_size((2, 1, 1, 1))
    assert cli.main(["partitions-action", "--n", "6", "--r", "3",
                     "--s", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("consistency failure:")


def test_class_sizes_sum_to_group_order():
    for n in (2, 5, 9, 12, 21):
        total = sum(class_size(ct) for ct in enumerate_cycle_types(n))
        assert total == math.factorial(n)


def test_signs():
    assert sign_of((1, 1, 1, 1)) == 1
    assert sign_of((2, 1, 1)) == -1
    for n in (3, 6, 10):
        assert sign_of((n,)) == (-1) ** (n - 1)


def test_signed_sizes_cancel():
    for n in (2, 6, 13):
        assert sum(sign_of(ct) * class_size(ct)
                   for ct in enumerate_cycle_types(n)) == 0


def test_against_sympy():
    for n in (2, 4, 7, 10, 12):
        mine = {(ct, class_size(ct), sign_of(ct))
                for ct in enumerate_cycle_types(n)}
        assert mine == sympy_class_data(n)


def test_class_data_bundles():
    # A per-class character keeps one value per class, and its terms
    # bundle the class sizes and signs of the classes with each value.
    chi = char_vector_uniform_partitions(6, 3, 2)
    assert len(chi.values) == partition_count(6)
    terms = {value: (weight, even) for value, weight, even in chi.terms}
    for value, (weight, even) in terms.items():
        classes = [ct for ct, v in chi.values if v == value]
        assert weight == sum(class_size(ct) for ct in classes)
        assert even == sum(class_size(ct) for ct in classes
                           if sign_of(ct) > 0)
