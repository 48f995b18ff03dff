import pytest

from basechar import basecount, oracle
from basechar.basecount import (base_size_partitions_action,
                                base_size_subsets, base_size_wreath_subsets,
                                large_base_bounds, regular_orbit_count)
from basechar.errors import CapacityError, InputError
from reference_impls import subsets_inner_product


def oracle_base(action):
    return oracle.tuple_orbit_counts(action)[0]


def test_natural_action_base_is_degree_minus_one():
    for n in range(2, 8):
        assert base_size_subsets(n, 1).base_size == n - 1
    for n in range(2, 7):
        group = oracle.symmetric_group(n)
        assert oracle_base(group) == n - 1


def test_two_subsets_of_five():
    report = base_size_subsets(5, 2)
    assert report.base_size == 3
    assert report.witness_l_values == ((1, 0), (2, 0), (3, 4))
    assert report.caveat is None
    action = oracle.act_on_subsets(oracle.symmetric_group(5), 2)
    assert oracle_base(action) == 3


def test_five_subsets_of_fifteen():
    report = base_size_subsets(15, 5)
    assert report.base_size == 5
    l = 1
    while subsets_inner_product(15, 5, l) == 0:
        l += 1
    assert l == 5


def test_trace_shape():
    for n, k in ((6, 2), (7, 3), (9, 4)):
        report = base_size_subsets(n, k)
        trace = report.witness_l_values
        assert [l for l, _ in trace] == list(range(1, report.base_size + 1))
        assert all(value == 0 for _, value in trace[:-1])
        assert trace[-1][1] > 0


def test_subsets_validation():
    with pytest.raises(InputError):
        base_size_subsets(4, 2)  # needs n > 2k
    with pytest.raises(InputError):
        base_size_subsets(6, 3)
    with pytest.raises(InputError):
        base_size_subsets(5, 0)
    with pytest.raises(InputError):
        base_size_subsets(1, 1)
    with pytest.raises(CapacityError):
        base_size_subsets(6, 2, max_l=2)  # the count stays 0 through l=2


def test_regular_orbit_count_values():
    assert regular_orbit_count(3, 1, 2) == 1
    assert regular_orbit_count(5, 2, 3) == 4
    assert regular_orbit_count(5, 2, 2) == 0
    assert regular_orbit_count(5, 1, 0) == 0
    with pytest.raises(InputError):
        regular_orbit_count(5, 2, -1)


def test_wreath_thresholds():
    report = base_size_wreath_subsets(3, 1, 2)
    assert report.base_size == 3
    assert [l for l, _ in report.witness_l_values] == [1, 2, 3]
    assert all(count < 2 for _, count in report.witness_l_values[:-1])
    assert report.witness_l_values[-1][1] >= 2
    assert base_size_wreath_subsets(4, 1, 2).base_size == 4
    # threshold 1 is exactly the plain base-size search
    assert base_size_wreath_subsets(5, 2, 1).base_size == \
        base_size_subsets(5, 2).base_size
    with pytest.raises(InputError):
        base_size_wreath_subsets(5, 2, 0)


def test_wreath_matches_oracle():
    for n, r in ((3, 2), (4, 2)):
        formula = base_size_wreath_subsets(n, 1, r).base_size
        wreath = oracle.product_action_wreath(oracle.symmetric_group(n), r)
        assert formula == oracle_base(wreath)


def test_bounds_examples():
    assert large_base_bounds(5, 1, 2) == (3, 5)
    assert large_base_bounds(6, 1, 2) == (4, 6)
    lower, upper = large_base_bounds(5, 1, 1)
    assert lower == base_size_subsets(4, 1).base_size
    assert upper == base_size_subsets(5, 1).base_size


def test_bounds_validation():
    with pytest.raises(InputError):
        large_base_bounds(4, 2, 2)  # m-1 = 3 fails 3 > 4
    with pytest.raises(InputError):
        large_base_bounds(5, 1, 0)


def test_partitions_action_six_points():
    report = base_size_partitions_action(6, 3, 2)
    assert report.base_size == 4
    assert report.witness_l_values == ((1, 0), (2, 0), (3, 0), (4, 28))
    assert report.known_base_size is None
    assert report.caveat == basecount.PARTITIONS_CAVEAT
    action = oracle.act_on_uniform_partitions(oracle.symmetric_group(6), 3, 2)
    assert oracle_base(action) == 4
    assert oracle.is_base_controlling(action).controlling


def test_partitions_candidate_never_overshoots_oracle():
    # README, "Caveat on partition actions": every regular orbit splits over
    # the even kernel, so the candidate is at most the base size. It falls
    # short exactly where the sign is not base-controlling: 2x4 and 4x2
    # have all-even stabilizers (degrees 35 and 105 are past the search
    # that would name one).
    expected = {(3, 2): (4, 4, True), (2, 3): (4, 4, True),
                (2, 4): (3, 5, False), (4, 2): (2, 3, False)}
    groups = {n: oracle.symmetric_group(n) for n in (6, 8)}
    for (r, s), (candidate, base, controlling) in expected.items():
        report = base_size_partitions_action(r * s, r, s)
        action = oracle.act_on_uniform_partitions(groups[r * s], r, s)
        assert report.base_size <= oracle_base(action), (r, s)
        assert (report.base_size, oracle_base(action)) == (candidate, base)
        if controlling:
            assert oracle.is_base_controlling(action).controlling
        else:
            with pytest.raises(CapacityError, match="not controlling"):
                oracle.is_base_controlling(action)


def test_partitions_action_known_value_comparison(monkeypatch):
    monkeypatch.setitem(basecount.KNOWN_PARTITION_BASE_SIZES, (6, 3, 2), 4)
    agree = base_size_partitions_action(6, 3, 2)
    assert agree.known_base_size == 4
    assert "agrees with the published base size 4" in agree.caveat
    monkeypatch.setitem(basecount.KNOWN_PARTITION_BASE_SIZES, (6, 3, 2), 3)
    differ = base_size_partitions_action(6, 3, 2)
    assert "differs from the published base size 3" in differ.caveat


def test_partitions_action_non_faithful():
    single_block = base_size_partitions_action(6, 1, 6)
    assert single_block.base_size is None
    assert "not faithful" in single_block.caveat
    assert single_block.witness_l_values == ()
    pairs_of_pairs = base_size_partitions_action(4, 2, 2)
    assert pairs_of_pairs.base_size is None
    assert "not faithful" in pairs_of_pairs.caveat


def test_partitions_action_validation():
    with pytest.raises(InputError):
        base_size_partitions_action(6, 2, 2)  # 6 != 2*2
    with pytest.raises(CapacityError):
        base_size_partitions_action(38, 19, 2)  # past the ceiling n = 36
    with pytest.raises(CapacityError):
        base_size_partitions_action(6, 3, 2, max_l=3)
