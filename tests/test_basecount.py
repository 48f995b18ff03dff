import pytest

from basechar import basecount, oracle
from basechar.basecount import (base_size_partitions_action,
                                base_size_subsets, large_base_bounds)
from basechar.characters import (char_vector_subsets, iter_inner_products,
                                 orbit_counts)
from basechar.errors import CapacityError, InputError
from reference_impls import as_arrays, subsets_inner_product


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


def test_search_from_l0_writes_the_trace_of_a_search_from_one(monkeypatch):
    # Every size with n <= 30: a plain loop from l = 1 finds <sgn, chi^l> = 0
    # at every l < L0, so the search that starts at L0 and writes those
    # zeros from the bound gives the same trace, entry for entry. Each
    # vector is built once and read by both.
    built = {}
    monkeypatch.setattr(basecount, "char_vector_subsets",
                        lambda n, k: built[n, k])
    sizes = [(n, k) for n in range(2, 31) for k in range(1, n)
             if k == 1 or n > 2 * k]
    assert len(sizes) == 211
    for n, k in sizes:
        start = basecount._least_nonzero_l(n, k)
        built[n, k] = chi = char_vector_subsets(n, k)
        trace = []
        for l, o, o_k in iter_inner_products(chi):
            trace.append((l, o_k - o))
            if o_k > o:
                break
        assert all(count == 0 for l, count in trace if l < start), (n, k)
        assert base_size_subsets(n, k).witness_l_values == tuple(trace), \
            (n, k)


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
    # o_K - o, as the orbits command reports it
    def regular(n, k, l):
        o, o_k = orbit_counts(char_vector_subsets(n, k), l)
        return o_k - o

    assert regular(3, 1, 2) == 1
    assert regular(5, 2, 3) == 4
    assert regular(5, 2, 2) == 0
    assert regular(5, 1, 0) == 0
    with pytest.raises(InputError):
        regular(5, 2, -1)


def test_wreath_thresholds():
    report = base_size_subsets(3, 1, threshold=2)
    assert report.base_size == 3
    assert [l for l, _ in report.witness_l_values] == [1, 2, 3]
    assert all(count < 2 for _, count in report.witness_l_values[:-1])
    assert report.witness_l_values[-1][1] >= 2
    assert base_size_subsets(4, 1, threshold=2).base_size == 4
    # threshold 1 is exactly the plain base-size search
    assert base_size_subsets(5, 2, threshold=1).base_size == \
        base_size_subsets(5, 2).base_size
    with pytest.raises(InputError):
        base_size_subsets(5, 2, threshold=0)


def test_wreath_matches_oracle():
    for n, r in ((3, 2), (4, 2)):
        formula = base_size_subsets(n, 1, threshold=r).base_size
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


def no_build(n, k):
    raise AssertionError("character built")


def test_bounds_checks_both_sizes_before_any_search(monkeypatch):
    # (64, 26) is a valid size that takes seconds to search; (65, 26) is
    # past the limit, so nothing is built
    monkeypatch.setattr(basecount, "char_vector_subsets", no_build)
    with pytest.raises(CapacityError, match="n = 65 exceeds the limit 64"):
        large_base_bounds(65, 26, 2)


def test_cap_below_least_nonzero_l_refused_before_the_build(monkeypatch):
    # C(6, 2)^2 = 225 < 6! = 720 <= 15^3, so L0 = 3: below it no orbit on
    # l-tuples is regular. The search, run to the cap, gives the message
    # the early refusal gives.
    assert basecount._least_nonzero_l(6, 2) == 3
    assert basecount._least_nonzero_l(64, 25) == 6
    with pytest.raises(CapacityError) as early:
        with monkeypatch.context() as patch:
            patch.setattr(basecount, "char_vector_subsets", no_build)
            base_size_subsets(6, 2, max_l=2)
    with monkeypatch.context() as patch:
        patch.setattr(basecount, "_least_nonzero_l",
                      lambda n, k, threshold=1, cap=None: 1)
        with pytest.raises(CapacityError) as searched:
            base_size_subsets(6, 2, max_l=2)
    assert str(early.value) == str(searched.value) == \
        "no count reaching 1 found up to l=2"
    # from the cap L0 on the search runs; the base size is 4
    with pytest.raises(CapacityError, match="found up to l=3"):
        base_size_subsets(6, 2, max_l=3)
    assert base_size_subsets(6, 2, max_l=4).base_size == 4
    monkeypatch.setattr(basecount, "char_vector_subsets", no_build)
    with pytest.raises(CapacityError, match="reaching 2 found up to l=2"):
        base_size_subsets(6, 2, threshold=2, max_l=2)


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
    # have all-even stabilizers, and the verdict names one.
    expected = {(3, 2): (4, 4, True), (2, 3): (4, 4, True),
                (2, 4): (3, 5, False), (4, 2): (2, 3, False)}
    groups = {n: oracle.symmetric_group(n) for n in (6, 8)}
    for (r, s), (candidate, base, controlling) in expected.items():
        report = base_size_partitions_action(r * s, r, s)
        action = oracle.act_on_uniform_partitions(groups[r * s], r, s)
        assert report.base_size <= oracle_base(action), (r, s)
        assert (report.base_size, oracle_base(action)) == (candidate, base)
        verdict = oracle.is_base_controlling(action)
        assert verdict.controlling == controlling, (r, s)
        if not controlling:
            chosen = [action.point_names.index(name)
                      for name in verdict.counterexample]
            table, labels = as_arrays(action)
            stab = (table[:, chosen] == chosen).all(axis=1)
            assert verdict.stabilizer_order == stab.sum() > 1, (r, s)
            assert (labels[stab] == 1).all(), (r, s)


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


def test_partitions_action_trivial_group():
    # S_1 is trivial: base size 0, found before any l is searched
    report = base_size_partitions_action(1, 1, 1)
    assert report.base_size == 0
    assert report.witness_l_values == ()
    assert report.caveat is None
    assert report.character.domain_size == 1
    assert report.base_size == oracle_base(
        oracle.act_on_uniform_partitions(oracle.symmetric_group(1), 1, 1))


def test_partitions_action_validation():
    with pytest.raises(InputError):
        base_size_partitions_action(6, 2, 2)  # 6 != 2*2
    with pytest.raises(CapacityError):
        base_size_partitions_action(38, 19, 2)  # past the ceiling n = 36
    with pytest.raises(CapacityError):
        base_size_partitions_action(6, 3, 2, max_l=3)
