import json
import random
from array import array
from collections import Counter
from functools import cache
from itertools import permutations, product
from math import factorial, prod

import numpy as np
import pytest

from basechar import cli, oracle
from basechar.basecount import large_base_bounds
from basechar.errors import CapacityError, ConsistencyError, InputError
from basechar.oracle import (MAX_TUPLE_LENGTH, InducedAction, act_on_subsets,
                             act_on_uniform_partitions, alternating_group,
                             closure, is_base_controlling,
                             label_homomorphism_spot_check, parse_group_spec,
                             pgl2, product_action_wreath, symmetric_group,
                             tuple_orbit_counts)
from reference_impls import (as_arrays, blind_orbit_data,
                             burnside_orbit_count, distinguishing_number,
                             first_all_plus_chain, has_all_plus_stabilizer,
                             partitions_action_table, perm_sign,
                             pgl2_reference,
                             subsets_action_table, wreath_action_table)


def identity_perm(degree):
    return tuple(range(degree))


def parse_cycles(text, degree):
    """1-based cycle notation like ``(1,2)(3,4)`` at a fixed degree, as a
    tuple of 0-based images, read the way a ``gens:`` spec reads it."""
    rows = oracle._cycle_rows([text], [oracle._cycle_points(text)], degree)
    return tuple(rows[0])


def elements(group):
    """The group's rows as tuples of images, in table order."""
    table, degree = group.table, group.degree
    return [tuple(table[i:i + degree]) for i in range(0, len(table), degree)]


def signs(group):
    """The group's labels as +1 and -1, in table order."""
    return [1 - 2 * bit for bit in group.labels]


def bytes_per_point(action):
    return memoryview(action.table).itemsize


def base_size(action):
    return tuple_orbit_counts(action)[0]


def orbit_rows(action, l_max):
    return tuple_orbit_counts(action, l_max)[1]


def test_perm_primitives():
    assert perm_sign((1, 0, 2, 3)) == -1
    assert perm_sign((1, 2, 0)) == 1
    assert perm_sign(identity_perm(6)) == 1


def test_parse_cycles():
    assert parse_cycles("(1,2)(3,4)", 5) == (1, 0, 3, 2, 4)
    assert parse_cycles("()", 3) == (0, 1, 2)
    assert parse_cycles(" (1, 3) ", 3) == (2, 1, 0)
    for text in ("(1,2", "(1,a)", "(1,1)", "(1,2)(2,3)", "(9)"):
        with pytest.raises(InputError):
            parse_cycles(text, 4)


def test_closure_labeled_s4():
    transposition = parse_cycles("(1,2)", 4)
    four_cycle = parse_cycles("(1,2,3,4)", 4)
    group = closure([transposition, four_cycle], labels=[-1, -1])
    assert group.order == 24
    assert signs(group).count(1) == 12
    assert set(elements(group)) == set(permutations(range(4)))


def test_closure_trivial_and_errors(monkeypatch):
    assert closure([identity_perm(5)]).order == 1
    with pytest.raises(InputError):
        closure([])
    with pytest.raises(InputError):
        closure([(0, 1, 2), (1, 0)])  # mixed degrees
    with pytest.raises(InputError, match="degree must be positive"):
        closure([()])
    with pytest.raises(InputError):
        closure([(0, 2, 1)], labels=[-1, 1])  # label count mismatch
    with pytest.raises(InputError):
        closure([(0, 2, 1)], labels=[2])
    monkeypatch.setattr(oracle, "MAX_CLOSURE_ORDER", 50)
    with pytest.raises(CapacityError, match="group order exceeds 50"):
        closure([parse_cycles("(1,2)", 6), parse_cycles("(1,2,3,4,5,6)", 6)])


def test_closure_refuses_a_large_table_as_it_grows(monkeypatch):
    # A 1,000-cycle generates 1,000 elements of degree 1,000; with a cap of
    # 10^4 table cells the closure must stop after listing about ten
    # elements, each checked as it is listed, not list the whole group first.
    monkeypatch.setattr(oracle, "MAX_TABLE_CELLS", 10 ** 4)
    listed = []
    check = oracle._check_table_capacity

    def counted(order, degree):
        listed.append(order)
        check(order, degree)

    monkeypatch.setattr(oracle, "_check_table_capacity", counted)
    cycle = tuple(range(1, 1000)) + (0,)
    with pytest.raises(CapacityError, match="action table too large"):
        closure([cycle])
    assert len(listed) <= 10 ** 4 // 1000 + 1
    assert max(listed) == 10 ** 4 // 1000 + 1  # refused at the first too many


def test_closure_of_a_cycle_and_a_transposition_is_symmetric():
    for n in range(2, 9):
        cycle = tuple(range(1, n)) + (0,)
        transposition = (1, 0) + tuple(range(2, n))
        generated = closure([cycle, transposition],
                            labels=[(-1) ** (n - 1), -1])
        group = symmetric_group(n)
        assert generated.table == group.table
        assert generated.labels == group.labels


def test_closure_inconsistent_labels():
    # (1,2,3) = (1,2)(1,3) is even; labeling it -1 cannot be a homomorphism
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    with pytest.raises(InputError):
        closure(gens, labels=[-1, -1])
    # (1,2) and (2,3) are conjugate, so no homomorphism tells them apart,
    # yet each alone is consistent: only a product of both shows it
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(2,3)", 3)]
    with pytest.raises(InputError):
        closure(gens, labels=[1, -1])
    # r^2 already lies in the group of r, where it is labelled +1
    r = parse_cycles("(1,2,3,4)", 4)
    with pytest.raises(InputError):
        closure([r, tuple(r[x] for x in r)], labels=[1, -1])


def test_symmetric_and_alternating():
    for n in range(1, 9):
        sn = symmetric_group(n)
        assert bytes_per_point(sn) == 1
        assert elements(sn) == list(permutations(range(n)))
        assert isinstance(sn.labels, bytes) and len(sn.labels) == sn.order
        assert signs(sn) == [perm_sign(e) for e in elements(sn)]
    a4 = alternating_group(4)
    assert a4.order == 12
    assert all(perm_sign(e) == 1 for e in elements(a4))
    with pytest.raises(CapacityError):
        symmetric_group(11)  # 11! is past the order bound
    with pytest.raises(InputError):
        symmetric_group(0)


def test_cycle_signs_match_perm_sign():
    # a gens: generator's sign is read off its cycles, a k-cycle k - 1
    # swaps; 1-cycles and the identity count none, and ! marks are unread
    specs = ["gens:(1,2,3,4,5,6);(1,2)(3,5)", "gens:(1,2,3)(4,5)",
             "gens:(2)(1,3)", "gens:();(1,2,3)", "gens:!(1,2);(1,2,3,4)",
             "gens:(1,4)(2,5,3)(6,7,8,9)"]
    specs += [spec for spec in _small_gens_specs(random.Random(34), 20)
              if "/" not in spec]
    for spec in specs:
        group = parse_group_spec(spec, "sgn").base_group
        assert isinstance(group.labels, bytes)
        assert signs(group) == [perm_sign(e) for e in elements(group)], spec


def test_rows_in_strict_lexicographic_order():
    gens = [parse_cycles("(1,3)(2,4)", 4), parse_cycles("(1,2,3)", 4)]
    # the dihedral group of degree 257: two bytes per point, where sorting
    # the rows' bytes would put 256 right after 0
    rotation = tuple(range(1, 257)) + (0,)
    reflection = tuple(-i % 257 for i in range(257))
    dihedral = closure([rotation, reflection])
    assert bytes_per_point(dihedral) == 2 and dihedral.order == 514
    sign_labelled = [parse_group_spec(spec, "sgn").base_group
                     for spec in ("gens:!(1,3)(2,4);(1,2,3)", "an:5")]
    for group in (closure(gens), closure([identity_perm(3)]),
                  symmetric_group(4),
                  alternating_group(5), pgl2(5), pgl2(7), pgl2(23),
                  *sign_labelled, dihedral):
        rows = elements(group)
        assert all(a < b for a, b in zip(rows, rows[1:]))


def test_labels_must_match_rows():
    s3 = symmetric_group(3)
    with pytest.raises(InputError):
        InducedAction(s3.table, s3.labels[:5], s3.point_names)
    with pytest.raises(InputError):
        InducedAction(s3.table[3:], s3.labels, s3.point_names)  # a row short
    with pytest.raises(InputError):
        InducedAction(s3.table[1:], s3.labels, s3.point_names)  # a point short


def test_index_two_kernel_of_sign_labels():
    for group in (symmetric_group(4), symmetric_group(5), pgl2(5)):
        assert signs(group).count(1) * 2 == group.order


def test_pgl2_examples():
    g7 = pgl2(7)
    assert g7.degree == 8
    assert g7.order == 336
    assert signs(g7).count(1) == 168  # PSL_2(7)
    ident_index = elements(g7).index(identity_perm(8))
    assert signs(g7)[ident_index] == 1
    g3 = pgl2(3)
    assert g3.degree == 4
    assert g3.order == 24
    assert set(elements(g3)) == set(elements(symmetric_group(4)))
    label_homomorphism_spot_check(g7, samples=100, seed=1)
    for q in (2, 9, 37):
        with pytest.raises(InputError):
            pgl2(q)


def test_pgl2_matches_every_invertible_matrix():
    # pgl2 is the closure of three maps; the reference lists every map
    # x -> (ax + b) / (cx + d) with its determinant class. 19 and 23, the
    # groups the benchmark verifies, are held to their order.
    for q in (3, 5, 7, 11, 13):
        rows, labels = pgl2_reference(q)
        group = pgl2(q)
        assert elements(group) == rows, q
        assert list(group.labels) == labels, q
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        assert pgl2(q).order == q ** 3 - q


def test_spot_check_catches_tampered_labels():
    s4 = symmetric_group(4)
    labels = bytearray(s4.labels)
    labels[5] ^= 1  # -1 for +1 and back
    broken = InducedAction(s4.table, bytes(labels), s4.point_names)
    with pytest.raises(ConsistencyError):
        label_homomorphism_spot_check(broken, samples=200, seed=0)


def test_spot_check_catches_missing_products():
    s4 = symmetric_group(4)
    # drop an inner row, and the last row (a product past every row)
    for dropped in (5, 23):
        holed = InducedAction(
            s4.table[:4 * dropped] + s4.table[4 * dropped + 4:],
            s4.labels[:dropped] + s4.labels[dropped + 1:], s4.point_names)
        with pytest.raises(ConsistencyError, match="not a row"):
            label_homomorphism_spot_check(holed, samples=200, seed=0)


@pytest.mark.parametrize("spec, labels_mode", [
    ("sn:5", "auto"), ("an:5", "sgn"), ("pgl2:7", "auto"),
    ("gens:!(1,2)(3,4);(1,3)(2,4)", "auto"), ("gens:(1,2,3,4,5);(1,2)", "auto"),
])
def test_labels_multiply_on_every_pair(spec, labels_mode):
    # Every product of two rows is a row, and its label is the exclusive
    # or of theirs: the labels are a homomorphism, checked element by
    # element rather than on a sample.
    group = parse_group_spec(spec, labels_mode).base_group
    table, degree, labels = group.table, group.degree, group.labels
    rows = [table[k:k + degree] for k in range(0, len(table), degree)]
    index = {row: k for k, row in enumerate(rows)}
    for i, first in enumerate(rows):
        for j, second in enumerate(rows):
            k = index[oracle._apply(first, second)]  # row i, then row j
            assert labels[k] == labels[i] ^ labels[j], (spec, i, j)


def test_act_on_subsets():
    action = act_on_subsets(symmetric_group(4), 2)
    assert action.degree == 6
    assert action.order == 24
    assert action.point_names[0] == "{1,2}"
    assert action.kernel == 1
    with pytest.raises(InputError):
        act_on_subsets(symmetric_group(4), 5)


def test_act_on_uniform_partitions():
    action = act_on_uniform_partitions(symmetric_group(6), 3, 2)
    assert action.degree == 15
    assert "12|34|56" in action.point_names
    small = act_on_uniform_partitions(symmetric_group(4), 2, 2)
    assert small.degree == 3
    assert small.point_names == ("12|34", "13|24", "14|23")
    swap = elements(small)[elements(symmetric_group(4)).index((1, 0, 2, 3))]
    assert swap == (0, 2, 1)  # (1 2) swaps 13|24 and 14|23
    assert small.kernel == 4  # the double transpositions act trivially
    with pytest.raises(InputError):
        act_on_uniform_partitions(symmetric_group(6), 4, 2)


def _same_action(action, expected):
    table, names = expected
    assert table.dtype == np.int32  # the reference stays wide
    assert bytes_per_point(action) == (1 if action.degree <= 256 else 2)
    assert elements(action) == [tuple(row) for row in table.tolist()]
    assert action.point_names == names


def test_induced_tables_match_plain_construction():
    for n in range(1, 7):
        group = symmetric_group(n)
        rows = elements(group)
        for k in range(1, n + 1):
            _same_action(act_on_subsets(group, k),
                         subsets_action_table(rows, n, k))
        for r in range(1, n + 1):
            if n % r == 0:
                _same_action(act_on_uniform_partitions(group, r, n // r),
                             partitions_action_table(rows, n, r, n // r))
    # a cyclic group of degree 63: its subsets are past any int64 bitmask
    cycle = "(" + ",".join(str(x) for x in range(1, 64)) + ")"
    cyclic = parse_group_spec(f"gens:{cycle}").base_group
    assert (cyclic.degree, cyclic.order) == (63, 63)
    expected = subsets_action_table(elements(cyclic), 63, 2)
    _same_action(act_on_subsets(cyclic, 2), expected)


def _rows_and_labels(table, labels):
    return Counter(zip(map(tuple, table), labels))


def test_chain_order_tables_match_plain_construction():
    # PGL_2(q) and A_n are built in lexicographic order, but their induced
    # rows come in stabilizer-chain order: the same (row, label) pairs as
    # the element-by-element reference, in another order
    for spec in ("pgl2:5", "pgl2:7", "an:5", "an:6"):
        group = parse_group_spec(spec, "sgn").base_group
        n, rows = group.degree, elements(group)
        induced = [(act_on_subsets(group, k), subsets_action_table(rows, n, k))
                   for k in range(1, n)]
        induced += [(act_on_uniform_partitions(group, r, n // r),
                     partitions_action_table(rows, n, r, n // r))
                    for r in range(2, n) if n % r == 0]
        reordered = 0
        for action, (table, names) in induced:
            assert action.point_names == names
            assert _rows_and_labels(elements(action), action.labels) == \
                _rows_and_labels(table.tolist(), group.labels)
            reordered += elements(action) != [tuple(row)
                                              for row in table.tolist()]
        assert reordered, spec


def test_induced_action_refuses_an_unsorted_base():
    s3 = symmetric_group(3)
    backwards = InducedAction(
        bytes(x for row in reversed(elements(s3)) for x in row),
        s3.labels[::-1], s3.point_names)
    with pytest.raises(ConsistencyError, match="not a sorted group"):
        act_on_subsets(backwards, 1)


def test_subset_table_induces_only_representatives(monkeypatch):
    # only the transversal rows of the chain of S_8, 8 + 7 + ... + 2 of
    # them, are induced point by point; every other row is a translate
    induced = []
    set_images = oracle._set_images

    def counted(points):
        induce = set_images(points)

        def count(row):
            induced.append(row)
            return induce(row)
        return count

    monkeypatch.setattr(oracle, "_set_images", counted)
    action = act_on_subsets(symmetric_group(8), 3)
    assert action.order == factorial(8)
    assert len(induced) <= 8 * 9 // 2


def _cycle_spec(n):
    return "gens:(" + ",".join(str(x) for x in range(1, n + 1)) + ")"


def test_point_dtype_boundary():
    # 256 points fit one byte each, 257 take two; the narrow table gives
    # the same orbit rows as the same rows held two bytes per point
    for n, width in ((256, 1), (257, 2)):
        group = parse_group_spec(_cycle_spec(n)).action
        assert (group.degree, group.order) == (n, n)
        assert bytes_per_point(group) == width
        wide = InducedAction(array("H", list(group.table)), group.labels,
                             group.point_names)
        assert base_size(group) == 1
        assert tuple_orbit_counts(group) == tuple_orbit_counts(wide)
    # induced actions past 256 points, row for row against the reference
    subsets = parse_group_spec(_cycle_spec(12) + "/subsets:4")
    assert subsets.action.degree == 495
    assert base_size(subsets.action) == 1
    _same_action(subsets.action, subsets_action_table(
        elements(subsets.base_group), 12, 4))
    wreath = parse_group_spec(_cycle_spec(20) + "/wreath:2")
    assert (wreath.action.degree, wreath.action.order) == (400, 800)
    assert base_size(wreath.action) == 2
    _same_action(wreath.action, wreath_action_table(
        elements(wreath.base_group), 2))
    # an induced pair on either side of 256 points: C(23, 2) = 253 points
    # one byte each, C(24, 2) = 276 two bytes each
    for n, degree in ((23, 253), (24, 276)):
        pair = parse_group_spec(_cycle_spec(n) + "/subsets:2")
        assert pair.action.degree == degree
        assert base_size(pair.action) == 1
        _same_action(pair.action, subsets_action_table(
            elements(pair.base_group), n, 2))


def test_wreath_product_action():
    wreath = product_action_wreath(symmetric_group(3), 2)
    assert wreath.degree == 9
    assert wreath.order == 72
    assert wreath.labels is not None
    assert signs(wreath).count(1) * 2 == wreath.order
    assert wreath.kernel == 1
    with pytest.raises(InputError):
        product_action_wreath(symmetric_group(3), 0)


def test_wreath_rows_are_permutations():
    wreath = product_action_wreath(symmetric_group(3), 2)
    for row in elements(wreath):
        assert sorted(row) == list(range(9))
    assert len(set(elements(wreath))) == 72


def _assert_wreath_rows(base, r, base_labels):
    """Row s * |base|^r + b of the wreath is (g_1, ..., g_r; sigma) with
    (g_1, ..., g_r) the b-th r-tuple of base rows in product order and
    sigma the s-th top element; it maps point x to the tuple whose
    coordinate i is the image of x_{sigma^-1(i)} under g_{sigma^-1(i)},
    and is labeled by the product of base_labels over g_1, ..., g_r,
    whatever sigma is."""
    g = elements(base)
    points = list(product(range(base.degree), repeat=r))
    wreath = product_action_wreath(base, r)
    rows = iter(zip(elements(wreath), signs(wreath)))
    for sigma in permutations(range(r)):
        src = [sigma.index(i) for i in range(r)]
        for bottom in product(range(len(g)), repeat=r):
            row, label = next(rows)
            for x, image in zip(points, row):
                assert points[image] == tuple(
                    g[bottom[j]][x[j]] for j in src)
            assert label == prod(base_labels[b] for b in bottom)
    assert next(rows, None) is None


def test_wreath_rows_match_definition():
    # S_3 wr S_2, labeled sgn(g_1)sgn(g_2)
    s3 = symmetric_group(3)
    _assert_wreath_rows(s3, 2, [perm_sign(row) for row in elements(s3)])


def test_wreath_labels_are_products_of_base_labels():
    # V_4 wr S_3 on 64 points, 384 rows, over marked labels that are not
    # the signs: (1,2)(3,4) is even and labeled -1
    base = parse_group_spec("gens:!(1,2)(3,4);(1,3)(2,4)").base_group
    labels = signs(base)
    assert labels != [perm_sign(row) for row in elements(base)]
    _assert_wreath_rows(base, 3, labels)


def alternating_power(m, r):
    """A_m^r in product action on the r-tuples of [m], closed from the
    3-cycles (1 2 i) acting on one coordinate each."""
    points = list(product(range(m), repeat=r))
    index = {point: i for i, point in enumerate(points)}
    gens = []
    for c in range(r):
        for i in range(2, m):
            cycle = {0: 1, 1: i, i: 0}
            gens.append(tuple(
                index[x[:c] + (cycle.get(x[c], x[c]),) + x[c + 1:]]
                for x in points))
    return closure(gens)


def test_bounds_hold_at_both_ends_of_the_sandwich():
    # bounds(m, 1, r) claims lower <= b(G) <= upper for every G between
    # A_m^r and S_m wr S_r in product action; the oracle builds both ends
    for (m, r), ends in {(4, 2): (2, 4), (4, 3): (2, 4),
                         (5, 2): (3, 5)}.items():
        lower, upper = large_base_bounds(m, 1, r)
        power = alternating_power(m, r)
        assert power.order == (factorial(m) // 2) ** r
        wreath = product_action_wreath(symmetric_group(m), r)
        smallest, largest = base_size(power), base_size(wreath)
        assert lower <= smallest and largest <= upper, (m, r)
        assert (smallest, largest) == (lower, upper) == ends, (m, r)


def test_capacity_errors_on_induced_actions():
    with pytest.raises(CapacityError):
        product_action_wreath(symmetric_group(5), 3)  # order 120^3 * 6
    with pytest.raises(CapacityError):
        product_action_wreath(closure([identity_perm(10)]), 5)  # degree 10^5
    with pytest.raises(CapacityError):
        act_on_subsets(symmetric_group(10), 2)  # order 10! past the bound


def test_wreath_of_one_over_a_wide_cycle_is_the_base_action():
    # 300 points take two bytes each; S_1 on top leaves the base action,
    # its rows read off the base table
    spec = "gens:(" + ",".join(map(str, range(1, 301))) + ")"
    base = parse_group_spec(spec).action
    wreath = parse_group_spec(spec + "/wreath:1").action
    assert bytes_per_point(wreath) == 2
    assert (wreath.degree, wreath.order) == (base.degree, base.order) \
        == (300, 300)
    assert tuple_orbit_counts(wreath) == tuple_orbit_counts(base)


def test_regular_orbits_examples():
    s3 = symmetric_group(3)
    assert orbit_rows(s3, 2)[2] == (2, 2, 3, 1)
    g7 = pgl2(7)
    assert [regular for _, _, _, regular in orbit_rows(g7, 3)] \
        == [0, 0, 0, 1]
    with pytest.raises(InputError):
        tuple_orbit_counts(s3, -1)
    with pytest.raises(CapacityError):
        tuple_orbit_counts(s3, MAX_TUPLE_LENGTH + 1)


def test_base_size_examples():
    assert base_size(symmetric_group(4)) == 3
    assert base_size(pgl2(7)) == 3
    assert base_size(alternating_group(5)) == 3
    assert base_size(
        act_on_uniform_partitions(symmetric_group(6), 3, 2)) == 4
    # not faithful: no base
    assert base_size(act_on_uniform_partitions(symmetric_group(4), 2, 2)) \
        is None


def test_base_size_invariant_under_point_relabeling():
    action = act_on_subsets(symmetric_group(5), 2)
    rng = np.random.default_rng(3)
    relabel = rng.permutation(action.degree)
    table = np.empty((action.order, action.degree), dtype=np.int32)
    table[:, relabel] = relabel[as_arrays(action)[0]]
    shuffled = InducedAction(bytes(table.astype(np.uint8)), action.labels,
                             tuple(action.point_names[i]
                                   for i in np.argsort(relabel)))
    assert base_size(shuffled) == base_size(action)


def test_orbit_counts_examples():
    s3 = symmetric_group(3)
    assert [(o, o_k) for _, o, o_k, _ in orbit_rows(s3, 2)] \
        == [(1, 1), (1, 1), (2, 3)]
    a4 = alternating_group(4)  # all +1: the label kernel is the group
    assert orbit_rows(a4, 1) == [(0, 1, 1, 0), (1, 1, 1, 0)]
    # o_K is read off the stabilizers only for an index-2 label kernel
    s4 = symmetric_group(4)
    lopsided = InducedAction(s4.table, bytes([0] * 23 + [1]), s4.point_names)
    with pytest.raises(ConsistencyError):
        tuple_orbit_counts(lopsided)


def test_orbit_counts_sandwich():
    # each full-group orbit is one or two kernel orbits
    for action in (symmetric_group(4),
                   act_on_subsets(symmetric_group(5), 2),
                   pgl2(5)):
        for _, o, o_k, _ in orbit_rows(action, 3):
            assert o <= o_k <= 2 * o


def test_pruned_search_equals_blind_enumeration():
    # pgl2(5) is labeled by determinant class, the wreath square by the
    # product of coordinate signs: o_K read off the stabilizers is checked
    # against the kernel rows for labels other than the sign
    actions = (symmetric_group(3),
               symmetric_group(4),
               alternating_group(4),
               act_on_uniform_partitions(symmetric_group(4), 2, 2),
               pgl2(5),
               product_action_wreath(symmetric_group(3), 2))
    for action in actions:
        table, labels = as_arrays(action)
        for l, o, o_k, regular in orbit_rows(action, 3):
            data = blind_orbit_data(table, l)
            assert o == len(data)
            assert regular == sum(1 for _, stab in data if stab == 1)
            kernel = table[labels == 1]
            assert o_k == len(blind_orbit_data(kernel, l))


@cache
def _action(spec):
    """The action of a spec, built once for the tests that share it."""
    return parse_group_spec(spec).action


# 276 points, two bytes each: the lattice and the search gather rows of an
# array('H') table, which must be keyed by a bytes copy
WIDE = "pgl2:23/subsets:2"


def test_merged_walk_matches_burnside_at_depth():
    # Past l = 3 many tuple orbits share one stabilizer, so this checks the
    # merge by stabilizer rows against |G|^-1 sum fix(g)^l, for the group
    # and for its +1 rows. pgl2:7 and pgl2:23 are labelled by determinant
    # class, the wreath squares by the product of coordinate signs, and
    # an:5/subsets:2 and the 5-cycle's sign labels are all +1.
    specs = (("sn:9", 10), ("pgl2:7", 12), ("an:5/subsets:2", 10),
             ("sn:4/wreath:2", 8), ("sn:3/wreath:2", 12),
             ("sn:6/partitions:3x2", 10), ("gens:(1,2,3,4,5)", 12),
             (WIDE, 4))
    for spec, l_max in specs:
        action = _action(spec)
        table, labels = as_arrays(action)
        kernel = table[labels == 1]
        for l, o, o_k, _ in orbit_rows(action, l_max):
            assert o == burnside_orbit_count(table, l), (spec, l)
            assert o_k == burnside_orbit_count(kernel, l), (spec, l)


def test_is_base_controlling_subsets():
    for n, k in ((5, 1), (5, 2), (6, 2), (7, 2)):
        action = act_on_subsets(symmetric_group(n), k)
        assert is_base_controlling(action).controlling
    # degree 35: the verdict is read off the lattice, whatever the degree
    big = act_on_subsets(symmetric_group(7), 3)
    assert is_base_controlling(big).controlling
    # degree 27 and not controlling: the first counterexample is named
    verdict = is_base_controlling(parse_group_spec("sn:3/wreath:3").action)
    assert not verdict.controlling
    assert verdict.counterexample == ("(1,1,1)", "(1,1,2)", "(2,2,1)")


def test_controlling_verdict_matches_subset_enumeration():
    # every labelled spec here has degree at most 12, so every point set is
    # tried; the non-controlling ones also check the named counterexample
    specs = ("sn:3", "sn:4", "sn:5", "sn:6", "pgl2:5", "pgl2:7",
             "sn:3/wreath:2", "sn:5/subsets:2", "sn:6/partitions:2x3",
             "sn:4/partitions:2x2", "gens:!(1,2,3,4);(1,3)",
             "gens:!(1,2);(1,2,3)")
    verdicts = []
    for spec in specs:
        action = parse_group_spec(spec).action
        assert action.degree <= 12, spec
        verdict = is_base_controlling(action)
        table, labels = as_arrays(action)
        violated = has_all_plus_stabilizer(table, labels)
        assert verdict.controlling == (not violated), spec
        verdicts.append(verdict.controlling)
        if not verdict.controlling:
            chosen = [action.point_names.index(name)
                      for name in verdict.counterexample]
            stab = (table[:, chosen] == chosen).all(axis=1)
            assert verdict.stabilizer_order == stab.sum() > 1, spec
            assert (labels[stab] == 1).all(), spec
    assert True in verdicts and False in verdicts


def test_memoised_search_names_the_plain_first_counterexample():
    # Skipping stabilizers already cleared must not change which chain
    # comes first, nor its stabilizer order.
    for spec in ("sn:4/wreath:2", "sn:3/wreath:3", "pgl2:5/wreath:2",
                 "sn:4/subsets:2/wreath:2", "sn:3/wreath:2/wreath:2",
                 "sn:4/partitions:2x2",
                 "gens:!(1,2)(3,4);(1,3)(2,4)/wreath:2", WIDE):
        action = _action(spec)
        chain, order = first_all_plus_chain(*as_arrays(action))
        verdict = is_base_controlling(action)
        assert not verdict.controlling, spec
        assert verdict.counterexample == tuple(
            action.point_names[i] for i in chain), spec
        assert verdict.stabilizer_order == order, spec


def test_is_base_controlling_pgl2_and_wreath():
    assert is_base_controlling(pgl2(7)).controlling
    assert is_base_controlling(pgl2(5)).controlling
    wreath = product_action_wreath(symmetric_group(3), 2)
    verdict = is_base_controlling(wreath)
    # (g_1, g_2; sigma) labels ignore sigma, so the coordinate swap is an
    # unlabeled stabilizer element: the product labeling cannot control bases
    assert not verdict.controlling


def test_is_base_controlling_counterexample_shape():
    action = act_on_uniform_partitions(symmetric_group(4), 2, 2)
    # the action kernel V_4 is all even, so any set pinning down the image
    # group leaves a nontrivial all-plus stabilizer
    verdict = is_base_controlling(action)
    assert not verdict.controlling
    assert verdict.label_image == (1,)
    assert verdict.stabilizer_order >= 4
    assert isinstance(verdict.counterexample, tuple)


def test_is_base_controlling_degenerate_inputs():
    s4 = symmetric_group(4)
    all_plus = InducedAction(s4.table, bytes(24), tuple("1234"))
    with pytest.raises(InputError):
        is_base_controlling(all_plus)
    with pytest.raises(InputError):
        is_base_controlling(alternating_group(4))
    # labels that are not a homomorphism
    lopsided = InducedAction(s4.table, bytes([0] * 23 + [1]), tuple("1234"))
    with pytest.raises(ConsistencyError):
        is_base_controlling(lopsided)


def test_distinguishing_numbers():
    for r in (2, 3, 4):
        assert distinguishing_number(symmetric_group(r)) == r
    assert distinguishing_number(closure([identity_perm(5)])) == 1
    swap = closure([parse_cycles("(1,2)", 2)])
    assert distinguishing_number(swap) == 2
    assert distinguishing_number(alternating_group(4)) == 3
    with pytest.raises(CapacityError):
        distinguishing_number(closure([identity_perm(13)]))


def _identity_rows(action):
    """The number of rows fixing every point, from the whole table at once."""
    table = as_arrays(action)[0]
    return int((table == np.arange(action.degree)).all(axis=1).sum())


def test_kernel_order():
    assert symmetric_group(3).kernel == 1
    assert act_on_uniform_partitions(symmetric_group(4), 2, 2).kernel == 4
    # the last four have no regular orbit on any key; the regular C_4 has
    # no one-row key
    for spec, order in (("sn:4/partitions:2x2", 4), ("sn:1/subsets:1", 1),
                        ("an:2", 1), ("gens:(1,2)(3,4)", 1),
                        ("gens:(1,2);(4,5)", 1), ("sn:4/wreath:2", 1),
                        (WIDE, 1),
                        ("gens:(1,2,3,4)", 1), ("an:4/partitions:2x2", 4),
                        ("pgl2:3/partitions:2x2", 4), ("sn:2/subsets:2", 2),
                        ("an:3/subsets:3", 3)):
        action = _action(spec)
        assert action.kernel == order == _identity_rows(action), spec
        # the whole group is the first key, None, with every row; every
        # other key is the bytes of the rows fixing every point its rows
        # fix, in table order
        assert next(iter(action.lattice)) is None, spec
        assert action.lattice[None][4] == action.order, spec
        table = as_arrays(action)[0]
        dtype = f"u{bytes_per_point(action)}"  # the table's point type
        points = np.arange(action.degree)
        for key, node in action.lattice.items():
            if key is None:
                continue
            rows = np.frombuffer(key, dtype=dtype).reshape(-1, action.degree)
            assert len(rows) == node[4], spec
            fixed = (rows == points).all(axis=0)
            stab = (table[:, fixed] == points[fixed]).all(axis=1)
            assert key == table[stab].astype(dtype).tobytes(), spec


def _shuffled_rows(action, rng):
    """The action with its rows, and their labels alike, in a random order."""
    table, _ = as_arrays(action)
    order = rng.permutation(action.order)
    dtype = f"u{bytes_per_point(action)}"
    rows = table[order].astype(dtype).tobytes()
    labels = bytes(np.frombuffer(action.labels, dtype=np.uint8)[order])
    return InducedAction(rows if dtype == "u1" else array("H", rows),
                         labels, action.point_names)


def test_lattice_and_verdict_invariant_under_row_order():
    # keys are the bytes of gathered rows, so a table in another row order
    # gives other keys; what is read off them must not move
    rng = np.random.default_rng(29)
    for spec in ("sn:4/wreath:2", "pgl2:5", "sn:4/partitions:2x2",
                 "sn:3/wreath:3", WIDE):
        action = _action(spec)
        shuffled = _shuffled_rows(action, rng)
        assert shuffled.table != action.table, spec
        assert tuple_orbit_counts(shuffled, 4) == \
            tuple_orbit_counts(action, 4), spec
        assert shuffled.kernel == action.kernel, spec
        assert len(shuffled.lattice) == len(action.lattice), spec
        assert is_base_controlling(shuffled) == \
            is_base_controlling(action), spec


def _small_gens_specs(rng, count):
    """Seeded gens: specs on at most 6 points, one to three generators, each
    a random permutation cut into cycles, bare and with a subsets or a
    uniform partitions suffix; generators that are all the identity are
    skipped."""
    for _ in range(count):
        degree = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            points = rng.sample(range(1, degree + 1), degree)
            cuts = sorted(rng.sample(range(1, degree),
                                     rng.randint(0, min(3, degree - 1))))
            cycles = [points[a:b] for a, b in zip([0] + cuts, cuts + [None])]
            gens.append("".join("(" + ",".join(map(str, cycle)) + ")"
                                for cycle in cycles if len(cycle) > 1))
        spec = "gens:" + ";".join(gens)
        if not any(gens):
            continue
        # the suffixes are sized by the degree, the largest point moved
        n = parse_group_spec(spec).action.degree
        yield spec
        yield f"{spec}/subsets:{rng.randint(1, n)}"
        s = rng.choice([s for s in range(1, n + 1) if n % s == 0])
        yield f"{spec}/partitions:{n // s}x{s}"


def test_kernel_off_the_lattice_matches_identity_rows():
    # the kernel is the least row count over the keys, or 1 once some key
    # has a regular orbit; and no key has one exactly when there is no base
    rng = random.Random(28)
    seen = set()
    for spec in _small_gens_specs(rng, 60):
        action = parse_group_spec(spec).action
        assert action.kernel == _identity_rows(action), spec
        no_base = tuple_orbit_counts(action)[0] is None
        assert no_base == (action.order > 1 and action.kernel > 1), spec
        seen.add((action.kernel > 1, no_base))
    assert seen == {(False, False), (True, True)}


def test_parse_group_spec_forms():
    parsed = parse_group_spec("sn:6/subsets:2")
    assert parsed.action.degree == 15
    assert parsed.tags == (("sn", 6), ("subsets", 2))

    natural = parse_group_spec("sn:4")
    assert natural.action.degree == 4
    assert natural.tags == (("sn", 4),)

    # an is labelled all +1, and only in auto mode reported unlabelled
    an = parse_group_spec("an:5")
    assert an.action.labels == bytes(60) and an.labelled is False
    assert parse_group_spec("an:5", "sgn").labelled is True
    assert parse_group_spec("an:5/wreath:2").labelled is False
    assert all(parse_group_spec(spec).labelled for spec in (
        "sn:4", "pgl2:5", "gens:(1,2,3)", "gens:!(1,2)/subsets:1"))
    assert parse_group_spec("pgl2:7").action.degree == 8

    partitions = parse_group_spec("sn:6/partitions:3x2")
    assert partitions.action.degree == 15
    assert partitions.tags == (("sn", 6), ("partitions", 3, 2))

    wreath = parse_group_spec("sn:3/wreath:2")
    assert wreath.action.degree == 9
    assert wreath.action.order == 72

    nested = parse_group_spec("sn:3/subsets:1/wreath:2")
    assert nested.action.degree == 9
    assert nested.tags == (("sn", 3), ("subsets", 1), ("wreath", 2))


def test_parse_group_spec_gens():
    parsed = parse_group_spec("gens:(1,2)(3,4);(1,2,3,4,5)")
    assert parsed.action.degree == 5
    assert parsed.action.order == 60  # both generators even: alternating
    signed = parse_group_spec("gens:!(1,2);(1,2,3)")
    assert signed.action.order == 6
    group = signed.base_group
    assert signs(group) == [perm_sign(e) for e in elements(group)]


LABELLED_SPECS = (
    ("sn:5", "auto"), ("an:5", "auto"), ("an:5", "sgn"), ("pgl2:7", "auto"),
    ("pgl2:7", "sgn"), ("gens:(1,2,3,4);(1,2)", "auto"),
    ("gens:!(1,2);(1,2,3)", "auto"), ("gens:!(1,2);(1,2,3)", "sgn"),
    ("sn:6/subsets:2", "auto"), ("an:6/subsets:2", "sgn"),
    ("sn:6/partitions:3x2", "auto"), ("sn:4/partitions:2x2", "auto"),
    ("sn:3/wreath:2", "auto"), ("pgl2:5/wreath:2", "sgn"),
    ("sn:5/subsets:2/wreath:2", "auto"))


@pytest.mark.parametrize("spec, mode", LABELLED_SPECS)
def test_every_spec_kind_has_homomorphism_labels(spec, mode):
    # every constructor's labels pass the one label check
    action = parse_group_spec(spec, labels_mode=mode).action
    has_minus = -1 in signs(action)
    assert action.signed is has_minus
    if has_minus:
        assert 2 * signs(action).count(1) == action.order


def test_signed_rejects_labels_off_a_homomorphism():
    s4 = symmetric_group(4)
    # label bytes: 0 for +1, 1 for -1, and 2 is neither
    for labels in ([0] * 23 + [1], [0] * 12 + [2] * 12, [1] * 24):
        action = InducedAction(s4.table, bytes(labels), s4.point_names)
        with pytest.raises(ConsistencyError):
            action.signed
    assert not InducedAction(s4.table, bytes(24), s4.point_names).signed


def test_gens_auto_labels_are_element_signs():
    # unmarked generators carry their signs, read off their cycles, through
    # the closure
    for spec, order in (("gens:(1,2,3,4,5,6);(1,2)(3,5)", 720),
                        ("gens:(1,2)(3,4);(1,2,3,4,5)", 60),
                        ("gens:(1,2,3,4,5,6,7);(1,2)", 5040),
                        ("gens:(1,2)(3,4,5)", 6)):
        group = parse_group_spec(spec).base_group
        assert group.order == order
        assert isinstance(group.labels, bytes)
        assert signs(group) == [perm_sign(e) for e in elements(group)]


def test_sgn_mode_keeps_the_signs_of_unmarked_gens():
    # closure already labels an unmarked spec by sign, so --labels sgn
    # gives the same labels
    for spec, order in (("gens:(1,2,3,4,5,6);(1,2)", 720),
                        ("gens:(1,2)(3,4);(1,2,3,4,5)", 60),
                        ("gens:(1,2,3,4,5,6,7);(1,2)(3,4);(1,5)", 5040)):
        group = parse_group_spec(spec, labels_mode="sgn").base_group
        assert group.order == order
        auto = parse_group_spec(spec).base_group
        assert group.labels == auto.labels
        assert signs(group) == [perm_sign(e) for e in elements(group)]


def test_sgn_mode_relabels_marked_gens():
    # (1,2)(3,4) marked odd and (1,2) unmarked even are not the signs
    spec = "gens:!(1,2)(3,4);(1,2)"
    auto = parse_group_spec(spec).base_group
    assert signs(auto) == [1, -1, 1, -1]  # 1, (34), (12), (12)(34)
    group = parse_group_spec(spec, labels_mode="sgn").base_group
    assert signs(group) == [perm_sign(e) for e in elements(group)]


def test_sgn_mode_labels_every_base_group_by_sign():
    # every base group is labelled by sign as it is built: sn and an from
    # S_n's construction, pgl2 by its determinant classes, and gens from
    # its generators' cycles
    for spec in ("sn:6", "an:6", "pgl2:7", "gens:(1,2,3,4,5,6);(1,2)",
                 "gens:!(1,2)(3,4);(1,2)", "gens:!(1,2);!(1,2,3,4,5,6,7,8)",
                 "gens:!(6,7);(1,2,3,4,5);(1,2)"):
        group = parse_group_spec(spec, "sgn").base_group
        assert signs(group) == [perm_sign(e) for e in elements(group)], spec


def test_no_builder_returns_unlabelled_rows():
    # a group with no sign or determinant to read is labelled all +1, and
    # every induced action carries its base group's labels
    for action in (closure([parse_cycles("(1,2,3)(4,5)", 5)]),
                   alternating_group(5),
                   act_on_subsets(alternating_group(5), 2),
                   act_on_uniform_partitions(alternating_group(4), 2, 2),
                   product_action_wreath(alternating_group(4), 2)):
        assert isinstance(action.labels, bytes)
        assert action.labels == bytes(action.order)
        assert not action.signed


def test_pgl2_determinant_labels_are_the_signs():
    # the theorem in pgl2's docstring, for every allowed q
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        group = pgl2(q)
        assert signs(group) == [perm_sign(e) for e in elements(group)], q


def test_sgn_mode_labels_an_even_without_counting_cycles(capsys):
    # the rows of an:n are the even rows of S_n, gathered with their
    # labels, so --labels sgn gives +1 for each and never counts a cycle
    for n, order in ((1, 1), (2, 1), (5, 60), (9, 181440)):
        group = parse_group_spec(f"an:{n}", labels_mode="sgn").base_group
        assert group.order == order
        assert group.labels == bytes(order)
        assert all(perm_sign(e) == 1 for e in elements(group))
    # verify reports what the same group and labels give when they come
    # from a closure of 3-cycles labelled by sign
    for n in (5, 6):
        docs = []
        for spec in (f"an:{n}",
                     "gens:" + ";".join(f"(1,2,{i})" for i in range(3, n + 1))):
            assert cli.main(["verify", "--group", spec,
                             "--labels", "sgn"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        an, generated = docs
        assert an["outputs"] == generated["outputs"]
        assert an["warnings"] == generated["warnings"] == [
            "labels are all +1, base-controlling check skipped"]


def test_parse_group_spec_errors():
    for spec in ("zz:3", "sn:x", "sn:4/cubes:2", "sn:4/partitions:22",
                 "gens:", "gens:(1,2", "sn:3/wreath:2/subsets:2",
                 "sn:3/wreath:2/partitions:3x1"):
        with pytest.raises(InputError):
            parse_group_spec(spec)
    with pytest.raises(InputError):
        parse_group_spec("sn:5", labels_mode="weird")
    # text left around the cycles is refused before the degree is read
    for spec in ("gens:(1,2", "gens:1,2", "gens:(1,99999)x"):
        with pytest.raises(InputError, match="^malformed cycle notation: "):
            parse_group_spec(spec)
