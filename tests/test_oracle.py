from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest

from basechar import oracle
from basechar.errors import CapacityError, ConsistencyError, InputError
from basechar.oracle import (MAX_TUPLE_LENGTH, InducedAction, act_on_subsets,
                             act_on_uniform_partitions, alternating_group,
                             closure, compose,
                             distinguishing_number, identity_perm,
                             is_base_controlling, kernel_order,
                             label_homomorphism_spot_check, parse_cycles,
                             parse_group_spec, pgl2, product_action_wreath,
                             symmetric_group, tuple_orbit_counts,
                             with_sign_labels)
from reference_impls import (blind_orbit_data, burnside_orbit_count,
                             has_all_plus_stabilizer, partitions_action_table,
                             perm_sign, subsets_action_table)


def elements(group):
    """The group's rows as tuples of images, in table order."""
    return [tuple(row) for row in group.table.tolist()]


def base_size(action):
    return tuple_orbit_counts(action)[0]


def orbit_rows(action, l_max):
    return tuple_orbit_counts(action, l_max)[1]


def test_perm_primitives():
    assert compose((1, 0, 2), (0, 2, 1)) == (2, 0, 1)  # left factor first
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
    assert sum(1 for x in group.labels if x == 1) == 12
    assert set(elements(group)) == set(permutations(range(4)))


def test_closure_trivial_and_errors():
    assert closure([], degree=5).order == 1
    with pytest.raises(InputError):
        closure([])
    with pytest.raises(InputError):
        closure([(0, 1, 2), (1, 0)])  # mixed degrees
    with pytest.raises(InputError):
        closure([(0, 2, 1)], labels=[-1, 1])  # label count mismatch
    with pytest.raises(InputError):
        closure([(0, 2, 1)], labels=[2])
    with pytest.raises(CapacityError):
        closure([parse_cycles("(1,2)", 6), parse_cycles("(1,2,3,4,5,6)", 6)],
                max_order=50)


def test_closure_inconsistent_labels():
    # (1,2,3) = (1,2)(1,3) is even; labeling it -1 cannot be a homomorphism
    gens = [parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)]
    with pytest.raises(InputError):
        closure(gens, labels=[-1, -1])


def test_symmetric_and_alternating():
    for n in range(1, 9):
        sn = symmetric_group(n)
        assert sn.table.dtype == np.int32
        assert elements(sn) == list(permutations(range(n)))
        assert sn.labels.dtype == np.int8
        assert sn.labels.tolist() == [perm_sign(e) for e in elements(sn)]
    a4 = alternating_group(4)
    assert a4.order == 12
    assert a4.labels is None
    assert all(perm_sign(e) == 1 for e in elements(a4))
    with pytest.raises(CapacityError):
        symmetric_group(11)  # 11! is past the order bound
    with pytest.raises(InputError):
        symmetric_group(0)


def test_vectorised_signs_match_perm_sign():
    gens = [parse_cycles("(1,2,3,4,5,6)", 6), parse_cycles("(1,2)(3,5)", 6)]
    for group in (with_sign_labels(alternating_group(5)),
                  with_sign_labels(pgl2(7)), with_sign_labels(closure(gens))):
        assert group.labels.dtype == np.int8
        assert group.labels.tolist() == [perm_sign(e) for e in elements(group)]


def test_rows_in_strict_lexicographic_order():
    gens = [parse_cycles("(1,3)(2,4)", 4), parse_cycles("(1,2,3)", 4)]
    for group in (closure(gens), closure([], degree=3), symmetric_group(4),
                  alternating_group(5), pgl2(5), pgl2(7),
                  with_sign_labels(closure(gens))):
        rows = elements(group)
        assert all(a < b for a, b in zip(rows, rows[1:]))


def test_labels_must_match_rows():
    s3 = symmetric_group(3)
    with pytest.raises(InputError):
        InducedAction(3, s3.table, s3.labels[:5], s3.point_names, "short")
    with pytest.raises(InputError):
        replace(s3, table=s3.table[1:])


def test_index_two_kernel_of_sign_labels():
    for group in (symmetric_group(4), symmetric_group(5), pgl2(5)):
        assert sum(1 for x in group.labels if x == 1) * 2 == group.order


def test_pgl2_examples():
    g7 = pgl2(7)
    assert g7.degree == 8
    assert g7.order == 336
    assert sum(1 for x in g7.labels if x == 1) == 168  # PSL_2(7)
    ident_index = elements(g7).index(identity_perm(8))
    assert g7.labels[ident_index] == 1
    g3 = pgl2(3)
    assert g3.degree == 4
    assert g3.order == 24
    assert set(elements(g3)) == set(elements(symmetric_group(4)))
    label_homomorphism_spot_check(g7, samples=100, seed=1)
    for q in (2, 9, 37):
        with pytest.raises(InputError):
            pgl2(q)


def test_pgl2_equals_generated_closure():
    # x -> x+1 and x -> -1/x have determinant 1, x -> w*x determinant w,
    # a non-square; together they generate PGL_2(q).
    for q in (3, 5, 7, 11, 13):
        infinity = q
        omega = next(w for w in range(2, q)
                     if all(x * x % q != w for x in range(q)))
        shift = tuple((x + 1) % q for x in range(q)) + (infinity,)
        scale = tuple(omega * x % q for x in range(q)) + (infinity,)
        flip = (infinity,) + tuple(-pow(x, q - 2, q) % q
                                   for x in range(1, q)) + (0,)
        generated = closure([shift, scale, flip], labels=[1, -1, 1])
        group = pgl2(q)
        assert group.order == q ** 3 - q
        assert np.array_equal(group.table, generated.table)
        assert np.array_equal(group.labels, generated.labels)


def test_spot_check_catches_tampered_labels():
    s4 = symmetric_group(4)
    labels = s4.labels.copy()
    labels[5] = -labels[5]
    broken = replace(s4, labels=labels)
    with pytest.raises(ConsistencyError):
        label_homomorphism_spot_check(broken, samples=200, seed=0)
    with pytest.raises(InputError):
        label_homomorphism_spot_check(alternating_group(4))


def test_spot_check_catches_missing_products():
    s4 = symmetric_group(4)
    # drop an inner row, and the last row (a product past every row)
    for dropped in (5, 23):
        keep = np.arange(24) != dropped
        holed = replace(s4, table=s4.table[keep], labels=s4.labels[keep])
        with pytest.raises(ConsistencyError, match="not a row"):
            label_homomorphism_spot_check(holed, samples=200, seed=0)


def test_act_on_subsets():
    action = act_on_subsets(symmetric_group(4), 2)
    assert action.degree == 6
    assert action.order == 24
    assert action.point_names[0] == "{1,2}"
    assert kernel_order(action) == 1
    with pytest.raises(InputError):
        act_on_subsets(symmetric_group(4), 5)


def test_act_on_uniform_partitions():
    action = act_on_uniform_partitions(symmetric_group(6), 3, 2)
    assert action.degree == 15
    assert "12|34|56" in action.point_names
    small = act_on_uniform_partitions(symmetric_group(4), 2, 2)
    assert small.degree == 3
    assert small.point_names == ("12|34", "13|24", "14|23")
    swap = small.table[elements(symmetric_group(4)).index((1, 0, 2, 3))]
    assert swap.tolist() == [0, 2, 1]  # (1 2) swaps 13|24 and 14|23
    assert kernel_order(small) == 4  # the double transpositions act trivially
    with pytest.raises(InputError):
        act_on_uniform_partitions(symmetric_group(6), 4, 2)


def _same_action(action, expected):
    table, names = expected
    assert action.table.dtype == table.dtype == np.int32
    assert np.array_equal(action.table, table)
    assert action.point_names == names


def test_induced_tables_match_plain_construction(monkeypatch):
    for n in range(1, 7):
        group = symmetric_group(n)
        rows = group.table.tolist()
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
    expected = subsets_action_table(cyclic.table.tolist(), 63, 2)
    _same_action(act_on_subsets(cyclic, 2), expected)
    # the same tables from gathers cut to one or a few rows at a time
    monkeypatch.setattr(oracle, "MAX_GATHER_CELLS", 50)
    _same_action(act_on_subsets(cyclic, 2), expected)
    s6 = symmetric_group(6)
    _same_action(act_on_uniform_partitions(s6, 3, 2),
                 partitions_action_table(s6.table.tolist(), 6, 3, 2))
    _same_action(act_on_subsets(s6, 2),
                 subsets_action_table(s6.table.tolist(), 6, 2))


def test_wreath_product_action():
    wreath = product_action_wreath(symmetric_group(3), 2)
    assert wreath.degree == 9
    assert wreath.order == 72
    assert wreath.labels is not None
    assert int((wreath.labels == 1).sum()) * 2 == wreath.order
    assert kernel_order(wreath) == 1
    # explicit trivial top group: just the direct square
    square = product_action_wreath(symmetric_group(3), 2,
                                   top_generators=[identity_perm(2)])
    assert square.order == 36
    with pytest.raises(InputError):
        product_action_wreath(symmetric_group(3), 0)


def test_wreath_rows_are_permutations():
    wreath = product_action_wreath(symmetric_group(3), 2)
    for row in wreath.table:
        assert sorted(row.tolist()) == list(range(9))
    assert len({tuple(row.tolist()) for row in wreath.table}) == 72


def test_wreath_rows_match_definition():
    # Row b * |top| + s is (g_1, g_2; sigma) with (g_1, g_2) the b-th pair
    # of S_3 rows in product order and sigma the s-th top element; it maps
    # point (x_1, x_2) to the tuple whose coordinate i is the image of
    # x_{sigma^-1(i)} under g_{sigma^-1(i)}, and is labeled sgn(g_1)sgn(g_2).
    s3 = symmetric_group(3)
    g = elements(s3)
    points = list(product(range(3), repeat=2))
    for top, top_generators in ((list(permutations(range(2))), None),
                                ([(0, 1)], [identity_perm(2)])):
        wreath = product_action_wreath(s3, 2, top_generators=top_generators)
        rows = iter(zip(wreath.table.tolist(), wreath.labels.tolist()))
        for bottom in product(range(6), repeat=2):
            for sigma in top:
                row, label = next(rows)
                src = [sigma.index(i) for i in range(2)]
                for x, image in zip(points, row):
                    assert points[image] == tuple(
                        g[bottom[j]][x[j]] for j in src)
                assert label == perm_sign(g[bottom[0]]) * perm_sign(
                    g[bottom[1]])
        assert next(rows, None) is None


def test_capacity_errors_on_induced_actions():
    with pytest.raises(CapacityError):
        product_action_wreath(symmetric_group(5), 3)  # order 120^3 * 6
    with pytest.raises(CapacityError):
        product_action_wreath(closure([], degree=10), 5)  # degree 10^5
    with pytest.raises(CapacityError):
        act_on_subsets(symmetric_group(10), 2)  # order 10! past the bound


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
    table = np.empty_like(action.table)
    table[:, relabel] = relabel[action.table]
    shuffled = InducedAction(action.degree, table, action.labels,
                             tuple(action.point_names[i]
                                   for i in np.argsort(relabel)),
                             action.description)
    assert base_size(shuffled) == base_size(action)


def test_orbit_counts_examples():
    s3 = symmetric_group(3)
    assert [(o, o_k) for _, o, o_k, _ in orbit_rows(s3, 2)] \
        == [(1, 1), (1, 1), (2, 3)]
    a4 = alternating_group(4)
    assert orbit_rows(a4, 1) == [(0, 1, None, 0), (1, 1, None, 0)]
    # o_K is read off the stabilizers only for an index-2 label kernel
    s4 = symmetric_group(4)
    lopsided = replace(s4, labels=np.array([1] * 23 + [-1], dtype=np.int8))
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
        for l, o, o_k, regular in orbit_rows(action, 3):
            data = blind_orbit_data(action.table, l)
            assert o == len(data)
            assert regular == sum(1 for _, stab in data if stab == 1)
            if action.labels is None:
                assert o_k is None
            else:
                kernel = action.table[np.asarray(action.labels) == 1]
                assert o_k == len(blind_orbit_data(kernel, l))


def test_merged_walk_matches_burnside_at_depth():
    # Past l = 3 many tuple orbits share one stabilizer, so this checks the
    # merge by fixed-point set against |G|^-1 sum fix(g)^l, for the group
    # and for its +1 rows. pgl2:7 is labelled by determinant class, the
    # wreath squares by the product of coordinate signs, an:5/subsets:2 not
    # at all, and the 5-cycle's sign labels are all +1.
    specs = (("sn:9", 10), ("pgl2:7", 12), ("an:5/subsets:2", 10),
             ("sn:4/wreath:2", 8), ("sn:3/wreath:2", 12),
             ("sn:6/partitions:3x2", 10), ("gens:(1,2,3,4,5)", 12))
    for spec, l_max in specs:
        action = parse_group_spec(spec).action
        kernel = (None if action.labels is None
                  else action.table[action.labels == 1])
        for l, o, o_k, _ in orbit_rows(action, l_max):
            assert o == burnside_orbit_count(action.table, l), (spec, l)
            expected = None if kernel is None else \
                burnside_orbit_count(kernel, l)
            assert o_k == expected, (spec, l)


def test_is_base_controlling_subsets():
    for n, k in ((5, 1), (5, 2), (6, 2), (7, 2)):
        action = act_on_subsets(symmetric_group(n), k)
        assert is_base_controlling(action).controlling
    big = act_on_subsets(symmetric_group(7), 3)
    assert is_base_controlling(big, max_degree=40).controlling
    # degree 35: the lattice gives the verdict past the subset search bound
    assert is_base_controlling(big).controlling
    # degree 27 and not controlling: naming a counterexample is refused
    cube = parse_group_spec("sn:3/wreath:3").action
    with pytest.raises(CapacityError, match="not controlling.*refused"):
        is_base_controlling(cube)


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
        violated = has_all_plus_stabilizer(action.table, action.labels)
        assert verdict.controlling == (not violated), spec
        verdicts.append(verdict.controlling)
        if not verdict.controlling:
            chosen = [action.point_names.index(name)
                      for name in verdict.counterexample]
            stab = (action.table[:, chosen] == chosen).all(axis=1)
            assert verdict.stabilizer_order == stab.sum() > 1, spec
            assert (action.labels[stab] == 1).all(), spec
    assert True in verdicts and False in verdicts


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
    all_plus = InducedAction(4, s4.table,
                             np.ones(24, dtype=np.int8),
                             tuple("1234"), "all-plus labels")
    with pytest.raises(InputError):
        is_base_controlling(all_plus)
    with pytest.raises(InputError):
        is_base_controlling(alternating_group(4))
    lopsided = InducedAction(4, s4.table,
                             np.array([1] * 23 + [-1], dtype=np.int8),
                             tuple("1234"), "non-homomorphism labels")
    with pytest.raises(InputError):
        is_base_controlling(lopsided)


def test_distinguishing_numbers():
    for r in (2, 3, 4):
        assert distinguishing_number(symmetric_group(r)) == r
    assert distinguishing_number(closure([], degree=5)) == 1
    swap = closure([parse_cycles("(1,2)", 2)])
    assert distinguishing_number(swap) == 2
    assert distinguishing_number(alternating_group(4)) == 3
    with pytest.raises(CapacityError):
        distinguishing_number(closure([], degree=13))


def test_kernel_order():
    assert kernel_order(symmetric_group(3)) == 1
    assert kernel_order(
        act_on_uniform_partitions(symmetric_group(4), 2, 2)) == 4


def test_parse_group_spec_forms():
    parsed = parse_group_spec("sn:6/subsets:2")
    assert parsed.action.degree == 15
    assert parsed.base_kind == "sn"
    assert parsed.base_param == 6
    assert parsed.action_tags == (("subsets", 2),)

    natural = parse_group_spec("sn:4")
    assert natural.action.degree == 4
    assert natural.action_tags == ()

    assert parse_group_spec("an:5").action.labels is None
    assert parse_group_spec("pgl2:7").action.degree == 8

    partitions = parse_group_spec("sn:6/partitions:3x2")
    assert partitions.action.degree == 15
    assert partitions.action_tags == (("partitions", 3, 2),)

    wreath = parse_group_spec("sn:3/wreath:2")
    assert wreath.action.degree == 9
    assert wreath.action.order == 72

    nested = parse_group_spec("sn:3/subsets:1/wreath:2")
    assert nested.action.degree == 9
    assert nested.action_tags == (("subsets", 1), ("wreath", 2))


def test_parse_group_spec_gens():
    parsed = parse_group_spec("gens:(1,2)(3,4);(1,2,3,4,5)")
    assert parsed.action.degree == 5
    assert parsed.action.order == 60  # both generators even: alternating
    signed = parse_group_spec("gens:!(1,2);(1,2,3)")
    assert signed.action.order == 6
    group = signed.base_group
    assert group.labels.tolist() == [perm_sign(e) for e in elements(group)]


def test_parse_group_spec_errors():
    for spec in ("zz:3", "sn:x", "sn:4/cubes:2", "sn:4/partitions:22",
                 "gens:", "gens:(1,2", "sn:3/wreath:2/subsets:2",
                 "sn:3/wreath:2/partitions:3x1"):
        with pytest.raises(InputError):
            parse_group_spec(spec)
    with pytest.raises(InputError):
        parse_group_spec("sn:5", labels_mode="weird")
