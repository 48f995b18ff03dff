import ast
import json
from math import factorial
import os
from pathlib import Path
import random
import subprocess
import sys

import pytest

from basechar import basecount, cli, oracle
from basechar.errors import CapacityError
from reference_impls import (as_arrays, burnside_orbit_count,
                             least_unprintable_l)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    document = json.loads(captured.out) if code == 0 else None
    return code, document, captured.err


def test_basesize_natural(capsys):
    code, doc, _ = run_cli(capsys, "basesize", "--n", "6", "--k", "1")
    assert code == 0
    assert doc["command"] == "basesize"
    assert doc["inputs"] == {"n": "6", "k": "1", "max_l": None}
    assert doc["outputs"]["base_size"] == "5"
    assert doc["method"] == "formula"
    assert doc["warnings"] == []
    assert isinstance(doc["timing_seconds"], float)
    assert "trace" not in doc["outputs"]


def test_basesize_trace(capsys):
    code, doc, _ = run_cli(capsys, "basesize", "--n", "5", "--k", "2",
                           "--trace")
    assert code == 0
    trace = doc["outputs"]["trace"]
    assert trace == [["1", "0"], ["2", "0"], ["3", "4"]]
    assert all(value == "0" for _, value in trace[:-1])
    assert int(trace[-1][1]) > 0


def test_basesize_invalid_input(capsys):
    code, doc, err = run_cli(capsys, "basesize", "--n", "4", "--k", "2")
    assert code == 2
    assert doc is None
    assert "error:" in err


def test_basesize_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "basesize", "--n", "6", "--k", "2",
                           "--max-l", "2")
    assert code == 3
    assert "capacity" in err


def test_orbits_values(capsys):
    code, doc, _ = run_cli(capsys, "orbits", "--n", "3", "--k", "1",
                           "--l", "2")
    assert code == 0
    assert doc["outputs"] == {"regular": "1", "o": "2", "o_K": "3"}

    code, doc, _ = run_cli(capsys, "orbits", "--n", "4", "--k", "1",
                           "--l", "1")
    assert doc["outputs"]["regular"] == "0"
    assert doc["outputs"]["o"] == "1"

    code, doc, _ = run_cli(capsys, "orbits", "--n", "15", "--k", "5",
                           "--l", "1")
    assert doc["outputs"]["regular"] == "0"


def test_orbits_negative_l(capsys):
    code, _, _ = run_cli(capsys, "orbits", "--n", "5", "--k", "2",
                         "--l", "-1")
    assert code == 2


def test_integers_round_trip_as_decimal_strings(capsys):
    code, doc, _ = run_cli(capsys, "orbits", "--n", "25", "--k", "12",
                           "--l", "8")
    assert code == 0
    for key in ("regular", "o", "o_K"):
        value = doc["outputs"][key]
        assert isinstance(value, str)
        assert str(int(value)) == value
    assert int(doc["outputs"]["o"]) > 2 ** 64  # needs the string encoding


def test_wreath_command(capsys):
    code, doc, _ = run_cli(capsys, "wreath", "--n", "3", "--k", "1",
                           "--r", "2")
    assert code == 0
    assert doc["outputs"]["base_size"] == "3"
    assert doc["outputs"]["distinguishing_number"] == "2"

    code, doc, _ = run_cli(capsys, "wreath", "--n", "5", "--k", "2",
                           "--dist", "1")
    base, base_doc, _ = run_cli(capsys, "basesize", "--n", "5", "--k", "2")
    assert doc["outputs"]["base_size"] == base_doc["outputs"]["base_size"]

    # the answers 3 and 4 lie past C(2, 1) = 2 steps
    for flag, threshold, base in (("--r", "3", "3"), ("--dist", "5", "4")):
        code, doc, _ = run_cli(capsys, "wreath", "--n", "2", "--k", "1",
                               flag, threshold)
        assert code == 0 and doc["outputs"]["base_size"] == base


def test_wreath_flags_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        cli.main(["wreath", "--n", "3", "--k", "1", "--r", "2",
                  "--dist", "2"])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["wreath", "--n", "3", "--k", "1"])
    capsys.readouterr()


def test_bounds_command(capsys):
    code, doc, _ = run_cli(capsys, "bounds", "--m", "5", "--k", "1",
                           "--r", "2")
    assert code == 0
    assert doc["outputs"] == {"lower": "3", "upper": "5"}
    code, _, _ = run_cli(capsys, "bounds", "--m", "4", "--k", "2", "--r", "2")
    assert code == 2


def test_partitions_action_command(capsys):
    code, doc, _ = run_cli(capsys, "partitions-action", "--n", "6",
                           "--r", "3", "--s", "2")
    assert code == 0
    out = doc["outputs"]
    assert out["min_l"] == "4"
    assert out["trace"] == [["1", "0"], ["2", "0"], ["3", "0"], ["4", "28"]]
    assert out["domain_size"] == "15"
    assert out["known_base_size"] is None
    assert len(out["character_values"]) == 11  # one entry per class of S_6
    assert ["1+1+1+1+1+1", "15"] in out["character_values"]
    assert doc["warnings"] and "base-controlling" in doc["warnings"][0]


def test_partitions_action_trivial_group(capsys):
    code, doc, _ = run_cli(capsys, "partitions-action", "--n", "1",
                           "--r", "1", "--s", "1")
    assert code == 0
    assert doc["outputs"]["min_l"] == "0"
    assert doc["outputs"]["trace"] == []
    assert doc["warnings"] == []


def test_document_layout(capsys):
    # stdout is the document indented by two spaces, then one newline.
    assert cli.main(["partitions-action", "--n", "8", "--r", "4",
                     "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


# One run per command, with the order its inputs are echoed in: the order
# of its flags in the parser.
LAYOUT_RUNS = (
    (("basesize", "--n", "6", "--k", "2", "--trace"), ("n", "k", "max_l")),
    (("orbits", "--n", "6", "--k", "2", "--l", "2"), ("n", "k", "l")),
    (("wreath", "--n", "6", "--k", "2", "--r", "2"), ("n", "k", "r", "dist")),
    (("bounds", "--m", "6", "--k", "2", "--r", "2"), ("m", "k", "r")),
    (("partitions-action", "--n", "6", "--r", "3", "--s", "2"),
     ("n", "r", "s", "l_max")),
    (("verify", "--group", "sn:3"), ("group", "labels", "l_max", "seed")),
)


@pytest.mark.parametrize("argv, inputs", LAYOUT_RUNS,
                         ids=[argv[0] for argv, _ in LAYOUT_RUNS])
def test_document_key_order(capsys, argv, inputs):
    # The goldens compare parsed dicts, so only this pins the key order.
    assert cli.main(list(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["command", "inputs", "outputs", "method",
                         "warnings", "timing_seconds"]
    assert doc["command"] == argv[0]
    assert list(doc["inputs"]) == list(inputs)
    assert doc["method"] == ("oracle+formula" if argv[0] == "verify"
                             else "formula")


def test_partitions_action_bad_shape(capsys):
    code, _, _ = run_cli(capsys, "partitions-action", "--n", "6",
                         "--r", "2", "--s", "2")
    assert code == 2


def test_partitions_action_capacity(capsys):
    code, _, err = run_cli(capsys, "partitions-action", "--n", "38",
                           "--r", "19", "--s", "2")
    assert code == 3
    assert "capacity" in err


def test_search_limits_below_one(capsys):
    commands = (
        ("basesize", "--n", "6", "--k", "2", "--max-l"),
        ("partitions-action", "--n", "6", "--r", "3", "--s", "2", "--l-max"),
        ("verify", "--group", "sn:3", "--l-max"),
    )
    for argv in commands:
        for value in ("0", "-1"):
            code = cli.main([*argv, value])
            captured = capsys.readouterr()
            assert code == 2, (argv, value)
            assert captured.out == ""
            assert "Traceback" not in captured.err


def test_verify_pgl27(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "pgl2:7")
    assert code == 0
    out = doc["outputs"]
    assert out["degree"] == "8"
    assert out["order"] == "336"
    assert out["kernel_order"] == "1"
    assert out["faithful"] is True
    assert out["base_size"] == "3"
    assert out["base_controlling"] == {"controlling": True}
    assert out["regular_orbits"][:3] == [["1", "0"], ["2", "0"], ["3", "1"]]
    assert out["formula"] is None
    for l, o, o_k in out["orbit_counts"]:
        assert int(o) <= int(o_k) <= 2 * int(o)


def test_verify_subsets_formula_agreement(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:6/subsets:2",
                           "--labels", "sgn")
    assert code == 0
    out = doc["outputs"]
    assert out["base_controlling"] == {"controlling": True}
    assert out["formula"]["relation"] == "equal"
    assert out["formula"]["base_size"] == out["base_size"]


NOT_FAITHFUL = "action is not faithful, no base exists"
FORMULA_COMPARISONS = (
    ("sn:5", {"base_size": "4", "relation": "equal"}, []),
    ("sn:7/subsets:2", {"base_size": "4", "relation": "equal"}, []),
    ("sn:6/partitions:3x2", {"base_size": "4", "relation": "equal"},
     [basecount.PARTITIONS_CAVEAT]),
    ("sn:5/subsets:2/wreath:2", {"base_size": "3", "relation": "equal"}, []),
    ("sn:3/wreath:2", {"base_size": "3", "relation": "equal"}, []),
    ("sn:4/partitions:2x2",
     {"base_size": None, "relation": "no oracle base size"},
     [NOT_FAITHFUL, "the " + NOT_FAITHFUL]),
    # S_1 is trivial: base size 0 on both sides
    ("sn:1/partitions:1x1", {"base_size": "0", "relation": "equal"},
     ["labels are all +1, base-controlling check skipped"]),
    ("pgl2:7", None, []),
    # S_5 again, but only the sn tag reaches the formula lane
    ("gens:(1,2,3,4,5);(1,2)", None, []),
    # base sizes past C(2, 1) = 2, within the bound log2 2! + log2 D
    ("sn:2/wreath:3", {"base_size": "3", "relation": "equal"}, []),
    ("sn:2/wreath:5", {"base_size": "4", "relation": "equal"}, []),
)


@pytest.mark.parametrize("spec, formula, warnings", FORMULA_COMPARISONS)
def test_verify_formula_comparison(capsys, spec, formula, warnings):
    code, doc, _ = run_cli(capsys, "verify", "--group", spec)
    assert code == 0
    assert doc["outputs"]["formula"] == formula
    assert doc["warnings"] == warnings


def test_verify_sn_sign_labels_not_recomputed(capsys):
    # S_n is built with its signs, so --labels sgn leaves them as they are
    _, auto, _ = run_cli(capsys, "verify", "--group", "sn:9")
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:9",
                           "--labels", "sgn")
    assert code == 0
    assert doc["outputs"] == auto["outputs"]
    parsed = oracle.parse_group_spec("sn:9", labels_mode="sgn")
    assert parsed.action.labels == oracle.symmetric_group(9).labels


def test_verify_sgn_mode_reads_no_marks(capsys):
    # under --labels sgn a ! mark is not read, so a mark that is no
    # homomorphism is refused only under auto
    code, doc, _ = run_cli(capsys, "verify", "--group", "gens:!(1,2,3)",
                           "--labels", "sgn")
    assert code == 0
    _, unmarked, _ = run_cli(capsys, "verify", "--group", "gens:(1,2,3)")
    assert doc["outputs"] == unmarked["outputs"]
    assert doc["outputs"]["order"] == "3"
    assert doc["warnings"] == [
        "labels are all +1, base-controlling check skipped"]
    assert run_cli(capsys, "verify", "--group", "gens:!(1,2,3)") == (
        2, None, "error: generator labels do not define a homomorphism\n")


def test_verify_formula_comparison_skipped(capsys):
    # S_4 on 2-subsets violates the formula precondition n > 2k; the oracle
    # still runs and the comparison is skipped with a warning
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:4/subsets:2")
    assert code == 0
    out = doc["outputs"]
    assert out["formula"] is None
    assert any("formula comparison skipped" in w for w in doc["warnings"])
    action = oracle.act_on_subsets(oracle.symmetric_group(4), 2)
    assert out["base_size"] == str(oracle.tuple_orbit_counts(action)[0])


def test_verify_wreath_spec(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:3/wreath:2")
    assert code == 0
    out = doc["outputs"]
    assert out["degree"] == "9"
    assert out["order"] == "72"
    assert out["base_size"] == "3"
    assert out["formula"] == {"base_size": "3", "relation": "equal"}
    assert out["base_controlling"]["controlling"] is False


def test_verify_partitions_spec(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:6/partitions:3x2",
                           "--labels", "sgn")
    assert code == 0
    out = doc["outputs"]
    assert out["base_size"] == "4"
    assert out["base_controlling"] == {"controlling": True}
    assert out["formula"] == {"base_size": "4", "relation": "equal"}
    assert any("base-controlling" in w for w in doc["warnings"])


def test_verify_unlabeled_group(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "an:5")
    assert code == 0
    out = doc["outputs"]
    assert out["base_size"] == "3"
    assert out["base_controlling"] is None
    assert "orbit_counts" not in out
    assert any("no labels" in w for w in doc["warnings"])
    # an stays unlabelled in auto mode through every suffix and a seed
    for argv in (("an:5", "--seed", "3"), ("an:5/subsets:2",),
                 ("an:4/wreath:2",)):
        code, doc, _ = run_cli(capsys, "verify", "--group", *argv)
        assert code == 0, argv
        assert "orbit_counts" not in doc["outputs"], argv
        assert "label_spot_check" not in doc["outputs"], argv
        assert any("no labels" in w for w in doc["warnings"]), argv
    # under --labels sgn its labels are all +1, so o_K is o
    code, doc, _ = run_cli(capsys, "verify", "--group", "an:5",
                           "--labels", "sgn", "--seed", "3")
    assert code == 0
    out = doc["outputs"]
    assert all(o == o_k for _, o, o_k in out["orbit_counts"])
    assert [l for l, _, _ in out["orbit_counts"]] == ["1", "2", "3", "4"]
    assert out["label_spot_check"] == "50 random pairs multiplicative"
    assert doc["warnings"] == [
        "labels are all +1, base-controlling check skipped"]


def test_verify_all_plus_one_labels(capsys):
    # Labels that are all +1 cannot be base-controlling; the oracle still
    # reports the base size and regular orbits.
    for spec, base in (("gens:(1,2,3)", "1"), ("sn:1", "0")):
        code, doc, err = run_cli(capsys, "verify", "--group", spec)
        assert code == 0, (spec, err)
        out = doc["outputs"]
        assert out["base_size"] == base
        assert out["base_controlling"] is None
        assert [l for l, _ in out["regular_orbits"]][0] == "1"
        assert "labels are all +1, base-controlling check skipped" \
            in doc["warnings"]


def test_verify_non_faithful(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:4/partitions:2x2")
    assert code == 0
    out = doc["outputs"]
    assert out["faithful"] is False
    assert out["kernel_order"] == "4"
    assert out["base_size"] is None
    assert any("not faithful" in w for w in doc["warnings"])


def test_verify_seeded_spot_check(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "pgl2:7",
                           "--seed", "7")
    assert code == 0
    assert "50 random pairs" in doc["outputs"]["label_spot_check"]
    code, doc, _ = run_cli(capsys, "verify", "--group", "pgl2:7")
    assert "label_spot_check" not in doc["outputs"]


def test_verify_l_max_override(capsys):
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:4", "--l-max", "2")
    assert code == 0
    assert [l for l, _ in doc["outputs"]["regular_orbits"]] == ["1", "2"]
    # the walk goes on past the limit to the base level
    assert doc["outputs"]["base_size"] == "3"


def test_verify_bad_spec(capsys):
    code, _, _ = run_cli(capsys, "verify", "--group", "zz:9")
    assert code == 2


def test_verify_capacity(capsys):
    code, _, _ = run_cli(capsys, "verify", "--group", "sn:11")
    assert code == 3


def test_documents_deterministic_modulo_timing(capsys):
    docs = []
    for _ in range(2):
        _, doc, _ = run_cli(capsys, "verify", "--group", "sn:5/subsets:2",
                            "--labels", "sgn", "--seed", "3")
        del doc["timing_seconds"]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_verify_l_max_above_cap(capsys, monkeypatch):
    # Rejected before the group is built, with the bound in the message.
    def no_build(*args, **kwargs):
        raise AssertionError("group built")

    monkeypatch.setattr(oracle, "parse_group_spec", no_build)
    code, doc, err = run_cli(capsys, "verify", "--group", "sn:3",
                             "--l-max", "3000")
    assert code == 3
    assert doc is None
    assert str(oracle.MAX_TUPLE_LENGTH) in err


def test_verify_walks_each_row_set_once(capsys, monkeypatch):
    # One walk gives the base size, o, o_K and the regular orbits, labeled
    # or not; it reads l up to base size + 1 by default. The walk and the
    # base-controlling verdict share one stabilizer lattice, which expands
    # each key once.
    original = oracle.tuple_orbit_counts
    original_lattice = oracle._stabilizer_lattice
    calls = []
    lattices = []

    def counted(action, l_max=None):
        calls.append(l_max)
        return original(action, l_max)

    def counted_lattice(action):
        lattices.append(action)
        return original_lattice(action)

    monkeypatch.setattr(oracle, "tuple_orbit_counts", counted)
    monkeypatch.setattr(oracle, "_stabilizer_lattice", counted_lattice)
    for spec in ("pgl2:7", "sn:5/subsets:2", "an:5",
                 "sn:4/partitions:2x2"):
        calls.clear()
        lattices.clear()
        code, doc, _ = run_cli(capsys, "verify", "--group", spec)
        assert code == 0
        assert calls == [None], (spec, calls)
        assert len(lattices) == 1, spec
        base = doc["outputs"]["base_size"]
        l_max = 2 if base is None else int(base) + 1
        assert len(doc["outputs"]["regular_orbits"]) == l_max, spec


def test_verify_deep_l_max_without_base(capsys):
    # No tuple has a trivial stabilizer in a non-faithful action, so every
    # level up to --l-max is walked; the stabilizers stop changing after a
    # few levels, and each count is checked against Burnside's lemma.
    code, doc, _ = run_cli(capsys, "verify", "--group",
                           "sn:4/partitions:2x2", "--l-max", "64")
    assert code == 0
    table, labels = as_arrays(
        oracle.parse_group_spec("sn:4/partitions:2x2").action)
    kernel = table[labels == 1]
    rows = doc["outputs"]["orbit_counts"]
    assert [int(l) for l, _, _ in rows] == list(range(1, 65))
    for l, o, o_k in rows:
        assert int(o) == burnside_orbit_count(table, int(l))
        assert int(o_k) == burnside_orbit_count(kernel, int(l))


def test_verify_reads_the_verdict_past_the_search_bound(capsys):
    # The verdict and the search that names a counterexample have no
    # degree bound: degree 56 and controlling, then degree 100 and not.
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:8/subsets:3")
    assert code == 0
    assert doc["outputs"]["degree"] == "56"
    assert doc["outputs"]["base_controlling"] == {"controlling": True}
    assert doc["outputs"]["base_size"] == "4"
    assert doc["outputs"]["formula"] == {"base_size": "4",
                                         "relation": "equal"}
    code, doc, _ = run_cli(capsys, "verify", "--group",
                           "sn:5/subsets:2/wreath:2")
    assert code == 0
    assert doc["outputs"]["degree"] == "100"
    assert doc["outputs"]["base_controlling"] == {
        "controlling": False,
        "counterexample": ["({1,2},{1,2})", "({1,3},{1,3})", "({1,4},{1,4})"],
        "stabilizer_order": "2",
        "label_image": ["1"]}


def test_wreath_order_checked_before_listing_top_group(capsys, monkeypatch):
    # S_10 alone passes the order bound, so the 10! permutations of the
    # top group must never be listed.
    original = oracle.permutations

    def no_top_listing(items, *args):
        items = list(items)
        if len(items) == 10:
            raise AssertionError("top group listed")
        return original(items, *args)

    monkeypatch.setattr(oracle, "permutations", no_top_listing)
    code, doc, err = run_cli(capsys, "verify", "--group", "sn:1/wreath:10")
    assert code == 3
    assert doc is None
    assert str(oracle.MAX_CLOSURE_ORDER) in err


def test_gens_degree_checked_before_parsing(capsys, monkeypatch):
    # The degree is the largest point named, so it is bounded before any
    # row of that length is built.
    def no_rows(*args):
        raise AssertionError("generator rows built")

    monkeypatch.setattr(oracle, "_cycle_rows", no_rows)
    code, doc, err = run_cli(capsys, "verify", "--group", "gens:(1,2000000)")
    assert code == 3
    assert doc is None
    assert str(oracle.MAX_INDUCED_DEGREE) in err


def test_suffixes_sized_before_any_build(capsys, monkeypatch):
    # A wreath of an induced action has order (order)^r * r! and degree
    # (degree)^r, known from the base group alone, so it is refused with
    # the message of the wreath builder before any induced row exists.
    def no_rows(*args):
        raise AssertionError("induced action built")

    monkeypatch.setattr(oracle, "_induced", no_rows)
    for spec, order in (("sn:9/subsets:2/wreath:6",
                         factorial(9) ** 6 * factorial(6)),
                        ("sn:8/partitions:4x2/wreath:3",
                         factorial(8) ** 3 * factorial(3)),
                        ("pgl2:31/subsets:2/wreath:2",
                         (32 * 31 * 30) ** 2 * factorial(2))):
        assert run_cli(capsys, "verify", "--group", spec) == (
            3, None, f"capacity error: wreath order {order} exceeds "
                     f"{oracle.MAX_CLOSURE_ORDER}\n")
    # errors keep the order of the suffixes that raise them
    for spec, err in (
            ("sn:4/wreath:2/subsets:2", "subsets action must come first"),
            ("sn:4/subsets:5/wreath:0", "k out of range"),
            ("sn:4/wreath:0/subsets:5", "r must be positive"),
            ("sn:4/subsets:2/bogus", "unknown action suffix: 'bogus'")):
        assert run_cli(capsys, "verify", "--group", spec) == (
            2, None, f"error: {err}\n")


HOSTILE_INPUTS = (
    (("verify", "--group", "gens:"), 2),
    (("verify", "--group", "gens:!()"), 2),
    # text outside the cycles is bad input, whatever degree the cycles name
    (("verify", "--group", "gens:(1,2"), 2),
    (("verify", "--group", "gens:1,2"), 2),
    (("verify", "--group", "gens:(1,99999)x"), 2),
    (("verify", "--group", "sn:0"), 2),
    (("verify", "--group", "an:1"), 0),
    (("verify", "--group", "pgl2:1"), 2),
    (("verify", "--group", "sn:3/wreath:0"), 2),
    (("verify", "--group", "sn:3/partitions:3x1"), 0),
    (("verify", "--group", "sn:4/subsets:0"), 2),
    (("verify", "--group", "sn:4/partitions:2x2"), 0),
    (("verify", "--group", "gens:(1,2,3)"), 0),
    (("verify", "--group", "sn:3", "--l-max", "3000"), 3),
    (("verify", "--group", "sn:1/wreath:10"), 3),
    (("verify", "--group", "sn:1/wreath:100000"), 3),
    (("verify", "--group", "sn:8/subsets:3"), 0),
    (("verify", "--group", "sn:5/subsets:2/wreath:2"), 0),
    # each suffix is sized before any induced action is built, so these
    # wreath orders are refused without building the action under them
    (("verify", "--group", "sn:9/subsets:2/wreath:6", "--labels", "auto"), 3),
    (("verify", "--group", "sn:8/partitions:4x2/wreath:3"), 3),
    (("verify", "--group", "pgl2:31/subsets:2/wreath:2"), 3),
    (("wreath", "--n", "5", "--k", "2", "--dist", "0"), 2),
    (("orbits", "--n", "0", "--k", "1", "--l", "1"), 2),
    # A_1 = S_1: o_K = 2E/n! holds only for n >= 2
    (("orbits", "--n", "1", "--k", "1", "--l", "5"), 2),
    (("orbits", "--n", "70", "--k", "1", "--l", "1"), 3),
    (("orbits", "--n", "40", "--k", "2", "--l", "1600"), 3),
    (("orbits", "--n", "64", "--k", "2", "--l", "1500"), 3),
    # refused before the (64, 25) build, which takes seconds
    (("orbits", "--n", "64", "--k", "25", "--l", "100000"), 3),
    # refused before the (64, 8) build, which takes over a second
    (("orbits", "--n", "64", "--k", "8", "--l", "-2"), 2),
    # o_K has 4,301 digits where the lower bound on o gives 4,300: refused
    # after the sum, when the counts are written
    (("orbits", "--n", "3", "--k", "1", "--l", "9014"), 3),
    (("basesize", "--n", "65", "--k", "2"), 3),
    # m = 65 is refused before the (65, 26) build; the lower value, at
    # m - 1 = 64, is L1 and needs no search
    (("bounds", "--m", "65", "--k", "26", "--r", "2"), 3),
    # --max-l below L0 = 6: refused before the (64, 25) build
    (("basesize", "--n", "64", "--k", "25", "--max-l", "4"), 3),
    (("partitions-action", "--n", "0", "--r", "0", "--s", "0"), 2),
    # a 4,001-digit threshold, answered at l = 1,400 in about a second
    (("wreath", "--n", "40", "--k", "2", "--dist", "1" + "0" * 4000), 0),
)


def _case_id(argv):
    # an argument too long to read stands as its length
    return " ".join(arg if len(arg) <= 100 else f"<{len(arg)} chars>"
                    for arg in argv)


@pytest.mark.parametrize("argv, expected", HOSTILE_INPUTS,
                         ids=[_case_id(argv) for argv, _ in HOSTILE_INPUTS])
def test_hostile_inputs(capsys, argv, expected):
    # Exit 0, 2 or 3; JSON on stdout exactly when the exit is 0; no
    # traceback (an uncaught exception would fail the test itself).
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == expected
    if code == 0:
        json.loads(captured.out)
    else:
        assert captured.out == ""
        assert captured.err.startswith(("error:", "capacity error:"))
    assert "Traceback" not in captured.err
    assert len(captured.err) < 300  # no echo of a huge number in full


def test_huge_threshold_answered_within_the_bound(monkeypatch):
    # Each regular orbit holds 40! tuples, so 10^4000 of them need l >= 1,400,
    # and that is the answer: the count grows C(40, 2)-fold per step. A cap
    # below it is refused before the build, with the search's own message.
    threshold = 10 ** 4000
    report = basecount.base_size_subsets(40, 2, threshold)
    assert report.base_size == 1400 == \
        basecount.least_l_holding(40, 2, threshold)
    trace = report.witness_l_values
    assert [l for l, _ in trace] == list(range(1, 1401))
    assert trace[-2][1] < threshold <= trace[-1][1]

    def no_build(n, k):
        raise AssertionError("character built")

    monkeypatch.setattr(basecount, "char_vector_subsets", no_build)
    with pytest.raises(CapacityError) as refused:
        basecount.base_size_subsets(40, 2, threshold, max_l=780)
    assert str(refused.value) == \
        "no count reaching a 13288-bit threshold found up to l=780"
    # the bound stops one step past the cap, however far the power is off
    assert basecount.least_l_holding(40, 2, threshold, cap=5) == 6


def test_search_past_its_bound_is_a_consistency_failure(capsys, monkeypatch):
    # With every count patched to 0 the search stops at
    # floor(log2 n!) + ceil(log2 D), exit 4, however large D is; a --max-l
    # below the bound is still a refusal, exit 3.
    def zeros(chi, l=1):
        while True:
            yield l, 0, 0
            l += 1

    monkeypatch.setattr(basecount, "iter_inner_products", zeros)
    huge = 10 ** 4000
    for argv, n, threshold in (
            (("basesize", "--n", "6", "--k", "2"), 6, 1),
            (("wreath", "--n", "2", "--k", "1", "--r", "3"), 2, 3),
            (("wreath", "--n", "40", "--k", "2", "--dist", str(huge)), 40,
             huge),
            (("partitions-action", "--n", "6", "--r", "3", "--s", "2"), 6, 1),
            (("basesize", "--n", "6", "--k", "2", "--max-l", "20"), 6, 1)):
        bound = (factorial(n).bit_length() - 1
                 + (threshold - 1).bit_length())
        shown = "a 13288-bit threshold" if threshold == huge else threshold
        assert run_cli(capsys, *argv) == (
            4, None, f"consistency failure: no count reaching {shown} found "
                     f"up to l={bound} (the bound)\n")
    assert run_cli(capsys, "basesize", "--n", "6", "--k", "2", "--max-l",
                   "5") == (3, None, "capacity error: no count reaching 1 "
                                     "found up to l=5\n")


def test_unprintable_counts_refused_before_the_sum(monkeypatch, capsys):
    # The lower bound C(n,k)^l / n! on o already has more digits than
    # Python prints, so no class sum is taken; l = 1500 still prints. A sum
    # at a refused l fails at once rather than running for minutes.
    original = basecount.orbit_counts

    def only_1500(chi, l):
        assert l == 1500, f"class sum taken at l = {l}"
        return original(chi, l)

    monkeypatch.setattr(basecount, "orbit_counts", only_1500)
    for l in ("1600", "100000", "1" + "0" * 400):
        assert cli.main(["orbits", "--n", "40", "--k", "2", "--l", l]) == 3
        assert "more decimal digits" in capsys.readouterr().err
    code, doc, _ = run_cli(capsys, "orbits", "--n", "40", "--k", "2",
                           "--l", "1500")
    assert code == 0 and len(doc["outputs"]["o_K"]) == 4291



UNPRINTABLE = ("capacity error: o has more decimal digits at l = {} than "
               "Python prints (4300)\n")


@pytest.mark.parametrize("n, k, l", ((64, 25, "100000"), (60, 20, "100000"),
                                     (64, 25, "1" + "0" * 400)),
                         ids=("64-25", "60-20", "400-zeros"))
def test_unprintable_l_refused_before_the_build(capsys, monkeypatch, n, k, l):
    # The builds take seconds; the exact bound C(n, k)^l >= 10^4301 n!
    # refuses first, with the message the refusal after the build gave.
    def no_build(n, k):
        raise AssertionError("character built")

    monkeypatch.setattr(basecount, "char_vector_subsets", no_build)
    code, doc, err = run_cli(capsys, "orbits", "--n", str(n), "--k", str(k),
                             "--l", l)
    assert code == 3 and doc is None
    assert err == UNPRINTABLE.format(l)


def test_negative_l_refused_before_the_build(capsys, monkeypatch):
    # The sign of l is checked right after the n limit, with the message
    # the sum gives; k = n still leaves it to the sum, after a cheap build.
    def no_build(n, k):
        raise AssertionError("character built")

    monkeypatch.setattr(basecount, "char_vector_subsets", no_build)
    for n, k, code, err in (
            ("64", "8", 2, "error: l must be nonnegative, got -2\n"),
            ("2", "1", 2, "error: l must be nonnegative, got -2\n"),
            ("65", "8", 3, "capacity error: n = 65 exceeds the limit 64\n")):
        assert run_cli(capsys, "orbits", "--n", n, "--k", k, "--l", "-2") \
            == (code, None, err)
    monkeypatch.undo()
    assert run_cli(capsys, "orbits", "--n", "5", "--k", "5", "--l", "-2") \
        == (2, None, "error: l must be nonnegative, got -2\n")


def test_printable_bound_skips_what_the_build_decides(capsys, monkeypatch):
    # An (n, k) the build refuses keeps the build's message, and k = n has
    # one point, so its counts are all 1 at any l: no bound is computed.
    def no_bound(*args):
        raise AssertionError("bound computed")

    monkeypatch.setattr(basecount, "least_l_holding", no_bound)
    huge = "1" + "0" * 400
    for n, k, code, err in (
            ("70", "1", 3, "capacity error: n = 70 exceeds the limit 64\n"),
            ("5", "6", 2, "error: k must be in 1..5, got 6\n"),
            ("5", "0", 2, "error: k must be in 1..5, got 0\n"),
            ("1", "1", 2, "error: orbit counts over A_n need n >= 2, "
                          "got n = 1\n")):
        assert run_cli(capsys, "orbits", "--n", n, "--k", k, "--l", huge) \
            == (code, None, err)
    code, doc, _ = run_cli(capsys, "orbits", "--n", "5", "--k", "5",
                           "--l", huge)
    assert code == 0
    assert doc["outputs"] == {"regular": "0", "o": "1", "o_K": "1"}

def test_printable_bound_matches_the_float_formula(capsys, monkeypatch):
    # For every 1 <= k < n <= 64 the exact bound first refuses at the l
    # where the logarithms first did; at the boundary the command refuses
    # there and builds one step below it.
    limit = sys.get_int_max_str_digits()
    for n in range(2, 65):
        for k in range(1, n):
            assert basecount.least_l_holding(n, k, 10 ** (limit + 1)) == \
                least_unprintable_l(n, k, limit), (n, k)

    class Built(Exception):
        pass

    def built(n, k):
        raise Built

    monkeypatch.setattr(basecount, "char_vector_subsets", built)
    for n, k in ((2, 1), (3, 1), (40, 2), (64, 32), (64, 63)):
        l = least_unprintable_l(n, k, limit)
        code, _, err = run_cli(capsys, "orbits", "--n", str(n), "--k", str(k),
                               "--l", str(l))
        assert code == 3 and err == UNPRINTABLE.format(l)
        with pytest.raises(Built):
            cli.main(["orbits", "--n", str(n), "--k", str(k),
                      "--l", str(l - 1)])



def _value(rng):
    # a flag value: small (half the draws), at the n limit, or huge
    kind = rng.randrange(4)
    if kind < 2:
        return str(rng.randint(-2, 12))
    if kind == 2:
        return str(rng.choice((63, 64, 65)))
    return str(rng.choice((10 ** 6, 2 ** 64, 10 ** 400)))


def _group_spec(rng):
    base = rng.choice(("sn", "an", "pgl2", "gens"))
    if base == "gens":
        spec = "gens:" + ";".join(
            rng.choice(("", "!")) + "".join(
                "(" + ",".join(_value(rng) for _ in range(rng.randint(1, 4)))
                + ")" for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3)))
    else:
        spec = f"{base}:{_value(rng)}"
    for _ in range(rng.randint(0, 2)):
        suffix = rng.choice(("subsets", "partitions", "wreath"))
        if suffix == "partitions":
            spec += f"/partitions:{_value(rng)}x{_value(rng)}"
        else:
            spec += f"/{suffix}:{_value(rng)}"
    return spec


def _draw_argv(rng):
    """One argv that argparse accepts: the flags are fixed, their values
    drawn."""
    command = rng.choice(("basesize", "orbits", "wreath", "bounds",
                          "partitions-action", "verify"))
    argv = [command]
    if command == "basesize":
        argv += ["--n", _value(rng), "--k", _value(rng)]
        if rng.random() < 0.5:
            argv += ["--max-l", _value(rng)]
        if rng.random() < 0.5:
            argv += ["--trace"]
    elif command == "orbits":
        argv += ["--n", _value(rng), "--k", _value(rng), "--l", _value(rng)]
    elif command == "wreath":
        argv += ["--n", _value(rng), "--k", _value(rng),
                 rng.choice(("--r", "--dist")), _value(rng)]
    elif command == "bounds":
        argv += ["--m", _value(rng), "--k", _value(rng), "--r", _value(rng)]
    elif command == "partitions-action":
        r, s = _value(rng), _value(rng)
        n = str(int(r) * int(s)) if rng.random() < 0.5 else _value(rng)
        argv += ["--n", n, "--r", r, "--s", s]
        if rng.random() < 0.5:
            argv += ["--l-max", _value(rng)]
    else:
        argv += ["--group", _group_spec(rng),
                 "--labels", rng.choice(("auto", "sgn"))]
        if rng.random() < 0.5:
            argv += ["--l-max", _value(rng)]
        if rng.random() < 0.5:
            argv += ["--seed", _value(rng)]
    return argv


GENERATED_SEED, GENERATED_COUNT = 20261019, 300

# The argvs the seed draws that take over 0.25 s, skipped until a time
# budget per argv can refuse them, each with its time in seconds, the best
# of two in-process runs on a shared 2-core machine, and its exit code. All
# are legal work at n = 63 or 64.
KNOWN_SLOW = {
    "basesize --n 63 --k 6": 0.5,  # exit 0
    "bounds --m 63 --k 8 --r 63": 1.0,  # exit 0
    "orbits --n 63 --k 8 --l 65": 1.4,  # exit 0
    "basesize --n 64 --k 8": 1.5,  # exit 0
    "wreath --n 64 --k 5 --r <401 chars>": 1.7,  # exit 0
    "orbits --n 63 --k 9 --l 65": 1.9,  # exit 0
    "basesize --n 63 --k 10 --max-l 63": 2.7,  # exit 0
    "wreath --n 63 --k 12 --dist 12": 2.8,  # exit 0
    "orbits --n 63 --k 12 --l 64": 4.0,  # exit 0
    "orbits --n 64 --k 12 --l 64": 4.6,  # exit 0
}


def test_generated_argvs_exit_cleanly(capsys):
    # exit 0, 2 or 3; one JSON document on stdout exactly when the exit is
    # 0, else one line on stderr
    rng = random.Random(GENERATED_SEED)
    drawn = [_draw_argv(rng) for _ in range(GENERATED_COUNT)]
    skipped = set()
    for argv in drawn:
        key = _case_id(argv)
        if key in KNOWN_SLOW:
            skipped.add(key)
            continue
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2, 3), (argv, captured.err)
        if code == 0:
            json.loads(captured.out)
            assert captured.err == "", argv
        else:
            assert captured.out == "", argv
            assert captured.err.endswith("\n"), argv
            assert captured.err.count("\n") == 1, argv
    assert skipped == set(KNOWN_SLOW)


# Parameters whose refusal must not wait on work growing with them (a huge
# factorial, trial division, a loop over the degree). Each runs in a child
# process with a timeout, since a stall inside one C call cannot be
# interrupted in-process; a limit checked after such work fails here at
# once instead of stalling the suite.
HUGE = "1" + "0" * 40
HUGE_PARAMETERS = (
    (("verify", "--group", "sn:99999999999999"), 3),
    (("verify", "--group", "an:99999999999999"), 3),
    (("verify", "--group", "pgl2:2305843009213693951"), 2),
    (("bounds", "--m", HUGE, "--k", "1", "--r", "2"), 3),
    (("basesize", "--n", HUGE, "--k", "2"), 3),
    (("wreath", "--n", HUGE, "--k", "2", "--r", "3"), 3),
    (("orbits", "--n", HUGE, "--k", "2", "--l", "3"), 3),
)


@pytest.mark.parametrize("argv, expected", HUGE_PARAMETERS,
                         ids=[_case_id(argv) for argv, _ in HUGE_PARAMETERS])
def test_huge_parameters_refused_at_once(argv, expected):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "basechar.cli", *argv],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == expected, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith(("error:", "capacity error:"))


@pytest.mark.parametrize("lines_read", (1, 0))
def test_closed_pipe_exits_cleanly(lines_read):
    # A reader that stops early, as `| head -1` does, or before the first
    # byte: exit 0 and nothing on stderr, neither from the write nor from
    # the flush at shutdown.
    src = Path(__file__).resolve().parents[1] / "src"
    for _ in range(5):
        proc = subprocess.Popen(
            [sys.executable, "-m", "basechar.cli", "partitions-action",
             "--n", "12", "--r", "6", "--s", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)})
        for _ in range(lines_read):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, err
        assert err == b""


def test_package_has_no_assert_statements():
    # python -O drops assert, and a broken invariant must still exit 4.
    package = Path(__file__).resolve().parents[1] / "src" / "basechar"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert found == [], (path.name, found)


def _package_imports(name):
    """The basechar modules that module name imports, relatively or not."""
    path = Path(__file__).resolve().parents[1] / "src" / "basechar"
    tree = ast.parse((path / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("basechar." * (node.level > 0)) + (node.module or "")
            dotted = [module.rstrip(".") + "." + alias.name
                      for alias in node.names]
        else:
            continue
        found.update(part.split(".")[1] for part in dotted
                     if part.startswith("basechar."))
    return found


def test_oracle_shares_no_code_with_the_formula_lane():
    # The oracle is the formula lane's independent check: it imports
    # nothing of the package but the errors, and no formula module
    # imports it.
    assert _package_imports("oracle") == {"errors"}
    for name in ("partitions", "characters", "basecount"):
        assert "oracle" not in _package_imports(name), name


def test_cli_reaches_the_formula_lane_only_through_basecount():
    # Every refusal, limit and build of a formula command lives in
    # basecount, so a Python caller gets what the CLI gives.
    assert _package_imports("cli") == {"basecount", "errors", "oracle"}


# Every case the benchmark can draw, with the output recorded for it. The
# verify cases were recorded with --seed 0; only the timing may differ.
GOLDENS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                      / "goldens.json").read_text())["cases"]


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_golden_replay(capsys, key):
    argv = key.split()
    if argv[0] == "verify":
        argv += ["--seed", "0"]
    code, doc, err = run_cli(capsys, *argv)
    assert code == 0, err
    del doc["timing_seconds"]
    assert doc == GOLDENS[key]


FORMULA_RUNS = (
    ("basesize", "--n", "6", "--k", "2"),
    ("orbits", "--n", "6", "--k", "2", "--l", "2"),
    ("wreath", "--n", "6", "--k", "2", "--r", "2"),
    ("bounds", "--m", "6", "--k", "2", "--r", "2"),
    ("partitions-action", "--n", "6", "--r", "3", "--s", "2"),
)


def test_only_verify_loads_the_oracle():
    # The oracle stays out of the start-up and the run of every formula
    # command, and verify loads it. numpy, dataclasses, and inspect through
    # it, load under no command, verify included. A fresh interpreter, since
    # this test process has imported them already.
    script = f"""
import contextlib, io, sys
from basechar import cli
WATCHED = ("basechar.oracle", "numpy", "dataclasses", "inspect")

def loaded():
    return [name for name in WATCHED if name in sys.modules]

assert loaded() == [], ("import", loaded())
for argv in {FORMULA_RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
    assert loaded() == [], (argv, loaded())
for spec in ("sn:3", "pgl2:5/wreath:2", "gens:!(1,2);(1,2,3)/subsets:2"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--group", spec, "--seed", "1"]) == 0
    assert loaded() == ["basechar.oracle"], (spec, loaded())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_block(section, language):
    # the first fenced block of the given language in a "## " section
    text = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return text.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_command_lines_succeed(capsys):
    lines = [line.split() for line in
             _readme_block("Command line", "sh").splitlines()
             if line.startswith("basechar ")]
    assert len(lines) == 7
    for argv in lines:
        code, doc, err = run_cli(capsys, *argv[1:])
        assert code == 0, (argv, err)
        assert doc["command"] == argv[1]


def test_readme_python_api_runs():
    # the block checks itself against the oracle with its own asserts
    exec(compile(_readme_block("Python API", "python"), "README.md", "exec"),
         {})
