import ast
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from basechar import basecount, cli, oracle
from reference_impls import as_arrays, burnside_orbit_count


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
    # the formula search stops at its cap C(2, 1) = 2 below the oracle's
    # base sizes 3 and 4; the oracle's results are still written
    ("sn:2/wreath:3", None, ["formula comparison skipped: no count reaching "
                             "3 found up to l=2"]),
    ("sn:2/wreath:5", None, ["formula comparison skipped: no count reaching "
                             "5 found up to l=2"]),
)


@pytest.mark.parametrize("spec, formula, warnings", FORMULA_COMPARISONS)
def test_verify_formula_comparison(capsys, spec, formula, warnings):
    code, doc, _ = run_cli(capsys, "verify", "--group", spec)
    assert code == 0
    assert doc["outputs"]["formula"] == formula
    assert doc["warnings"] == warnings


def test_verify_sn_sign_labels_not_recomputed(capsys, monkeypatch):
    # S_n is built with its signs, so --labels sgn leaves them as they are
    _, auto, _ = run_cli(capsys, "verify", "--group", "sn:9")

    def no_signs(table):
        raise AssertionError("signs recomputed")

    monkeypatch.setattr(oracle, "_signs", no_signs)
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:9",
                           "--labels", "sgn")
    assert code == 0
    assert doc["outputs"] == auto["outputs"]
    parsed = oracle.parse_group_spec("sn:9", labels_mode="sgn")
    assert parsed.action.labels == oracle.symmetric_group(9).labels


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


HOSTILE_INPUTS = (
    (("verify", "--group", "gens:"), 2),
    (("verify", "--group", "gens:!()"), 2),
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
    (("wreath", "--n", "5", "--k", "2", "--dist", "0"), 2),
    (("orbits", "--n", "0", "--k", "1", "--l", "1"), 2),
    # A_1 = S_1: o_K = 2E/n! holds only for n >= 2
    (("orbits", "--n", "1", "--k", "1", "--l", "5"), 2),
    (("orbits", "--n", "70", "--k", "1", "--l", "1"), 3),
    (("orbits", "--n", "40", "--k", "2", "--l", "1600"), 3),
    (("orbits", "--n", "64", "--k", "2", "--l", "1500"), 3),
    # o_K has 4,301 digits where the lower bound on o gives 4,300: refused
    # after the sum, when the counts are written
    (("orbits", "--n", "3", "--k", "1", "--l", "9014"), 3),
    (("basesize", "--n", "65", "--k", "2"), 3),
    # refused before the (64, 26) search, which takes seconds
    (("bounds", "--m", "65", "--k", "26", "--r", "2"), 3),
    # --max-l below L0 = 6: refused before the (64, 25) build
    (("basesize", "--n", "64", "--k", "25", "--max-l", "4"), 3),
    (("partitions-action", "--n", "0", "--r", "0", "--s", "0"), 2),
    # a 4,001-digit threshold needs C(40, 2)^l >= 10^4000 * 40!, so
    # l >= 1,400, past the cap C(40, 2) = 780: refused before the build
    (("wreath", "--n", "40", "--k", "2", "--dist", "1" + "0" * 4000), 3),
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


def test_hopeless_threshold_refused_before_the_build(capsys, monkeypatch):
    # Each regular orbit holds 40! tuples, so 10^4000 of them need l >= 1,400
    # > 780 = C(40, 2); the refusal gives the message of the search at its
    # cap without building the character.
    def no_build(n, k):
        raise AssertionError("character built")

    monkeypatch.setattr(basecount, "char_vector_subsets", no_build)
    code, doc, err = run_cli(capsys, "wreath", "--n", "40", "--k", "2",
                             "--dist", "1" + "0" * 4000)
    assert code == 3 and doc is None
    assert err == ("capacity error: no count reaching a 13288-bit threshold "
                   "found up to l=780\n")
    assert basecount._least_nonzero_l(40, 2, 10 ** 4000) == 1400
    # the bound stops one step past the cap, however far the power is off
    assert basecount._least_nonzero_l(40, 2, 10 ** 4000, cap=5) == 6


def test_unprintable_counts_refused_before_the_sum(monkeypatch, capsys):
    # The lower bound C(n,k)^l / n! on o already has more digits than
    # Python prints, so no class sum is taken; l = 1500 still prints. A sum
    # at a refused l fails at once rather than running for minutes.
    original = cli.orbit_counts

    def only_1500(chi, l):
        assert l == 1500, f"class sum taken at l = {l}"
        return original(chi, l)

    monkeypatch.setattr(cli, "orbit_counts", only_1500)
    for l in ("1600", "100000", "1" + "0" * 400):
        assert cli.main(["orbits", "--n", "40", "--k", "2", "--l", l]) == 3
        assert "more decimal digits" in capsys.readouterr().err
    code, doc, _ = run_cli(capsys, "orbits", "--n", "40", "--k", "2",
                           "--l", "1500")
    assert code == 0 and len(doc["outputs"]["o_K"]) == 4291


# Parameters whose refusal must not wait on work growing with them (a huge
# factorial, trial division). Each runs in a child process with a timeout,
# since a stall inside one C call cannot be interrupted in-process.
HUGE_PARAMETERS = (("sn:99999999999999", 3), ("an:99999999999999", 3),
                   ("pgl2:2305843009213693951", 2))


@pytest.mark.parametrize("spec, expected", HUGE_PARAMETERS,
                         ids=[spec for spec, _ in HUGE_PARAMETERS])
def test_huge_parameters_refused_at_once(spec, expected):
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "basechar.cli", "verify", "--group", spec],
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
