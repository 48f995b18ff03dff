import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

from basechar import cli, oracle
from reference_impls import burnside_orbit_count


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
    action = oracle.parse_group_spec("sn:4/partitions:2x2").action
    kernel = action.table[action.labels == 1]
    rows = doc["outputs"]["orbit_counts"]
    assert [int(l) for l, _, _ in rows] == list(range(1, 65))
    for l, o, o_k in rows:
        assert int(o) == burnside_orbit_count(action.table, int(l))
        assert int(o_k) == burnside_orbit_count(kernel, int(l))


def test_verify_reads_the_verdict_past_the_search_bound(capsys):
    # Degree 56 is past MAX_CONTROLLING_DEGREE, which bounds only the
    # search that names a counterexample; this action has none.
    code, doc, _ = run_cli(capsys, "verify", "--group", "sn:8/subsets:3")
    assert code == 0
    assert doc["outputs"]["degree"] == "56"
    assert doc["outputs"]["base_controlling"] == {"controlling": True}
    assert doc["outputs"]["base_size"] == "4"
    assert doc["outputs"]["formula"] == {"base_size": "4",
                                         "relation": "equal"}
    # Degree 100: the lattice finds an all-even stabilizer, and naming one
    # by the subset search is refused.
    code, doc, err = run_cli(capsys, "verify", "--group",
                             "sn:5/subsets:2/wreath:2")
    assert code == 3
    assert doc is None
    assert "not controlling" in err and "refused" in err


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
    (("verify", "--group", "sn:5/subsets:2/wreath:2"), 3),
    (("wreath", "--n", "5", "--k", "2", "--dist", "0"), 2),
    (("orbits", "--n", "0", "--k", "1", "--l", "1"), 2),
    (("orbits", "--n", "70", "--k", "1", "--l", "1"), 3),
    (("basesize", "--n", "65", "--k", "2"), 3),
    (("partitions-action", "--n", "0", "--r", "0", "--s", "0"), 2),
)


@pytest.mark.parametrize("argv, expected", HOSTILE_INPUTS,
                         ids=[" ".join(argv) for argv, _ in HOSTILE_INPUTS])
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
    # numpy and the oracle stay out of the start-up and the run of every
    # formula command; verify loads both. A fresh interpreter, since this
    # test process has imported them already.
    script = f"""
import contextlib, io, sys
from basechar import cli
HEAVY = ("numpy", "basechar.oracle")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

assert loaded() == [], ("import", loaded())
for argv in {FORMULA_RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
    assert loaded() == [], (argv, loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["verify", "--group", "sn:3"]) == 0
assert loaded() == list(HEAVY), ("verify", loaded())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
