import json

import pytest

from basechar import cli, oracle


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
    assert out["base_size"] == str(oracle.base_size_bruteforce(action))


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
