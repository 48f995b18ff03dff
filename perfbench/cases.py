"""Workload cases, the cases left out, and the checks on each output.

A case is one `basechar` command line. Each workload has a fixed universe
of cases; a seed draws one pass (the commands run once each, in a seeded
order) from that universe, so a fresh seed gives different cases of
similar cost. The slowest command of each workload is the same for every
seed, so `cmd_max_s` does not depend on the draw.

Every case in a universe has a golden output in `goldens.json`, recorded
by `record_goldens.py`. Besides the golden comparison, `independent_checks`
tests facts that hold whatever the goldens say.
"""

from dataclasses import dataclass
from math import factorial
import random

WORKLOADS = ("subsets", "partitions", "verify")


@dataclass(frozen=True)
class Case:
    """One command. `key` names its golden output: the argv without the
    `--seed` option, whose value the output only echoes."""

    argv: tuple
    key: str


def _case(*argv):
    return Case(tuple(str(a) for a in argv), " ".join(str(a) for a in argv))


def _verify(group, seed):
    return Case(("verify", "--group", group, "--seed", str(seed)),
                f"verify --group {group}")


# --- subsets: class enumeration and the inner-product loop -----------------
# basesize --k 2 at n = 40 is in every pass and is its slowest command. The
# seed draws the k = 3 size together with the orbits and wreath sizes:
# each triple costs about the same (1.34-1.37 s of compute when recorded),
# so the pass cost does not depend on the draw.
SUBSETS_ANCHOR = 40
SUBSETS_TRIPLES = ((36, 29, 28), (35, 30, 29), (34, 31, 30), (33, 32, 30),
                   (32, 32, 32), (30, 33, 32))
SUBSETS_ORBITS_L = (18, 19, 20, 21, 22)
SUBSETS_WREATH_R = 3


def _basesize(n, k):
    return _case("basesize", "--n", n, "--k", k, "--trace")


def _orbits(n, l):
    return _case("orbits", "--n", n, "--k", 2, "--l", l)


def _wreath(n):
    return _case("wreath", "--n", n, "--k", 2, "--r", SUBSETS_WREATH_R)


# --- partitions: the fixed-point kernel --------------------------------------
# 15/3/5 is row-heavy (126,126 rows), 16/2/8 is mask-table-heavy (2^16
# entries for each of 231 classes). The seed adds one pair of small n = 12
# or 14 actions; the pairs cost about the same.
PARTITIONS_FIXED = ((15, 3, 5), (16, 2, 8))
PARTITIONS_PAIRS = (
    ((12, 2, 6), (14, 2, 7)),
    ((12, 3, 4), (12, 6, 2)),
    ((12, 4, 3), (12, 2, 6)),
)


def _partitions(n, r, s):
    return _case("partitions-action", "--n", n, "--r", r, "--s", s)


# --- verify: the oracle ------------------------------------------------------
# Every pass runs all six groups; the seed sets the spot-check seed and the
# order. sn:9 is the slowest command.
VERIFY_GROUPS = ("sn:9", "pgl2:19", "pgl2:23", "sn:7/subsets:2",
                 "sn:4/wreath:2", "sn:6/partitions:3x2")
VERIFY_SPOT_SEEDS = range(1, 10 ** 6)

# Commands kept out of every workload, with the reason.
EXCLUDED = (
    ("verify --group sn:8/subsets:3",
     "spends about 3.1 s building the action, then exits 3: degree 56 is "
     "over MAX_CONTROLLING_DEGREE = 24; a failure after real work is not "
     "a success case"),
    ("partitions-action --n 16 --r 4 --s 4",
     "2,627,625 rows; takes 96.5 s"),
    ("partitions-action --n 15 --r 5 --s 3", "1,401,400 rows"),
    ("partitions-action --n 16 --r 8 --s 2", "2,027,025 rows"),
    ("partitions-action with n >= 17",
     "exits 3 at the enumeration ceiling of 16"),
    ("basesize --k 2 with n other than 40",
     "a second k = 2 size, or a drawn one, would make the pass cost and the "
     "slowest command depend on the seed (n = 36 takes 1.2 s, n = 44 6.4 s)"),
)


def universe(workload):
    """Every case any seed can draw for the workload."""
    if workload == "subsets":
        cases = {_basesize(SUBSETS_ANCHOR, 2)}
        for k3, orbits, wreath in SUBSETS_TRIPLES:
            cases.update([_basesize(k3, 3), _wreath(wreath)])
            cases.update(_orbits(orbits, l) for l in SUBSETS_ORBITS_L)
        return sorted(cases, key=lambda case: case.key)
    if workload == "partitions":
        triples = set(PARTITIONS_FIXED)
        for pair in PARTITIONS_PAIRS:
            triples.update(pair)
        return [_partitions(*t) for t in sorted(triples)]
    if workload == "verify":
        return [_verify(group, 0) for group in VERIFY_GROUPS]
    raise ValueError(f"unknown workload {workload!r}")


def draw(workload, seed):
    """The cases of one pass, in the order they run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "subsets":
        k3, orbits, wreath = rng.choice(SUBSETS_TRIPLES)
        cases = [_basesize(SUBSETS_ANCHOR, 2), _basesize(k3, 3),
                 _orbits(orbits, rng.choice(SUBSETS_ORBITS_L)), _wreath(wreath)]
    elif workload == "partitions":
        cases = [_partitions(*t) for t in PARTITIONS_FIXED]
        cases += [_partitions(*t) for t in rng.choice(PARTITIONS_PAIRS)]
    elif workload == "verify":
        spot = rng.choice(VERIFY_SPOT_SEEDS)
        cases = [_verify(group, spot) for group in VERIFY_GROUPS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases


def expected_document(case, golden):
    """The golden document with the echoed `--seed` set to this case's."""
    expected = dict(golden)
    if "--seed" in case.argv:
        seed = case.argv[case.argv.index("--seed") + 1]
        expected["inputs"] = dict(golden["inputs"], seed=seed)
    return expected


# --- independent checks --------------------------------------------------------


def partition_count(n):
    """p(n), the number of conjugacy classes of S_n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            p[m] += p[m - part]
    return p[n]


def _arg(case, flag):
    return int(case.argv[case.argv.index(flag) + 1])


def _check_threshold_trace(trace, base, threshold, errors):
    values = [int(v) for _, v in trace]
    if [int(l) for l, _ in trace] != list(range(1, len(trace) + 1)):
        errors.append("trace l values are not 1, 2, ...")
    if base is None or len(values) != int(base):
        errors.append(f"trace length {len(values)} != base size {base}")
        return
    if any(v >= threshold for v in values[:-1]):
        errors.append(f"a count below the base size reaches {threshold}")
    if values[-1] < threshold:
        errors.append(f"the count at the base size is below {threshold}")


def independent_checks(case, doc):
    """Facts every correct output has, whatever the goldens say; returns
    a list of what failed."""
    errors = []
    out = doc["outputs"]
    command = case.argv[0]
    if command == "basesize":
        _check_threshold_trace(out["trace"], out["base_size"], 1, errors)
    elif command == "wreath":
        r = _arg(case, "--r")
        if out["distinguishing_number"] != str(r):
            errors.append("distinguishing number of S_r is not r")
        _check_threshold_trace(out["trace"], out["base_size"], r, errors)
    elif command == "orbits":
        regular, o, o_k = (int(out[key]) for key in ("regular", "o", "o_K"))
        if regular != o_k - o:
            errors.append("regular orbits != o_K - o")
    elif command == "partitions-action":
        n, r, s = (_arg(case, flag) for flag in ("--n", "--r", "--s"))
        domain = factorial(n) // (factorial(s) ** r * factorial(r))
        if out["domain_size"] != str(domain):
            errors.append(f"domain size is not {domain}")
        if len(out["character_values"]) != partition_count(n):
            errors.append("character does not have p(n) values")
        elif out["character_values"][-1][1] != str(domain):
            errors.append("character at the identity is not the domain size")
        _check_threshold_trace(out["trace"], out["min_l"], 1, errors)
        if (n, r, s) == (15, 3, 5):
            if [v for _, v in out["trace"]] != ["0", "0", "86"]:
                errors.append("15/3/5 counts are not 0, 0, 86")
    elif command == "verify":
        group = case.argv[case.argv.index("--group") + 1]
        if group.startswith("sn:"):
            formula = out.get("formula") or {}
            if formula.get("relation") != "equal":
                errors.append("formula and oracle base sizes differ on S_n")
        if group.startswith("pgl2:"):
            q = int(group[5:])
            if out["order"] != str(q * (q * q - 1)) or out["degree"] != str(q + 1):
                errors.append("PGL_2(q) order or degree is wrong")
            if out["base_size"] != "3":
                errors.append("PGL_2(q) on the projective line has base size 3")
    return errors


# --- work counters, derived from the case inputs and outputs -------------------


def counters(case, doc):
    """Work counters of one command, derived from its inputs and output.

    Classes are the p(n) conjugacy classes the formula lane sums over; an
    l step is one l at which it evaluates a class sum. Kernel bytes are
    computed, not measured: a 2^n mask table per class plus three passes
    over the r-column image rows, 8 bytes per entry.
    """
    out = doc["outputs"]
    command = case.argv[0]
    c = dict.fromkeys(COUNTER_NAMES, 0)
    n = None
    values = []
    if command in ("basesize", "wreath", "orbits", "partitions-action"):
        n = _arg(case, "--n")
        if command == "orbits":
            c["characters.l_steps"] = 1
            values = [int(out["o"])]
        else:
            c["characters.l_steps"] = len(out["trace"])
            values = [int(v) for _, v in out["trace"]]
    elif command == "verify":
        group = case.argv[case.argv.index("--group") + 1]
        order, degree = int(out["order"]), int(out["degree"])
        c["oracle.order"] = order
        c["oracle.degree"] = degree
        c["oracle.table_cells"] = order * degree
        if out.get("formula"):
            n = int(group.split("/")[0][3:])
            c["characters.l_steps"] = int(out["formula"]["base_size"])
        if "/partitions:" in group:
            r, s = (int(x) for x in group.split("/partitions:")[1].split("x"))
            rows = factorial(n) // (factorial(s) ** r * factorial(r))
            _kernel_counters(c, n, r, rows)
    if n is not None:
        classes = partition_count(n)
        c["partitions.classes"] = classes
        c["characters.terms"] = classes * c["characters.l_steps"]
        if values:
            c["characters.max_sum_bits"] = (factorial(n) * max(values)).bit_length()
    if command == "partitions-action":
        _kernel_counters(c, n, _arg(case, "--r"), int(out["domain_size"]))
    return c


def _kernel_counters(c, n, r, rows):
    classes = partition_count(n)
    c["kernels.rows"] = rows
    c["kernels.tests"] = rows * classes
    c["kernels.bytes_computed"] = classes * 8 * (2 ** n + 3 * rows * r)


COUNTER_NAMES = (
    "partitions.classes", "characters.l_steps", "characters.terms",
    "characters.max_sum_bits", "kernels.rows", "kernels.tests",
    "kernels.bytes_computed", "oracle.order", "oracle.degree",
    "oracle.table_cells")
# Counters combined over cases by max rather than by sum.
MAX_COUNTERS = ("characters.max_sum_bits",)
