"""Acceptance gate: one test per criterion, one printed line per criterion.

Each test prints "[PASS] ..." or "[FAIL] ..." on the real stdout before
asserting, so the per-criterion verdicts always appear in the run log.
"""

import json
import random
from functools import lru_cache
from math import comb, factorial
from time import perf_counter

from basechar import cli, oracle
from basechar.basecount import PARTITIONS_CAVEAT, base_size_subsets
from basechar.characters import char_vector_subsets, orbit_counts
from reference_impls import distinguishing_number


def report(capsys, ok, criterion, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def split_count(chi, l):
    """<sgn, chi^l> = o_K - o, as the orbits command reports it."""
    o, o_k = orbit_counts(chi, l)
    return o_k - o


@lru_cache(maxsize=None)
def subsets_action(n, k):
    return oracle.act_on_subsets(oracle.symmetric_group(n), k)


def valid_pairs():
    return [(n, k) for n in range(5, 9) for k in range(1, n) if n > 2 * k]


def test_01_subset_base_sizes_match_oracle(capsys):
    started = perf_counter()
    results = []
    for n, k in valid_pairs():
        formula = base_size_subsets(n, k).base_size
        brute, _ = oracle.tuple_orbit_counts(subsets_action(n, k))
        results.append((n, k, formula, brute))
    elapsed = perf_counter() - started
    mismatches = [r for r in results if r[2] != r[3]]
    ok = not mismatches and elapsed < 60
    detail = (f"{len(results)} (n,k) pairs with n=5..8, formula == brute "
              f"force everywhere, {elapsed:.1f}s"
              if ok else f"mismatches {mismatches}, {elapsed:.1f}s")
    report(capsys, ok, "subset-action base sizes, formula vs oracle", detail)
    assert ok, detail


REGULAR_ORBIT_PAIRS = ((5, 1), (5, 2), (6, 2), (7, 2), (7, 3))


def test_02_regular_orbit_counts_match_oracle(capsys):
    started = perf_counter()
    checks = 0
    bad = []
    for n, k in REGULAR_ORBIT_PAIRS:
        chi = char_vector_subsets(n, k)
        action = subsets_action(n, k)
        base = base_size_subsets(n, k).base_size
        _, counts = oracle.tuple_orbit_counts(action, base + 1)
        for l, _, _, brute in counts[1:]:
            formula = split_count(chi, l)
            checks += 1
            if formula != brute:
                bad.append((n, k, l, formula, brute))
    elapsed = perf_counter() - started
    ok = not bad and elapsed < 120
    detail = (f"{checks} (n,k,l) checks up to base size + 1 all equal, "
              f"{elapsed:.1f}s" if ok else f"mismatches {bad}, {elapsed:.1f}s")
    report(capsys, ok, "regular-orbit counts, formula vs oracle", detail)
    assert ok, detail


def test_03_kernel_orbit_surplus_identity(capsys):
    started = perf_counter()
    checks = 0
    bad = []
    for n, k in REGULAR_ORBIT_PAIRS:
        chi = char_vector_subsets(n, k)
        action = subsets_action(n, k)
        base = base_size_subsets(n, k).base_size
        _, counts = oracle.tuple_orbit_counts(action, base + 1)
        for l, brute_o, brute_o_k, _ in counts[1:]:
            o, o_k = orbit_counts(chi, l)
            # even minus odd permutations at each value
            signed = sum((2 * even - weight) * value ** l
                         for value, weight, even in chi.terms)
            checks += 1
            if ((o, o_k) != (brute_o, brute_o_k)
                    or (o_k - o) * factorial(n) != signed):
                bad.append((n, k, l, (o, o_k), (brute_o, brute_o_k), signed))
    elapsed = perf_counter() - started
    ok = not bad
    detail = (f"{checks} checks: orbit counts match brute force and "
              f"o_K - o equals the signed count, {elapsed:.1f}s"
              if ok else f"mismatches {bad}")
    report(capsys, ok, "kernel-orbit surplus identity", detail)
    assert ok, detail


def test_04_fifteen_point_partition_action(capsys):
    # The expected counts are proved in README, "Caveat on partition actions".
    started = perf_counter()
    code = cli.main(["partitions-action", "--n", "15", "--r", "3", "--s", "5"])
    captured = capsys.readouterr()
    elapsed = perf_counter() - started
    document = json.loads(captured.out) if code == 0 else {}
    out = document.get("outputs", {})
    trace = {int(l): int(v) for l, v in out.get("trace", [])}
    min_l = int(out["min_l"]) if out.get("min_l") is not None else None
    flagged = any(PARTITIONS_CAVEAT in w
                  and "agrees with the published base size 3" in w
                  for w in document.get("warnings", []))
    checks = [
        (code == 0, f"exit code {code}, expected 0"),
        (trace.get(1) == 0, f"l=1 count {trace.get(1)}, expected 0: every "
                            f"partition is fixed by a transposition"),
        (trace.get(2) == 0, f"l=2 count {trace.get(2)}, expected 0: every "
                            f"pair of partitions is fixed by a transposition"),
        ((trace.get(3) or 0) >= 1,
         f"l=3 count {trace.get(3)}, expected positive: the published base "
         f"size 3 gives a triple with trivial stabilizer"),
        (min_l == 3, f"min_l {min_l}, expected 3"),
        (flagged, f"caveat warning agreeing with the published base size 3 "
                  f"{'present' if flagged else 'missing'}"),
        (elapsed < 300, f"{elapsed:.1f}s, budget 300s"),
    ]
    ok = all(passed for passed, _ in checks)
    detail = "; ".join(message for _, message in checks)
    report(capsys, ok, "partition action on 15 points", detail)
    assert ok, detail


def test_05_projective_group_example(capsys):
    started = perf_counter()
    action = oracle.pgl2(7)
    controlling = oracle.is_base_controlling(action).controlling
    base, counts = oracle.tuple_orbit_counts(action, 3)
    regular = [count for _, _, _, count in counts[1:]]
    elapsed = perf_counter() - started
    ok = (controlling and base == 3 and regular == [0, 0, 1]
          and elapsed < 10)
    detail = (f"labels base-controlling, base size {base}, regular orbit "
              f"counts {regular} for l=1..3, {elapsed:.1f}s")
    report(capsys, ok, "degree-8 projective group", detail)
    assert ok, detail


def test_06_wreath_product_base_sizes(capsys):
    started = perf_counter()
    threshold = distinguishing_number(oracle.symmetric_group(2))
    results = []
    for n in (3, 4):
        formula = base_size_subsets(n, 1, threshold=threshold).base_size
        wreath = oracle.product_action_wreath(oracle.symmetric_group(n), 2)
        brute, _ = oracle.tuple_orbit_counts(wreath)
        results.append((n, formula, brute))
    elapsed = perf_counter() - started
    ok = (threshold == 2
          and all(f == b for _, f, b in results)
          and results[0][1] == 3
          and elapsed < 60)
    detail = (f"top-group threshold {threshold}; (n, formula, brute force) = "
              f"{results}, {elapsed:.1f}s")
    report(capsys, ok, "wreath-product base sizes on 9 and 16 points", detail)
    assert ok, detail


def test_07_random_property_suite(capsys):
    started = perf_counter()
    rng = random.Random(20250818)
    bad = []
    for _ in range(50):
        n = rng.randrange(3, 26)
        k = rng.randrange(1, (n - 1) // 2 + 1)
        l = rng.randrange(1, 9)
        chi = char_vector_subsets(n, k)
        total = sum((2 * even - weight) * value ** l
                    for value, weight, even in chi.terms)
        quotient, remainder = divmod(total, factorial(n))
        grown = split_count(chi, l + 1)
        if (remainder != 0 or quotient < 0
                or quotient != split_count(chi, l)
                or grown < comb(n, k) * quotient):
            bad.append((n, k, l))
    elapsed = perf_counter() - started
    ok = not bad and elapsed < 120
    detail = (f"50 seeded (n,k,l) triples: class sums divide n!, quotients "
              f"nonnegative, one-step growth at least C(n,k)-fold, "
              f"{elapsed:.1f}s" if ok else f"violations {bad}, {elapsed:.1f}s")
    report(capsys, ok, "random property suite", detail)
    assert ok, detail


def test_08_class_size_sanity(capsys):
    started = perf_counter()
    bad = []
    for n in range(2, 26):
        terms = char_vector_subsets(n, 1).terms
        if sum(weight for _, weight, _ in terms) != factorial(n):
            bad.append((n, "total"))
        if sum(2 * even - weight for _, weight, even in terms) != 0:
            bad.append((n, "signed"))
    elapsed = perf_counter() - started
    ok = not bad and elapsed < 10
    detail = (f"class sizes sum to n! and signed sums cancel for n=2..25, "
              f"{elapsed:.1f}s" if ok else f"failures {bad}")
    report(capsys, ok, "conjugacy-class size sanity", detail)
    assert ok, detail
