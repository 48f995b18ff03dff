"""Command-line front end.

Every command prints one JSON document to stdout: command echo, inputs,
outputs, method tag, warnings, and timing. All integers inside the document
are serialized as decimal strings since class sums routinely exceed 64 bits.
Exit codes: 0 success, 2 invalid input, 3 capacity exceeded, 4 internal
consistency failure.
"""

import argparse
import json
import sys
import time

from . import basecount, oracle
from .characters import (char_vector_subsets, inner_product, orbit_counts,
                         sign_vector)
from .errors import CapacityError, ConsistencyError, InputError
from .partitions import enumerate_cycle_types


def _stringify(value):
    """Copy a JSON-ready structure, turning every int into a decimal string."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_stringify(item) for item in value]
    if isinstance(value, dict):
        return {key: _stringify(item) for key, item in value.items()}
    return value


def _document(command, inputs, outputs, method, warnings, started):
    return {
        "command": command,
        "inputs": _stringify(inputs),
        "outputs": _stringify(outputs),
        "method": method,
        "warnings": list(warnings),
        "timing_seconds": round(time.perf_counter() - started, 6),
    }


def cmd_basesize(args):
    started = time.perf_counter()
    report = basecount.base_size_subsets(args.n, args.k, max_l=args.max_l)
    outputs = {"base_size": report.base_size}
    if args.trace:
        outputs["trace"] = report.witness_l_values
    return _document("basesize", {"n": args.n, "k": args.k,
                                  "max_l": args.max_l},
                     outputs, "formula", [], started)


def cmd_orbits(args):
    started = time.perf_counter()
    if args.l < 0:
        raise InputError("l must be nonnegative")
    chi = char_vector_subsets(args.n, args.k)
    phi = sign_vector(args.n)
    regular = inner_product(phi, chi, args.l)
    o, o_k = orbit_counts(chi, args.l)
    return _document("orbits", {"n": args.n, "k": args.k, "l": args.l},
                     {"regular": regular, "o": o, "o_K": o_k},
                     "formula", [], started)


def cmd_wreath(args):
    started = time.perf_counter()
    distinguishing = args.r if args.r is not None else args.dist
    report = basecount.base_size_wreath_subsets(args.n, args.k, distinguishing)
    inputs = {"n": args.n, "k": args.k, "r": args.r, "dist": args.dist}
    outputs = {
        "distinguishing_number": report.distinguishing_number,
        "base_size": report.base_size,
        "trace": report.threshold_trace,
    }
    return _document("wreath", inputs, outputs, "formula", [], started)


def cmd_bounds(args):
    started = time.perf_counter()
    lower, upper = basecount.large_base_bounds(args.m, args.k, args.r)
    return _document("bounds", {"m": args.m, "k": args.k, "r": args.r},
                     {"lower": lower, "upper": upper}, "formula", [], started)


def cmd_partitions_action(args):
    started = time.perf_counter()
    report = basecount.base_size_partitions_action(
        args.n, args.r, args.s, max_l=args.l_max)
    chi = report.character
    character = [(str(ct), value)
                 for ct, value in zip(enumerate_cycle_types(args.n),
                                      chi.values)]
    outputs = {
        "min_l": report.base_size,
        "trace": report.witness_l_values,
        "domain_size": chi.domain_size,
        "known_base_size": report.known_base_size,
        "character_values": character,
    }
    warnings = [report.caveat] if report.caveat else []
    return _document("partitions-action",
                     {"n": args.n, "r": args.r, "s": args.s,
                      "l_max": args.l_max},
                     outputs, "formula", warnings, started)


def _formula_comparison(parsed, oracle_base, warnings):
    """Formula value for specs the formula modules cover, with relation."""
    if parsed.base_kind != "sn":
        return None
    n = parsed.base_param
    tags = parsed.action_tags
    try:
        if tags == ():
            report = basecount.base_size_subsets(n, 1)
        elif len(tags) == 1 and tags[0].startswith("subsets:"):
            report = basecount.base_size_subsets(n, int(tags[0][8:]))
        elif len(tags) == 1 and tags[0].startswith("partitions:"):
            r_text, s_text = tags[0][len("partitions:"):].split("x", 1)
            report = basecount.base_size_partitions_action(
                n, int(r_text), int(s_text))
            if report.caveat:
                warnings.append(report.caveat)
        elif (len(tags) == 2 and tags[0].startswith("subsets:")
              and tags[1].startswith("wreath:")):
            wreath = basecount.base_size_wreath_subsets(
                n, int(tags[0][8:]), int(tags[1][7:]))
            report = basecount.BaseSizeReport(
                wreath.inner_action, wreath.base_size,
                wreath.threshold_trace, "formula")
        elif len(tags) == 1 and tags[0].startswith("wreath:"):
            wreath = basecount.base_size_wreath_subsets(
                n, 1, int(tags[0][7:]))
            report = basecount.BaseSizeReport(
                wreath.inner_action, wreath.base_size,
                wreath.threshold_trace, "formula")
        else:
            return None
    except InputError as exc:
        warnings.append(f"formula comparison skipped: {exc}")
        return None
    if oracle_base is None:
        relation = "no oracle base size"
    elif report.base_size == oracle_base:
        relation = "equal"
    else:
        relation = "different"
    return {"base_size": report.base_size, "relation": relation}


def cmd_verify(args):
    started = time.perf_counter()
    basecount.validate_l_limit(args.l_max)
    warnings = []
    parsed = oracle.parse_group_spec(args.group, labels_mode=args.labels)
    action = parsed.action
    kernel = oracle.kernel_order(action)
    faithful = kernel == 1

    outputs = {
        "degree": action.degree,
        "order": action.order,
        "kernel_order": kernel,
        "faithful": faithful,
    }

    if faithful:
        base = oracle.base_size_bruteforce(action)
        outputs["base_size"] = base
    else:
        base = None
        outputs["base_size"] = None
        warnings.append("action is not faithful, no base exists")

    if action.labels is not None:
        verdict = oracle.is_base_controlling(action)
        entry = {"controlling": verdict.controlling}
        if not verdict.controlling:
            entry["counterexample"] = list(verdict.counterexample)
            entry["stabilizer_order"] = verdict.stabilizer_order
            entry["label_image"] = list(verdict.label_image)
        outputs["base_controlling"] = entry
    else:
        outputs["base_controlling"] = None
        warnings.append("no labels on this group, base-controlling check "
                        "and kernel orbit counts skipped")

    l_max = args.l_max if args.l_max is not None else \
        (base + 1 if base is not None else 2)
    regular = []
    counts = []
    for l in range(1, l_max + 1):
        regular.append((l, oracle.regular_orbits_on_tuples(action, l)))
        if action.labels is not None:
            o, o_k = oracle.orbit_counts_bruteforce(action, l)
            counts.append((l, o, o_k))
    outputs["regular_orbits"] = regular
    if counts:
        outputs["orbit_counts"] = counts

    if args.seed is not None and parsed.base_group.labels is not None:
        pairs = oracle.label_homomorphism_spot_check(
            parsed.base_group, samples=50, seed=args.seed)
        outputs["label_spot_check"] = f"{pairs} random pairs multiplicative"

    outputs["formula"] = _formula_comparison(parsed, base, warnings)

    return _document("verify",
                     {"group": args.group, "labels": args.labels,
                      "l_max": args.l_max, "seed": args.seed},
                     outputs, "oracle+formula", warnings, started)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="basechar",
        description="Base sizes and regular-orbit counts of permutation "
                    "groups from exact character sums, with a brute-force "
                    "oracle for cross-checking.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basesize",
                       help="base size of the symmetric group on k-subsets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-l", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_basesize)

    p = sub.add_parser("orbits",
                       help="regular-orbit and orbit counts on l-tuples")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("wreath",
                       help="base size of a wreath product in product action")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--r", type=int, default=None,
                       help="top group is the full symmetric group on r points")
    group.add_argument("--dist", type=int, default=None,
                       help="distinguishing number of an explicit top group")
    p.set_defaults(func=cmd_wreath)

    p = sub.add_parser("bounds",
                       help="base-size bounds for large-base groups")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("partitions-action",
                       help="candidate base size for the uniform-partition "
                            "action")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--l-max", type=int, default=None)
    p.set_defaults(func=cmd_partitions_action)

    p = sub.add_parser("verify",
                       help="run the brute-force oracle on a group spec")
    p.add_argument("--group", required=True,
                   help="e.g. sn:6/subsets:2, pgl2:7, an:5, "
                        "gens:!(1,2);(1,2,3)/wreath:2")
    p.add_argument("--labels", choices=("auto", "sgn"), default="auto")
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        document = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4
    json.dump(document, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
