"""Command-line front end.

Each command returns its outputs and warnings; `main` writes every
document, one JSON object on stdout: command echo, inputs (the parsed
flags), outputs, method tag, warnings, and timing. All integers inside the
document are serialized as decimal strings since class sums routinely
exceed 64 bits. Exit codes: 0 success (also when the reader closes the
pipe early), 2 invalid input, 3 capacity exceeded, 4 internal consistency
failure.
"""

import argparse
import json
import os
import sys
import time

from . import basecount
from .errors import CapacityError, ConsistencyError, InputError


def _stringify(value):
    """Copy a JSON-ready structure, turning every int into a decimal string;
    an int longer than Python prints raises CapacityError."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:
            raise CapacityError(f"a {value.bit_length()}-bit count has more "
                                f"digits than Python prints") from None
    if isinstance(value, (list, tuple)):
        return [_stringify(item) for item in value]
    if isinstance(value, dict):
        return {key: _stringify(item) for key, item in value.items()}
    return value


def cmd_basesize(args):
    report = basecount.base_size_subsets(args.n, args.k, max_l=args.max_l)
    outputs = {"base_size": report.base_size}
    if args.trace:
        outputs["trace"] = report.witness_l_values
    return outputs, []


def cmd_orbits(args):
    o, o_k = basecount.orbit_counts_subsets(args.n, args.k, args.l)
    return {"regular": o_k - o, "o": o, "o_K": o_k}, []


def cmd_wreath(args):
    distinguishing = args.r if args.r is not None else args.dist
    report = basecount.base_size_subsets(args.n, args.k, distinguishing)
    return {"distinguishing_number": distinguishing,
            "base_size": report.base_size,
            "trace": report.witness_l_values}, []


def cmd_bounds(args):
    lower, upper = basecount.large_base_bounds(args.m, args.k, args.r)
    return {"lower": lower, "upper": upper}, []


def cmd_partitions_action(args):
    report = basecount.base_size_partitions_action(
        args.n, args.r, args.s, max_l=args.l_max)
    chi = report.character
    character = [("+".join(map(str, parts)), value)
                 for parts, value in chi.values]
    outputs = {
        "min_l": report.base_size,
        "trace": report.witness_l_values,
        "domain_size": chi.domain_size,
        "known_base_size": report.known_base_size,
        "character_values": character,
    }
    return outputs, [report.caveat] if report.caveat else []


def _formula_comparison(parsed, oracle_base, warnings):
    """Formula value for specs the formula modules cover, with relation."""
    try:
        match parsed.tags:
            case (("sn", n),):
                report = basecount.base_size_subsets(n, 1)
            case (("sn", n), ("subsets", k)):
                report = basecount.base_size_subsets(n, k)
            case (("sn", n), ("partitions", r, s)):
                report = basecount.base_size_partitions_action(n, r, s)
            case (("sn", n), ("subsets", k), ("wreath", r)):
                report = basecount.base_size_subsets(n, k, threshold=r)
            case (("sn", n), ("wreath", r)):
                report = basecount.base_size_subsets(n, 1, threshold=r)
            case _:
                return None
    except (InputError, CapacityError) as exc:
        warnings.append(f"formula comparison skipped: {exc}")
        return None
    if report.caveat:
        warnings.append(report.caveat)
    if oracle_base is None:
        relation = "no oracle base size"
    elif report.base_size == oracle_base:
        relation = "equal"
    else:
        relation = "different"
    return {"base_size": report.base_size, "relation": relation}


def cmd_verify(args):
    from . import oracle

    if args.l_max is not None:
        oracle.check_tuple_length(args.l_max)
    warnings = []
    parsed = oracle.parse_group_spec(args.group, labels_mode=args.labels)
    action = parsed.action
    faithful = action.kernel == 1

    outputs = {
        "degree": action.degree,
        "order": action.order,
        "kernel_order": action.kernel,
        "faithful": faithful,
        "base_size": None,
    }
    if not faithful:
        warnings.append("action is not faithful, no base exists")

    if not parsed.labelled:
        outputs["base_controlling"] = None
        warnings.append("no labels on this group, base-controlling check "
                        "and kernel orbit counts skipped")
    elif not action.signed:
        outputs["base_controlling"] = None
        warnings.append("labels are all +1, base-controlling check skipped")
    else:
        verdict = oracle.is_base_controlling(action)
        entry = {"controlling": verdict.controlling}
        if not verdict.controlling:
            entry["counterexample"] = list(verdict.counterexample)
            entry["stabilizer_order"] = verdict.stabilizer_order
            entry["label_image"] = list(verdict.label_image)
        outputs["base_controlling"] = entry

    base, counts = oracle.tuple_orbit_counts(action, args.l_max)
    outputs["base_size"] = base
    outputs["regular_orbits"] = [(l, regular) for l, _, _, regular
                                 in counts[1:]]
    if parsed.labelled:
        outputs["orbit_counts"] = [(l, o, o_k) for l, o, o_k, _ in counts[1:]]

    if args.seed is not None and parsed.labelled:
        pairs = oracle.label_homomorphism_spot_check(
            parsed.base_group, samples=50, seed=args.seed)
        outputs["label_spot_check"] = f"{pairs} random pairs multiplicative"

    outputs["formula"] = _formula_comparison(parsed, base, warnings)

    return outputs, warnings


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
    if args.command == "verify":
        # Importing the oracle here, before the clock, keeps its import out
        # of the timing and out of every formula command.
        from . import oracle  # noqa: F401
    started = time.perf_counter()
    try:
        outputs, warnings = args.func(args)
        inputs = {key: value for key, value in vars(args).items()
                  if key not in ("command", "func", "trace")}
        document = {
            "command": args.command,
            "inputs": _stringify(inputs),
            "outputs": _stringify(outputs),
            "method": ("oracle+formula" if args.command == "verify"
                       else "formula"),
            "warnings": warnings,
            "timing_seconds": round(time.perf_counter() - started, 6),
        }
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 4
    try:
        # one write: json.dump would write once per encoder chunk
        sys.stdout.write(json.dumps(document, indent=2) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone; send what is left to devnull so the flush
        # at shutdown raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
