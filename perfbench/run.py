#!/usr/bin/env python3
"""basechar benchmark: time to answer of `basechar` commands.

    python3 perfbench/run.py --workload subsets --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. The seed draws one pass of commands from the workload (see
`cases.py`). In a closed loop with one client, the benchmark runs the pass
again and again, one `basechar` subprocess at a time, until `--seconds`
have gone by, and checks every output against its golden and against
independent facts.

With `--trace 0` it prints the end-to-end metrics. Per command it takes
the median over its runs; `wall_s`, `compute_s` (the commands' own
`timing_seconds`) and `cmd_max_s` are the sum and the largest of those
medians. `setup_s` is the median start-up of a bare package import, and
`peak_rss_mib` the largest max-RSS of any command.

Times are scaled to a reference machine speed. On a shared machine other
tenants change the CPU speed by up to 60% over minutes, which moves every
time in a run alike; so before each command and each set-up import the
benchmark times a fixed pure-Python loop (`Calibration`), and multiplies
the run's times by `REFERENCE_PROBE_S` over the run's tenth percentile
of loop times. The unscaled times and the loop times are printed and kept
in the results.

With `--trace 1` each command runs twice per pass: once as a subprocess,
untraced, and once in-process through `cli.main` with every public
function of the package wrapped by a span recorder (`spans.py`). It
prints the per-layer metrics: span times (per command the median over
its runs, summed over the pass), work counters derived from inputs and
outputs, and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Full results go to
`.bench_out/` in the checkout. The exit code is 0 when every output was
correct, 1 when one was not and 2 when the benchmark cannot run.
"""

import argparse
import contextlib
from dataclasses import dataclass
import io
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import cases as workloads
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SETUP_RUNS = 9
COMMAND_TIMEOUT_S = 60.0
# Calibration loop time at the reference speed: about the loop's time on an
# unloaded 2-vCPU x86-64 virtual machine with Python 3.11.
REFERENCE_PROBE_S = 0.028

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "compute_s": "s", "cmd_max_s": "s",
    "peak_rss_mib": "MiB",
}
LAYER_UNITS = {
    "partitions.enumerate_s": "s", "partitions.class_data_s": "s",
    "partitions.classes": "count",
    "characters.char_vector_s": "s", "characters.sign_vector_s": "s",
    "characters.inner_products_s": "s", "characters.char_vector_calls": "count",
    "characters.l_steps": "count", "characters.terms": "count",
    "characters.max_sum_bits": "bits",
    "kernels.table_s": "s", "kernels.mask_s": "s", "kernels.sweep_s": "s",
    "kernels.rows": "count", "kernels.tests": "count",
    "kernels.bytes_computed": "bytes",
    "basecount.search_s": "s", "basecount.self_s": "s",
    "oracle.build_s": "s", "oracle.base_search_s": "s",
    "oracle.controlling_s": "s", "oracle.regular_orbits_s": "s",
    "oracle.orbit_counts_s": "s", "oracle.order": "count",
    "oracle.degree": "count", "oracle.table_cells": "count",
    "cli.main_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}


class Calibration:
    """Machine speed during a run, from a fixed loop timed between commands."""

    def __init__(self):
        self.probes = []

    def probe(self):
        started = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        self.probes.append(time.perf_counter() - started)

    def fast_probe(self):
        """The tenth percentile of the loop times: near the machine's top
        speed whenever the run reached it a few times, unlike the median,
        which moves with every burst of load, or the minimum, which one
        lucky loop sets."""
        return statistics.quantiles(self.probes, n=10)[0]

    def scale(self):
        """Factor that turns this run's times into reference-speed times."""
        return REFERENCE_PROBE_S / self.fast_probe()


@dataclass
class Command:
    """One finished `basechar` subprocess."""

    wall: float
    code: int
    max_rss_kib: int
    stdout: str
    stderr: str
    timed_out: bool


def run_python(args, env, out_dir, timeout=COMMAND_TIMEOUT_S):
    """Run `python <args>` and wait for it; wall time covers start-up."""
    with tempfile.TemporaryFile(dir=out_dir) as out, \
            tempfile.TemporaryFile(dir=out_dir) as err:
        timed_out = threading.Event()
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Command(wall, proc.returncode, usage.ru_maxrss,
                       out.read().decode(), err.read().decode(),
                       timed_out.is_set())


def check_output(case, code, stdout, goldens):
    """Parse one command's output and list what is wrong with it."""
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    golden = goldens.get(case.key)
    if golden is None:
        return doc, ["no golden output for this case"]
    body = {key: value for key, value in doc.items() if key != "timing_seconds"}
    expected = workloads.expected_document(case, golden)
    errors = [f"{key} differs from the golden output"
              for key in sorted(set(body) | set(expected))
              if body.get(key) != expected.get(key)]
    return doc, errors + workloads.independent_checks(case, doc)


def measure_setup(env, out_dir, calibration):
    """Median start-up of a bare package import, after one warm-up that
    writes the bytecode caches."""
    args = ["-c", "import basechar.cli"]
    times = []
    for attempt in range(SETUP_RUNS + 1):
        calibration.probe()
        command = run_python(args, env, out_dir)
        if command.code != 0:
            raise RuntimeError(f"importing basechar.cli failed:\n{command.stderr}")
        if attempt:
            times.append(command.wall)
    return statistics.median(times)


def describe_environment(root, seed):
    import numpy
    from basechar import kernels

    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=root, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only a checkout that is itself the top of a git repository has a commit.
    top = git("rev-parse", "--show-toplevel")
    commit = (git("rev-parse", "HEAD")
              if top and Path(top).resolve() == root.resolve() else None)
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": kernels.HAS_NUMBA,
        "kernel_backend": kernels.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": bool(status) if commit else None,
        "seed": seed,
    }


class Tally:
    """Attempts, failures and per-case samples of one run."""

    def __init__(self, cases):
        self.attempted = 0
        self.failures = []
        self.samples = {case.argv: [] for case in cases}
        self.counters = {}

    def record(self, case, doc, errors, sample):
        """Count one attempt; keep its sample when the output was right."""
        self.attempted += 1
        if not errors:
            counters = workloads.counters(case, doc)
            previous = self.counters.setdefault(case.argv, counters)
            if counters != previous:
                errors = ["work counters differ between runs of this case"]
        if errors:
            self.failures.append({"case": " ".join(case.argv), "errors": errors})
        else:
            self.samples[case.argv].append(sample)

    def medians(self, field, median=statistics.median):
        """Per case, the median of `field` over its runs."""
        return {argv: median(s[field] for s in runs)
                for argv, runs in self.samples.items() if runs}


def run_untraced(case, env, out_dir, goldens, tally, calibration):
    calibration.probe()
    command = run_python(["-m", "basechar.cli", *case.argv], env, out_dir)
    if command.timed_out:
        doc, errors = None, [f"timed out after {COMMAND_TIMEOUT_S} s"]
    else:
        doc, errors = check_output(case, command.code, command.stdout, goldens)
    if errors and command.stderr:
        errors.append(command.stderr.strip()[-500:])
    sample = {"wall_s": command.wall, "max_rss_kib": command.max_rss_kib,
              "compute_s": doc["timing_seconds"] if doc else None}
    tally.record(case, doc, errors, sample)
    return command.wall


def run_traced(case, recorder, goldens, tally, case_id):
    """Run one case in-process through `cli.main` under the recorder."""
    from basechar import cli, kernels

    # A fresh CLI process starts with an empty partition-table memo.
    kernels._table_memo.clear()
    recorder.case_id = case_id
    first = len(recorder)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(case.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed case, not a failed benchmark
        code = "traceback: " + traceback.format_exc(limit=-3)
    doc, errors = check_output(case, code, stdout.getvalue(), goldens)
    sample = recorder.layer_metrics(first, len(recorder)) if not errors else {}
    tally.record(case, doc, errors, sample)


def closed_loop(cases, seconds, run_case):
    """Run the pass until `seconds` are up. The first pass always runs in
    full; later, a command is started only if its last run would still end
    before the deadline."""
    deadline = time.perf_counter() + seconds
    last = {}
    passes = 0
    while True:
        for case in cases:
            if passes and time.perf_counter() + last[case.argv] > deadline:
                return passes
            last[case.argv] = run_case(case)
        passes += 1


def end_to_end_metrics(tally, setup_s):
    """The end-to-end metrics with unscaled times."""
    walls = tally.medians("wall_s")
    computes = tally.medians("compute_s")
    rss = [s["max_rss_kib"] for runs in tally.samples.values() for s in runs]
    return {
        "setup_s": setup_s,
        "wall_s": sum(walls.values()),
        "compute_s": sum(computes.values()),
        "cmd_max_s": max(walls.values(), default=0.0),
        "peak_rss_mib": max(rss, default=0) / 1024,
    }


def scaled(metrics, units, scale):
    return {name: value * scale if units[name] == "s" else value
            for name, value in metrics.items()}


def layer_metrics(traced, untraced, cases):
    metrics = {}
    for name in LAYER_UNITS:
        if name == "trace.overhead_s" or name in workloads.COUNTER_NAMES:
            continue
        # Span counts repeat exactly, so their median stays a whole number.
        median = statistics.median_low if LAYER_UNITS[name] == "count" else statistics.median
        metrics[name] = sum(traced.medians(name, median).values())
    combined = {name: [traced.counters[case.argv][name]
                       for case in cases if case.argv in traced.counters]
                for name in workloads.COUNTER_NAMES}
    for name, values in combined.items():
        fold = max if name in workloads.MAX_COUNTERS else sum
        metrics[name] = fold(values) if values else 0
    metrics["trace.overhead_s"] = (metrics["cli.main_s"]
                                   - sum(untraced.medians("compute_s").values()))
    return metrics


def layer_counts_repeat(tally):
    """Span counts of one case are the same in every run of it."""
    for argv, runs in tally.samples.items():
        for key in ("trace.spans", "characters.char_vector_calls"):
            if len({run[key] for run in runs}) > 1:
                tally.failures.append({"case": " ".join(argv),
                                       "errors": [f"{key} differs between runs"]})


def print_report(args, environment, cases, tally, metrics, units, passes,
                 attempted, failures):
    print(f"basechar benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}, {passes} passes")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    walls = tally.medians("wall_s")
    for case in cases:
        runs = len(tally.samples[case.argv])
        wall = walls.get(case.argv)
        shown = f"{wall:8.3f} s" if wall is not None else "       -  "
        print(f"  {runs:3d} runs  median unscaled wall {shown}  {' '.join(case.argv)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6f} {units[name]}")
    print(f"{'fail_frac':32s} {len(failures) / max(attempted, 1):14.6f} "
          f"({len(failures)} of {attempted} commands)")
    for failure in failures[:20]:
        print(f"FAILED {failure['case']}: {'; '.join(failure['errors'])}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "basechar" / "cli.py").is_file():
        print(f"error: no basechar sources under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if not GOLDENS.is_file():
        print(f"error: golden outputs {GOLDENS} are missing", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())["cases"]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    sys.path.insert(0, str(src))

    calibration = Calibration()
    try:
        setup_s = measure_setup(env, out_dir, calibration)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    environment = describe_environment(root, args.seed)
    cases = workloads.draw(args.workload, args.seed)
    untraced = Tally(cases)

    if args.trace:
        recorder = SpanRecorder()
        traced = Tally(cases)
        labels = []

        def run_case(case):
            labels.append(" ".join(case.argv))
            wall = run_untraced(case, env, out_dir, goldens, untraced,
                                calibration)
            run_traced(case, recorder, goldens, traced, len(labels) - 1)
            return wall * 2

        restore = recorder.install()
        try:
            passes = closed_loop(cases, args.seconds, run_case)
        finally:
            restore()
        layer_counts_repeat(traced)
        metrics = layer_metrics(traced, untraced, cases)
        units = LAYER_UNITS
        recorder.write_tsv(out_dir / f"spans-{args.workload}.tsv.gz", labels)
        tallies = (untraced, traced)
        unscaled = None
    else:
        passes = closed_loop(
            cases, args.seconds,
            lambda case: run_untraced(case, env, out_dir, goldens, untraced,
                                      calibration))
        unscaled = end_to_end_metrics(untraced, setup_s)
        units = END_TO_END_UNITS
        metrics = scaled(unscaled, units, calibration.scale())
        tallies = (untraced,)

    attempted = sum(t.attempted for t in tallies)
    failures = [f for t in tallies for f in t.failures]
    print_report(args, environment, cases, untraced, metrics, units, passes,
                 attempted, failures)
    if unscaled is not None:
        print(f"times above are scaled by {calibration.scale():.4f}: reference "
              f"loop {REFERENCE_PROBE_S} s, tenth-percentile loop in this run "
              f"{calibration.fast_probe():.6f} s; unscaled: "
              + ", ".join(f"{k} {v:.6f}" for k, v in unscaled.items()))
    correct = not failures and all(untraced.samples.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    details = dict(result, workload=args.workload, seconds=args.seconds,
                   trace=args.trace, passes=passes, environment=environment,
                   excluded=[{"case": c, "reason": r} for c, r in workloads.EXCLUDED],
                   failures=failures, calibration_probes_s=calibration.probes,
                   unscaled=unscaled,
                   cases={" ".join(c.argv): untraced.samples[c.argv] for c in cases})
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
