#!/usr/bin/env python3
"""Record the golden output of every case any seed can draw.

    python3 perfbench/record_goldens.py

Run from the root of a source checkout. Each case runs once as a
`basechar` subprocess; its JSON document, minus `timing_seconds`, is
stored in `perfbench/goldens.json` under the case key, together with the
commit it was recorded at. A case whose output fails the independent
checks in `cases.py` is not recorded, and the script exits 1.
"""

import json
import os
from pathlib import Path
import sys

import cases as workloads
from run import GOLDENS, describe_environment, run_python


def main():
    root = Path.cwd()
    src = root / "src"
    if not (src / "basechar" / "cli.py").is_file():
        print(f"error: no basechar sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    recorded = {}
    status = 0
    for workload in workloads.WORKLOADS:
        for case in workloads.universe(workload):
            command = run_python(["-m", "basechar.cli", *case.argv], env, out_dir)
            if command.code != 0:
                print(f"FAILED {case.key}: exit {command.code}\n{command.stderr}")
                status = 1
                continue
            doc = json.loads(command.stdout)
            errors = workloads.independent_checks(case, doc)
            if errors:
                print(f"FAILED {case.key}: {'; '.join(errors)}")
                status = 1
                continue
            doc.pop("timing_seconds")
            recorded[case.key] = doc
            print(f"{command.wall:7.2f} s  {case.key}", flush=True)
    GOLDENS.write_text(json.dumps({
        "recorded_at": describe_environment(root, None)["git_commit"],
        "cases": recorded,
    }, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
