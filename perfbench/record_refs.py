#!/usr/bin/env python3
"""Pin every workload's reference outputs at the default seed.

    python3 perfbench/record_refs.py [--workload NAME]

Runs each operation once from the checkout's src, applies the checks that
hold for any seed, and writes perfbench/refs/<workload>.json.  Run it only
on a commit whose outputs are known to be right: every later benchmark run
is judged against what it writes.
"""

import argparse
import json
import shutil
import sys

import run
from oracle import judge, refs_path
from workloads import DEFAULT_SEED, WORKLOADS


def record(workload, tmp) -> int:
    nd = run.import_program()
    refs, failures, prior = {}, 0, {}
    for op in workload.build(nd, DEFAULT_SEED, tmp):
        raw = op.run()
        prior[op.key] = raw
        problems = judge(op, raw, {}, prior)
        for p in problems:
            print("problem: " + p, file=sys.stderr)
        failures += bool(problems)
        refs[op.key] = op.canon(raw)
    path = refs_path(workload.name)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload.name}: {len(refs)} references, {failures} failed checks -> {path}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    names = [args.workload] if args.workload else list(WORKLOADS)
    tmp = run.CHECKOUT / ".bench_tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        failures = sum(record(WORKLOADS[name], tmp) for name in names)
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
