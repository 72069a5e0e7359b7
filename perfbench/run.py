#!/usr/bin/env python3
"""negdep benchmark: one closed-loop caller, one thread, one process.

    python3 perfbench/run.py --workload {lab-batch,exact-scan,exact-query}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the program is imported from ./src.  The
run sets up SETUP_REPEATS times (importing negdep afresh, building the
inputs from the seed, loading the references, one warm-up operation), then
repeats whole passes over the workload's operations for about S seconds
(see measure), checking every output.  Timings are normalised for machine speed
(see speed.py).  With --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it print
every metric by name and unit, the environment and the work counts.  The
full result and the spans go to .bench_out/ in the checkout.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT_DIR = CHECKOUT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 2
MODULES = ("rng", "schemes", "exact", "samplers", "analyzer", "variance", "cli")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
              ("phase1_s", "s"), ("phase2_s", "s"), ("phase3_s", "s")]


def import_program():
    """Import negdep afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "negdep" or m.startswith("negdep.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"negdep.{m}") for m in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"negdep was imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods)


def environment() -> dict:
    import numpy

    from oracle import sha256

    commit = None
    head = CHECKOUT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = CHECKOUT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else None
    src_digest = sha256(b"".join(
        p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes()
        for p in sorted(SRC.rglob("*.py"))
    ))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src_digest,
        "loadavg_at_start": list(os.getloadavg()),
    }


class Runner:
    """Runs passes over the operations, timing and judging each one."""

    def __init__(self, ops, refs):
        self.ops = ops
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.next_op_id = 0

    def run_pass(self, log=None) -> dict:
        """One pass; returns its start and duration and each operation's."""
        from oracle import judge

        timings = []
        prior = {}
        t_pass = time.perf_counter()
        for op in self.ops:
            if log is not None:
                log.op_id = self.next_op_id
            self.next_op_id += 1
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception:
                dt = time.perf_counter() - t0
                problems = [f"{op.key}: raised\n{traceback.format_exc()}"]
            else:
                dt = time.perf_counter() - t0
                prior[op.key] = raw
                try:
                    problems = judge(op, raw, self.refs, prior)
                except Exception:
                    problems = [f"{op.key}: check raised\n{traceback.format_exc()}"]
            timings.append((t0, dt))
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return {"start": t_pass, "wall": time.perf_counter() - t_pass, "ops": timings}


def setup(workload, seed, tmp):
    """One full set-up; returns (program, ops, refs, start, seconds)."""
    from oracle import judge, load_refs

    t0 = time.perf_counter()
    nd = import_program()
    ops = workload.build(nd, seed, tmp)
    refs = load_refs(workload.name)
    warm = workload.warmup(nd, seed, tmp)
    problems = judge(warm, warm.run(), refs, {})
    seconds = time.perf_counter() - t0
    if problems:
        raise RuntimeError("warm-up failed: " + "; ".join(problems))
    return nd, ops, refs, t0, seconds


def end_to_end(workload, ops, passes, setups, speed) -> tuple:
    """Normalised end-to-end metrics and the workload's headline figures."""
    phases, durations = [], []
    for p in passes:
        sums = dict.fromkeys(workload.phases, 0.0)
        for op, (t0, dt) in zip(ops, p["ops"]):
            norm = speed.normalise(t0, dt)
            sums[op.phase] += norm
            durations.append(norm)
        sums["_wall"] = speed.normalise(p["start"], p["wall"])
        phases.append(sums)
    metrics = {
        "setup_s": median(speed.normalise(t0, dt) for t0, dt in setups),
        "wall_s": median(p["_wall"] for p in phases),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for i, phase in enumerate(workload.phases, 1):
        metrics[f"phase{i}_s"] = median(p[phase] for p in phases)
    headline = workload.headline(phases, ops, durations)
    headline["wall_s.raw"] = ("s", median(p["wall"] for p in passes))
    return metrics, headline, phases


def per_layer(log, traced, untraced) -> dict:
    from layers import counted_metrics
    from spans import root_durations, self_time_by_name

    k = len(traced)
    selfs = self_time_by_name(log)
    traced_wall = sum(root_durations(log)) / k
    out = counted_metrics(log, selfs, k)
    out["bench.self_s"] = selfs.get("bench", 0.0) / k
    out["trace.wall_s"] = traced_wall
    out["trace_overhead_s"] = traced_wall - sum(p["wall"] for p in untraced) / len(untraced)
    return out


def measure(runner, nd, args):
    """Runs passes while the next one should end within --seconds, and at
    least MIN_PASSES; with tracing, each step is an untraced then a traced
    pass, and one step is enough."""
    from layers import targets
    from spans import ROOT, SpanLog, install, uninstall

    untraced, traced = [], []
    log = SpanLog() if args.trace else None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append(runner.run_pass())
        if args.trace:
            undo = install(log, targets(log, nd), nd.analyzer.BudgetExceededError)
            root = log.open(ROOT)
            try:
                traced.append(runner.run_pass(log))
            finally:
                log.close(root)
                uninstall(undo)
        now = time.perf_counter()
        enough = len(untraced) >= (1 if args.trace else MIN_PASSES)
        if enough and (now - start) + (now - t0) > args.seconds:
            break
    return untraced, traced, log


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "negdep" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'negdep'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from layers import PER_LAYER
    from speed import SpeedSampler
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment()
    tmp = CHECKOUT / ".bench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    speed = SpeedSampler()
    if not args.trace:
        speed.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            nd, ops, refs, t0, seconds = setup(workload, args.seed, tmp)
            setups.append((t0, seconds))
        runner = Runner(ops, refs)
        untraced, traced, log = measure(runner, nd, args)
    finally:
        if not args.trace:
            speed.stop()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    details = {"passes_untraced": len(untraced), "passes_traced": len(traced),
               "setup_raw_s": [dt for _, dt in setups],
               "pass_raw_s": [p["wall"] for p in untraced],
               "op_raw_median_s": {op.key: median(p["ops"][i][1] for p in untraced)
                                   for i, op in enumerate(ops)}}
    if args.trace:
        values = per_layer(log, traced, untraced)
        metrics = {name: (unit, values[name]) for name, unit in PER_LAYER}
        headline = {}
    else:
        values, headline, phases = end_to_end(workload, ops, untraced, setups, speed)
        metrics = {name: (unit, values[name]) for name, unit in END_TO_END}
        details["pass_normalised_s"] = phases
    report(workload, args, env, runner, metrics, headline, details, log)
    return 0


def report(workload, args, env, runner, metrics, headline, details, log):
    failed_ratio = runner.failed / runner.attempted
    print(f"negdep benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"work: operations_per_pass={len(runner.ops)} "
          f"passes_untraced={details['passes_untraced']} passes_traced={details['passes_traced']} "
          f"attempted={runner.attempted} failed={runner.failed}")
    rows = [(name, unit, value) for name, (unit, value) in {**metrics, **headline}.items()]
    rows.append(("failed_ratio", "ratio", failed_ratio))
    for name, unit, value in rows:
        print(f"  {name:<44} {value!r:>24} {unit}")
    for p in runner.problems[:20]:
        print("problem: " + p, file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-trace{args.trace}"
    full = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "work": {"operations_per_pass": len(runner.ops), "attempted": runner.attempted,
                 "failed": runner.failed},
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in rows},
        "details": details, "problems": runner.problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    if log is not None:
        log.save(OUT_DIR / f"{stem}-spans.npz")

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
