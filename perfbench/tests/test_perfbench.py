"""Tests of the benchmark itself: the oracle, the span arithmetic, and runs
at a seed without pinned references.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
from oracle import Op, load_refs
from spans import SpanLog, self_time_by_name, self_times
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = run.HERE


@pytest.fixture(scope="module")
def nd():
    return run.import_program()


def _one_pass(ops, refs):
    runner = run.Runner(ops, refs)
    runner.run_pass()
    return runner


def test_oracle_counts_corrupted_fraction(nd, tmp_path):
    refs = load_refs("exact-query")
    op = next(o for o in WORKLOADS["exact-query"].build(nd, DEFAULT_SEED, tmp_path)
              if o.key.startswith("pair_box_prob rsj(5,2)"))
    assert op.key in refs
    assert _one_pass([op], refs).failed == 0

    corrupted = Op(op.key, op.phase, lambda: op.run() + Fraction(1, 10**9), op.canon, op.check)
    runner = _one_pass([corrupted], refs)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "differs from reference" in runner.problems[0]


def test_oracle_counts_flipped_output_byte(nd, tmp_path):
    refs = load_refs("lab-batch")
    op = next(o for o in WORKLOADS["lab-batch"].build(nd, DEFAULT_SEED, tmp_path)
              if o.phase == "n5_d2")
    rc, data = op.run()
    assert _one_pass([Op(op.key, op.phase, lambda: (rc, data), op.canon, op.check)], refs).failed == 0

    # flip one digit of a float, so the JSON still parses
    i = data.index(b'"est_variance": ') + len(b'"est_variance": ') + 3
    flipped = data[:i] + bytes([ord("0") + (data[i] - ord("0") + 1) % 10]) + data[i + 1:]
    runner = _one_pass([Op(op.key, op.phase, lambda: (rc, flipped), op.canon, op.check)], refs)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_oracle_counts_exceptions():
    def boom():
        raise RuntimeError("no")

    runner = _one_pass([Op("boom", "p", boom, repr)], {})
    assert runner.failed == 1 and "raised" in runner.problems[0]


def test_self_time_on_hand_built_tree():
    # root [0,10]: a [1,4] (a1 [2,3]), b [5,9] with overlapping children
    # [5,7] and [6,8], and c [9.5,11] which overruns the root
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 6.0, 9.5]
    ends = [10.0, 4.0, 3.0, 9.0, 7.0, 8.0, 11.0]
    parents = [-1, 0, 1, 0, 3, 3, 0]
    got = self_times(starts, ends, parents)
    want = [10 - (3 + 4 + 0.5), 3 - 1, 1, 4 - 3, 2, 2, 1.5]
    assert got == pytest.approx(want, abs=1e-12)


def test_self_times_sum_to_root_for_nested_spans():
    log = SpanLog()
    root = log.open("bench")
    for _ in range(3):
        a = log.open("outer")
        b = log.open("inner")
        log.close(b)
        log.close(a)
    log.close(root)
    selfs = self_time_by_name(log)
    assert sum(selfs.values()) == pytest.approx(log.end[root] - log.start[root], rel=1e-9)


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_other_seed_runs_with_seed_independent_checks(nd, tmp_path):
    seed = DEFAULT_SEED + 6
    refs = load_refs("lab-batch")
    ops = WORKLOADS["lab-batch"].build(nd, seed, tmp_path)
    assert not any(op.key in refs for op in ops)
    proc = _bench("--workload", "lab-batch", "--seed", str(seed), "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(ops)


def test_other_seed_exact_queries(nd, tmp_path):
    seed = DEFAULT_SEED + 6
    cheap = ("rsj(5,2)", "rsj(7,2)", "lhs(7,2)", "triple_", "no_shift", "shift_only")
    ops = [o for o in WORKLOADS["exact-query"].build(nd, seed, tmp_path)
           if any(c in o.key for c in cheap)]
    refs = load_refs("exact-query")
    assert any(o.key not in refs for o in ops)
    runner = _one_pass(ops, refs)
    assert runner.failed == 0, runner.problems


def test_traced_self_times_add_up_to_traced_wall():
    proc = _bench("--workload", "lab-batch", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["rng.permutation.calls"] > 0 and metrics["analyzer.box_pairs"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "lab-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
