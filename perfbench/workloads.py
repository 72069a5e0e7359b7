"""The three workloads: their operations, checks and headline metrics.

Every workload splits into three phases, reported as phase1_s .. phase3_s
(seconds per pass), so all workloads share one metric set:

  lab-batch    1: `negdep variance --config` at (5,2)   2: the same at (31,4)
               3: generate + floats + cells, one point set at a time
  exact-scan   1: nuod_scan, enumerated route           2: factorized route
               3: `negdep analyze nuod --pairs-csv`
  exact-query  1: pairprob triples                      2: enumeration vs
               closed form                              3: structural checks

Inputs are built only from public entry points that the planned analyzer
and sampler rewrites keep, and no call passes `threads`.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Callable

from oracle import Op, fmt, sha256

DEFAULT_SEED = 1

# -- lab-batch ------------------------------------------------------------------

# the README batch, at fewer replications so that one pass takes about a second
REPLICATIONS = 500
INTEGRANDS = ["additive", "product", "box_indicator", "smooth_monotone"]
LAB_SCHEMES = [{"kind": "rsj_lattice"}, {"kind": "lhs"}]
LAB_SIZES = {"n5_d2": (5, 2), "n31_d4": (31, 4)}
POINTSETS_PER_SPEC = 50


def _generate_specs(sch):
    n, d = 31, 4
    rsj = "rsj_lattice"
    return [
        ("stratified1d(31)", sch.SchemeSpec("stratified1d", n, 1)),
        ("lhs(31,4)", sch.SchemeSpec("lhs", n, d)),
        ("patterson(31,4)", sch.SchemeSpec("patterson", n, d)),
        ("full_rsj(31,4)", sch.SchemeSpec(rsj, n, d)),
        ("rsj(31,4) g=(1,3,9,27)", sch.SchemeSpec(rsj, n, d, generator=(1, 3, 9, 27))),
        ("rsj(31,4) shift=torus", sch.SchemeSpec(rsj, n, d, shift="continuous_torus")),
        ("rsj(31,4) shift=none", sch.SchemeSpec(rsj, n, d, shift="none")),
        ("rsj(31,4) jitter=off", sch.SchemeSpec(rsj, n, d, jitter=False)),
    ]


def _check_variance(nd, size, raw, prior):
    rc, data = raw
    if rc != 0:
        return [f"exit code {rc}"]
    results = json.loads(data)["results"]
    problems = []
    if len(results) != len(LAB_SCHEMES) * len(INTEGRANDS):
        problems.append(f"{len(results)} result cells")
    for r in results:
        if (r["n"], r["dim"]) != size or r["replications"] != REPLICATIONS:
            problems.append(f"cell {r['integrand']} has the wrong size")
        if r["biased_capable"]:
            continue
        exact = float(nd.variance.get_integrand(r["integrand"], r["dim"]).exact_mean)
        se = math.sqrt(r["est_variance"] / r["replications"])
        if abs(r["est_mean"] - exact) > 4 * se:
            problems.append(f"{r['scheme']['kind']}/{r['integrand']}: mean off by > 4 SE")
        if not r["dominates"]:
            problems.append(f"{r['scheme']['kind']}/{r['integrand']}: does not dominate MC")
    return problems


def _check_pointset(spec, raw, prior):
    nums, floats, cells = raw
    n, dim = spec.n, spec.dim
    if nums.shape != (n, dim) or floats.shape != (n, dim):
        return ["wrong shape"]
    problems = []
    if floats.min() < 0 or floats.max() >= 1:
        problems.append("floats outside [0, 1)")
    if spec.shift != "continuous_torus" or spec.kind != "rsj_lattice":
        for i in range(dim):
            if sorted(cells[:, i].tolist()) != list(range(n)):
                problems.append(f"coordinate {i} is not stratified")
    offsets = nums & ((1 << 53) - 1)
    if spec.kind == "patterson" and (offsets != 1 << 52).any():
        problems.append("a point is off its cell midpoint")
    if spec.kind == "rsj_lattice" and not spec.jitter and spec.shift != "continuous_torus":
        if offsets.any():
            problems.append("a jitterless point is off its cell corner")
    return problems


def lab_batch(nd, seed, tmp):
    ops = []
    for phase, (n, dim) in LAB_SIZES.items():
        cfg = {"seed": seed, "replications": REPLICATIONS, "sizes": [[n, dim]],
               "schemes": LAB_SCHEMES, "integrands": INTEGRANDS}
        cfg_path = tmp / f"batch-{phase}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp / f"variance-{phase}.json"
        argv = ["variance", "--config", str(cfg_path), "--out-json", str(out)]

        def run(argv=argv, out=out):
            return nd.cli.main(argv), out.read_bytes()

        ops.append(Op(
            key=f"variance {phase} seed={seed} replications={REPLICATIONS}",
            phase=phase,
            run=run,
            canon=lambda raw: [raw[0], sha256(raw[1])],
            check=lambda raw, prior, size=(n, dim): _check_variance(nd, size, raw, prior),
        ))
    for label, spec in _generate_specs(nd.schemes):
        for j in range(POINTSETS_PER_SPEC):
            s = seed * 1000 + j

            def run(spec=spec, s=s):
                ps = nd.samplers.generate(spec, s)
                return ps.nums, ps.floats(), ps.cells()

            ops.append(Op(
                key=f"generate {label} seed={s}",
                phase="generate",
                run=run,
                canon=lambda raw: sha256(raw[0].tobytes())[:16],
                check=lambda raw, prior, spec=spec: _check_pointset(spec, raw, prior),
            ))
    return ops


def lab_warmup(nd, seed, tmp):
    f = nd.variance.get_integrand("additive", 2)
    spec = nd.schemes.SchemeSpec("lhs", 5, 2)

    def run():
        return nd.variance.variance_compare(f, spec, 100, nd.rng.RngStream(seed))

    return Op(key="warm-up variance_compare lhs(5,2)", phase="warmup", run=run,
              canon=lambda raw: raw.est_mean)


def lab_headline(passes, ops, durations):
    reps = len(LAB_SCHEMES) * len(INTEGRANDS) * REPLICATIONS
    sets = sum(op.phase == "generate" for op in ops)
    return {
        "reps_per_s.n5_d2": ("1/s", median(reps / p["n5_d2"] for p in passes)),
        "reps_per_s.n31_d4": ("1/s", median(reps / p["n31_d4"] for p in passes)),
        "pointsets_per_s": ("1/s", median(sets / p["generate"] for p in passes)),
    }


# -- exact-scan -----------------------------------------------------------------


def _scan_specs(sch):
    rsj = "rsj_lattice"
    enumerated = [
        ("rsj(5,2) g=(1,2)", sch.SchemeSpec(rsj, 5, 2, generator=(1, 2)), 5),
        ("rsj(5,2) shift=none", sch.SchemeSpec(rsj, 5, 2, shift="none"), 5),
        ("rsj(5,2) g=(1,2) jitter=off", sch.SchemeSpec(rsj, 5, 2, generator=(1, 2), jitter=False), 5),
        ("rsj(7,2) g=(1,3)", sch.SchemeSpec(rsj, 7, 2, generator=(1, 3)), 5),
    ]
    factorized = [
        ("full_rsj(7,3)", sch.full_rsj(7, 3), 14),
        ("lhs(5,3)", sch.lhs_spec(5, 3), 20),
        ("patterson(7,2)", sch.patterson_spec(7, 2), 28),
        ("full_rsj(11,2)", sch.full_rsj(11, 2), 44),
        ("stratified(13)", sch.stratified_spec(13), 52),
    ]
    return enumerated, factorized


# CLI argv for the pairs-CSV scans, with their grid resolution
PAIRS_CSV = [
    ("rsj(5,2) g=(1,2)", ["--scheme", "rsj", "--n", "5", "--dim", "2", "--generator", "1,2"], 5, 2),
    ("lhs(4,2)", ["--scheme", "lhs", "--n", "4", "--dim", "2"], 8, 2),
]


def _scan_canon(report):
    return {"worst": fmt(report.worst_violation), "witnesses": len(report.witnesses),
            "certifies": report.grid["certifies_all_boxes"]}


def _check_scan(factorized, spec, m, report, prior):
    problems = []
    if (report.worst_violation == 0) != (len(report.witnesses) == 0):
        problems.append("worst violation and witness list disagree")
    if report.grid["pairs"] != m ** (2 * spec.dim):
        problems.append(f"{report.grid['pairs']} box pairs scanned")
    if factorized:
        # stratified, lhs, patterson and the full lattice are pairwise NOD
        if report.worst_violation != 0:
            problems.append("factorized scheme shows a violation")
        if report.grid["certifies_all_boxes"] != (m % spec.n == 0):
            problems.append("wrong certification flag")
    return problems


def _check_pairs_csv(m, dim, raw, prior):
    rc, csv_bytes, report = raw
    lines = csv_bytes.decode("utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != m ** (2 * dim):
        problems.append(f"{len(rows)} rows")
    bad = [r for r in rows if r[4] == "True"]
    if len(bad) != len(report["violations"]):
        problems.append("violation rows disagree with the report's witnesses")
    worst = max((Fraction(r[2]) - Fraction(r[3]) for r in bad), default=Fraction(0))
    if fmt(worst) != report["worst_violation"]:
        problems.append("worst excess over rows disagrees with the report")
    if rc != (0 if worst == 0 else 1):
        problems.append(f"exit code {rc}")
    return problems


def exact_scan(nd, seed, tmp):
    """The scan specs are fixed; the seed does not change this workload."""
    enumerated, factorized = _scan_specs(nd.schemes)
    ops = []
    for phase, specs in (("enumerated", enumerated), ("factorized", factorized)):
        for label, spec, m in specs:
            ops.append(Op(
                key=f"nuod_scan {label} M={m}",
                phase=phase,
                run=lambda spec=spec, m=m: nd.analyzer.nuod_scan(spec, m),
                canon=_scan_canon,
                check=lambda raw, prior, f=phase == "factorized", spec=spec, m=m:
                    _check_scan(f, spec, m, raw, prior),
            ))
    for i, (label, flags, m, dim) in enumerate(PAIRS_CSV):
        csv_path, out = tmp / f"pairs-{i}.csv", tmp / f"scan-{i}.json"
        argv = ["analyze", "nuod", *flags, "--grid", str(m),
                "--pairs-csv", str(csv_path), "--out", str(out)]

        def run(argv=argv, csv_path=csv_path, out=out):
            rc = nd.cli.main(argv)
            return rc, csv_path.read_bytes(), json.loads(out.read_text(encoding="utf-8"))

        ops.append(Op(
            key=f"analyze nuod --pairs-csv {label} M={m}",
            phase="pairs_csv",
            run=run,
            canon=lambda raw: {"rc": raw[0], "csv_sha256": sha256(raw[1]),
                               "worst": raw[2]["worst_violation"],
                               "witnesses": len(raw[2]["violations"])},
            check=lambda raw, prior, m=m, dim=dim: _check_pairs_csv(m, dim, raw, prior),
        ))
    return ops


def scan_warmup(nd, seed, tmp):
    spec = nd.schemes.SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
    return Op(key="warm-up nuod_scan rsj(5,2) g=(1,1) M=3", phase="warmup",
              run=lambda: nd.analyzer.nuod_scan(spec, 3), canon=_scan_canon)


def scan_headline(passes, ops, durations):
    return {
        "scan_s.enumerated": ("s", median(p["enumerated"] for p in passes)),
        "scan_s.factorized": ("s", median(p["factorized"] for p in passes)),
        "scan_s.pairs_csv": ("s", median(p["pairs_csv"] for p in passes)),
    }


# -- exact-query ----------------------------------------------------------------

TRIPLES_PER_SPEC = 20
CROSS_ROUTE_PAIRS = 3


def _query_specs(sch):
    rsj = "rsj_lattice"
    return [
        ("rsj(5,2) g=(1,1)", sch.SchemeSpec(rsj, 5, 2, generator=(1, 1))),
        ("rsj(7,2) shift=none", sch.SchemeSpec(rsj, 7, 2, shift="none")),
        ("rsj(5,3) shift=none", sch.SchemeSpec(rsj, 5, 3, shift="none")),
        ("rsj(7,3) g=(1,2,3)", sch.SchemeSpec(rsj, 7, 3, generator=(1, 2, 3))),
        ("rsj(13,2) g=(1,5)", sch.SchemeSpec(rsj, 13, 2, generator=(1, 5))),
        ("rsj(7,3) shift=torus", sch.SchemeSpec(rsj, 7, 3, shift="continuous_torus", jitter=False)),
    ]


def _anchor(rnd, n, dim):
    # anchors on the k/(2n) grid: cell corners and cell midpoints
    return tuple(Fraction(rnd.randrange(2 * n), 2 * n) for _ in range(dim))


def _box_str(anchor):
    return "(" + ",".join(fmt(a) for a in anchor) + ")"


def _volume(anchor):
    v = Fraction(1)
    for a in anchor:
        v *= 1 - a
    return v


def _check_prob(raw, prior):
    return [] if 0 <= raw <= 1 else [f"{raw} is not a probability"]


def _check_marginal(uniform, anchor, joint_key, other_key, raw, prior):
    problems = _check_prob(raw, prior)
    if uniform and raw != _volume(anchor):
        problems.append("marginally uniform scheme: marginal differs from box volume")
    if other_key is not None:
        # Frechet bounds tie the joint to both marginals
        joint, m_other = prior[joint_key], prior[other_key]
        if not (max(Fraction(0), raw + m_other - 1) <= joint <= min(raw, m_other)):
            problems.append("joint outside the Frechet bounds of its marginals")
    return problems


def _check_equal(other_key, raw, prior):
    return [] if raw == prior[other_key] else [f"enumeration {raw} != closed form {prior[other_key]}"]


def exact_query(nd, seed, tmp):
    an, sch = nd.analyzer, nd.schemes
    ops = []
    for label, spec in _query_specs(sch):
        rnd = random.Random(f"{seed}:{label}")
        uniform = sch.is_marginally_uniform(spec)
        for _ in range(TRIPLES_PER_SPEC):
            q, r = _anchor(rnd, spec.n, spec.dim), _anchor(rnd, spec.n, spec.dim)
            jk = f"pair_box_prob {label} Q={_box_str(q)} R={_box_str(r)}"
            qk = f"pair_marginal_prob {label} box={_box_str(q)} side=0"
            rk = f"pair_marginal_prob {label} box={_box_str(r)} side=1"
            ops += [
                Op(jk, "pairprob",
                   lambda spec=spec, q=q, r=r: an.pair_box_prob(spec, an.AnchoredBox(q), an.AnchoredBox(r)),
                   fmt, _check_prob),
                Op(qk, "pairprob",
                   lambda spec=spec, q=q: an.pair_marginal_prob(spec, an.AnchoredBox(q), 0),
                   fmt, lambda raw, prior, u=uniform, q=q: _check_marginal(u, q, None, None, raw, prior)),
                Op(rk, "pairprob",
                   lambda spec=spec, r=r: an.pair_marginal_prob(spec, an.AnchoredBox(r), 1),
                   fmt, lambda raw, prior, u=uniform, r=r, jk=jk, qk=qk:
                       _check_marginal(u, r, jk, qk, raw, prior)),
            ]
    for label, spec in (("full_rsj(5,3)", sch.full_rsj(5, 3)), ("lhs(7,2)", sch.lhs_spec(7, 2))):
        # fixed anchors: the enumeration's cost depends on them, and this
        # phase is too short to average that out over a seed's draws
        rnd = random.Random(f"cross:{label}")
        for _ in range(CROSS_ROUTE_PAIRS):
            q, r = _anchor(rnd, spec.n, spec.dim), _anchor(rnd, spec.n, spec.dim)
            base = f"pair_box_prob {label} Q={_box_str(q)} R={_box_str(r)}"
            for method in ("closed_form", "enumeration"):
                ops.append(Op(
                    f"{base} method={method}", "cross_route",
                    lambda spec=spec, q=q, r=r, m=method:
                        an.pair_box_prob(spec, an.AnchoredBox(q), an.AnchoredBox(r), method=m),
                    fmt,
                    _check_prob if method == "closed_form" else
                    (lambda raw, prior, k=f"{base} method=closed_form": _check_equal(k, raw, prior)),
                ))
    ops += _structural_ops(an, sch, random.Random(f"{seed}:structural"))
    return ops


def _structural_ops(an, sch, rnd):
    ops = []
    for n, dim in ((5, 3), (7, 3)):
        ops.append(Op(
            f"copula_equality_check({n},{dim})", "structural",
            lambda n=n, dim=dim: an.copula_equality_check(n, dim),
            lambda raw: [raw.equal, fmt(raw.max_discrepancy)],
            lambda raw, prior: [] if raw.equal and raw.max_discrepancy == 0 else ["full_rsj law differs from lhs"],
        ))
        ops.append(Op(
            f"coordinate_independence_check({n},{dim})", "structural",
            lambda n=n, dim=dim: an.coordinate_independence_check(n, dim),
            lambda raw: raw.ok,
            lambda raw, prior: [] if raw.ok else ["full_rsj coordinates are dependent"],
        ))
    n, dim = 5, 3
    a = tuple(rnd.randrange(n) for _ in range(dim))
    b = tuple((x + rnd.randrange(1, n)) % n for x in a)
    expected = (1, math.factorial(n - 2) ** (dim - 1))
    ops.append(Op(
        f"triple_distinguisher({n},{dim},a={a},b={b})", "structural",
        lambda n=n, dim=dim, a=a, b=b: an.triple_distinguisher(n, dim, a, b),
        list,
        lambda raw, prior: [] if tuple(raw) == expected else [f"counts {raw}, expected {expected}"],
    ))
    torus = sch.SchemeSpec("rsj_lattice", 7, 3, shift="continuous_torus", jitter=False)
    eps = Fraction(1, rnd.choice((14, 21, 28)))
    ops.append(Op(
        f"shift_only_conditional(rsj(7,3) shift=torus, eps={fmt(eps)})", "structural",
        lambda eps=eps: an.shift_only_conditional(torus, eps),
        fmt,
        lambda raw, prior: [] if raw == 1 else [f"conditional {raw}, expected 1"],
    ))
    for n, dim in ((5, 2), (7, 3)):
        ops.append(Op(
            f"no_shift_mass({n},{dim})", "structural",
            lambda n=n, dim=dim: an.no_shift_mass(n, dim),
            fmt,
            lambda raw, prior, n=n: [] if raw == Fraction(1, n) else [f"mass {raw}, expected 1/{n}"],
        ))
    return ops


def query_warmup(nd, seed, tmp):
    an = nd.analyzer
    spec = nd.schemes.SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
    q, r = an.AnchoredBox((Fraction(3, 5),) * 2), an.AnchoredBox((Fraction(4, 5),) * 2)
    return Op(key="warm-up pair_box_prob rsj(5,2) g=(1,1)", phase="warmup",
              run=lambda: an.pair_box_prob(spec, q, r), canon=fmt)


def _percentile(values, p):
    s = sorted(values)
    return s[min(len(s) - 1, int(p * len(s)))]


def query_headline(passes, ops, durations):
    return {
        "query_s.p50": ("s", _percentile(durations, 0.5)),
        "query_s.p90": ("s", _percentile(durations, 0.9)),
        "queries_per_s": ("1/s", median(len(ops) / p["_wall"] for p in passes)),
        "query_samples": ("count", len(durations)),
    }


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """`build(nd, seed, tmp)` returns the operations of one pass, `warmup`
    the set-up's warm-up operation; `headline(passes, ops, durations)` the
    workload's own figures from the normalised pass and operation times."""

    name: str
    build: Callable
    warmup: Callable
    phases: tuple
    headline: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lab-batch", lab_batch, lab_warmup, ("n5_d2", "n31_d4", "generate"), lab_headline),
        Workload("exact-scan", exact_scan, scan_warmup, ("enumerated", "factorized", "pairs_csv"),
                 scan_headline),
        Workload("exact-query", exact_query, query_warmup, ("pairprob", "cross_route", "structural"),
                 query_headline),
    )
}
