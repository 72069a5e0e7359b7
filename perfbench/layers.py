"""The layers the traced run times, and the per-layer metrics it reports.

Each entry point below is wrapped from outside the program (see spans.py).
The counters ride on the same wrappers: RNG words drawn by each sampler
(the counter delta of the stream handed to it), words spent per
permutation, box pairs scanned, witnesses found and budget refusals.
"""

from spans import Target

# nuod_scan takes the factorized route for these kinds and for the full
# lattice, as its docstring says; the span name records the route taken
_FACTORIZED_KINDS = ("stratified1d", "lhs", "patterson")

SPANS = [
    "rng.permutation",
    "rng.bits53_array",
    "samplers.lhs",
    "samplers.rsj_rank1",
    "samplers.patterson",
    "samplers.stratified_1d",
    "samplers.generate",
    "samplers.floats",
    "variance.integrand",
    "variance.rqmc_estimate",
    "variance.variance_compare",
    "analyzer.nuod_scan.enumerated",
    "analyzer.nuod_scan.factorized",
    "analyzer.scan_pairs_rows",
    "analyzer.discrete_pair_pmf",
    "analyzer.pair_box_prob",
    "analyzer.pair_marginal_prob",
    "analyzer.copula_equality_check",
    "analyzer.coordinate_independence_check",
    "analyzer.triple_distinguisher",
    "analyzer.shift_only_conditional",
    "analyzer.no_shift_mass",
    "exact.circular_overlap",
    "cli.main",
]

PER_LAYER = (
    [(f"{s}.{kind}", unit) for s in SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("rng.words_per_rep", "words"),
        ("rng.accept_ratio", "ratio"),
        ("analyzer.box_pairs", "count"),
        ("analyzer.witnesses", "count"),
        ("analyzer.refused", "count"),
        ("bench.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace_overhead_s", "s"),
    ]
)


def targets(log, nd) -> list:
    def perm_before(args, kwargs):
        return args[0].counter

    def perm_after(c0, args, kwargs, result):
        log.count("rng.permutation.words", args[0].counter - c0)
        log.count("rng.permutation.useful", max(len(result) - 1, 0))

    def stream(args, kwargs):
        return kwargs["rng"] if "rng" in kwargs else args[-1]

    def sampler_before(args, kwargs):
        return stream(args, kwargs).counter

    def sampler_after(c0, args, kwargs, result):
        log.count("rng.sampler.words", stream(args, kwargs).counter - c0)
        log.count("rng.sampler.calls")

    def scan_route(args, kwargs):
        spec = kwargs["spec"] if "spec" in kwargs else args[0]
        factorized = spec.kind in _FACTORIZED_KINDS or nd.schemes.is_full_rsj(spec)
        return "analyzer.nuod_scan." + ("factorized" if factorized else "enumerated")

    def scan_after(state, args, kwargs, report):
        log.count("analyzer.box_pairs", report.grid["pairs"])
        log.count("analyzer.witnesses", len(report.witnesses))

    def row_after(state, args, kwargs, row):
        log.count("analyzer.box_pairs")

    sampler = dict(before=sampler_before, after=sampler_after)
    ts = [
        Target("negdep.rng", "RngStream.permutation", "rng.permutation", perm_before, perm_after),
        Target("negdep.rng", "RngStream.bits53_array", "rng.bits53_array"),
        Target("negdep.samplers", "lhs", "samplers.lhs", **sampler),
        Target("negdep.samplers", "rsj_rank1", "samplers.rsj_rank1", **sampler),
        Target("negdep.samplers", "patterson", "samplers.patterson", **sampler),
        Target("negdep.samplers", "stratified_1d", "samplers.stratified_1d", **sampler),
        Target("negdep.samplers", "generate", "samplers.generate"),
        Target("negdep.samplers", "PointSet.floats", "samplers.floats"),
        Target("negdep.variance", "Integrand.__call__", "variance.integrand"),
        Target("negdep.variance", "rqmc_estimate", "variance.rqmc_estimate"),
        Target("negdep.variance", "variance_compare", "variance.variance_compare"),
        Target("negdep.analyzer", "nuod_scan", scan_route, after=scan_after),
        Target("negdep.analyzer", "scan_pairs_rows", "analyzer.scan_pairs_rows",
               after=row_after, generator=True),
        Target("negdep.exact", "circular_overlap", "exact.circular_overlap"),
        Target("negdep.cli", "main", "cli.main"),
    ]
    for fn in ("discrete_pair_pmf", "pair_box_prob", "pair_marginal_prob",
               "copula_equality_check", "coordinate_independence_check",
               "triple_distinguisher", "shift_only_conditional", "no_shift_mass"):
        ts.append(Target("negdep.analyzer", fn, f"analyzer.{fn}"))
    return ts


def counted_metrics(log, selfs: dict, passes: int) -> dict:
    """Per-pass means of every span's calls and self time, plus the counters."""
    out = {}
    for s in SPANS:
        out[f"{s}.calls"] = log.calls.get(s, 0) / passes
        out[f"{s}.self_s"] = selfs.get(s, 0.0) / passes
    c = log.counts
    calls = c.get("rng.sampler.calls", 0)
    words = c.get("rng.permutation.words", 0)
    out["rng.words_per_rep"] = c.get("rng.sampler.words", 0) / calls if calls else 0.0
    out["rng.accept_ratio"] = c.get("rng.permutation.useful", 0) / words if words else 0.0
    for key in ("analyzer.box_pairs", "analyzer.witnesses", "analyzer.refused"):
        out[key] = c.get(key, 0) / passes
    return out
