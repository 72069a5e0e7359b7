import zlib
from fractions import Fraction as F
from math import sqrt

import numpy as np
import pytest

import negdep.samplers as samplers_module
from negdep import variance
from negdep.analyzer import AnchoredBox, pair_box_prob, pair_marginal_prob
from negdep.rng import RngStream
from negdep.samplers import _unit_floats, generate
from negdep.schemes import SchemeSpec, full_rsj, lhs_spec, patterson_spec, stratified_spec
from negdep.variance import (
    Integrand,
    VarianceResult,
    _mc_estimates,
    _means,
    _rqmc_estimates,
    additive_integrand,
    box_indicator_integrand,
    constant_integrand,
    get_integrand,
    integrand_library,
    load_batch_config,
    origin_box_integrand,
    product_integrand,
    run_variance_batch,
    smooth_monotone_integrand,
    variance_compare,
)
from test_samplers import replicate


# -- oracles: the lab's blocked estimates and the declared monotone flags ---------


def mc_estimate(f: Integrand, n: int, rng: RngStream) -> float:
    """Equal-weight average of f over n iid uniform points."""
    pts = rng.uniform01(n * f.arity).reshape(n, f.arity)
    return float(f(pts).mean())


def rqmc_estimate(f: Integrand, spec, rng: RngStream) -> float:
    """Equal-weight average of f over one randomization of the scheme."""
    if f.arity != spec.dim:
        raise ValueError("integrand arity does not match scheme dim")
    return float(f(generate(spec, rng).floats()).mean())


def verify_monotone_flags(f: Integrand, rng: RngStream, probes: int = 1000) -> bool:
    """Spot-check the declared monotonicity by coordinate perturbations.

    For each probe, one coordinate is pushed toward its monotone direction
    and the function value must not move the wrong way.
    """
    d = f.arity
    for _ in range(probes):
        u = rng.uniform01(d)
        i = rng.integer(d)
        flag = f.monotone_flags[i]
        if flag == "none":
            continue
        v = u.copy()
        room = 1.0 - u[i]
        v[i] = u[i] + (0.5 + 0.5 * rng.uniform01(1)[0]) * room * 0.999
        base = f(u.reshape(1, d))[0]
        moved = f(v.reshape(1, d))[0]
        if flag == "increasing" and moved < base - 1e-12:
            return False
        if flag == "decreasing" and moved > base + 1e-12:
            return False
    return True


class TestIntegrandLibrary:
    def test_exact_moments_frozen(self):
        f = additive_integrand(4)
        assert f.exact_mean == 2 and f.exact_variance == F(1, 3)
        f = product_integrand(2)
        assert f.exact_mean == F(1, 4) and f.exact_variance == F(7, 144)
        f = box_indicator_integrand((F(3, 10), F(3, 10)))
        assert f.exact_mean == F(49, 100)
        f = smooth_monotone_integrand(2, F(1))
        assert f.exact_mean == 1 and f.exact_variance == F(169, 144) - 1

    def test_moments_against_mc_million(self):
        # every library integrand: empirical mean of 1e6 MC points within
        # 5 sigma of the declared exact mean
        rng = RngStream(314)
        m = 10**6
        for f in integrand_library(3):
            pts = rng.uniform01(m * 3).reshape(m, 3)
            vals = f(pts)
            sd = sqrt(float(f.exact_variance) / m)
            assert abs(vals.mean() - float(f.exact_mean)) < 5 * sd, f.name

    def test_monotone_flags_verified(self):
        rng = RngStream(11)
        for f in integrand_library(4):
            assert verify_monotone_flags(f, rng, probes=1000), f.name
        assert verify_monotone_flags(origin_box_integrand(2, F(1, 2)), rng, probes=1000)

    def test_monotone_verification_catches_lies(self):
        f = additive_integrand(2)
        lying = type(f)(
            name="lying", arity=2, evaluator=f.evaluator,
            monotone_flags=("decreasing", "decreasing"),
        )
        assert not verify_monotone_flags(lying, RngStream(1), probes=200)

    def test_monotone_verification_catches_a_false_increasing_claim(self):
        f = additive_integrand(2)
        lying = type(f)(
            name="lying", arity=2, evaluator=lambda u: -u.sum(1),
            monotone_flags=("increasing", "increasing"),
        )
        assert not verify_monotone_flags(lying, RngStream(1), probes=200)

    def test_unknown_name_lists_library(self):
        with pytest.raises(ValueError, match="library provides"):
            get_integrand("mystery", 2)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            smooth_monotone_integrand(2, F(2))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_every_constructor_refuses_dim_below_one(self, dim):
        # product_integrand(-1) once divided by 2**-1 into a float TypeError
        makers = [additive_integrand, product_integrand, smooth_monotone_integrand,
                  constant_integrand, lambda d: origin_box_integrand(d, F(1, 2)),
                  lambda d: box_indicator_integrand((F(1, 2),) * d)]
        makers += [lambda d, name=name: get_integrand(name, d) for name in variance._INTEGRANDS]
        for make in makers:
            with pytest.raises(ValueError, match="at least 1"):
                make(dim)

    @pytest.mark.parametrize("anchor", [(F(3, 2), F(1, 2)), (F(-1, 2),), (F(1),)])
    def test_box_anchors_lie_in_the_unit_interval(self, anchor):
        # an anchor outside [0, 1) gave a negative variance: (3/2, 1/2) read -5/16
        with pytest.raises(ValueError, match="0, 1"):
            box_indicator_integrand(anchor)


class TestMcEstimate:
    def test_constant_exact(self):
        f = constant_integrand(3, F(7, 2))
        assert mc_estimate(f, 100, RngStream(0)) == 3.5

    def test_additive_replicate_mean(self):
        f = additive_integrand(4)
        root = RngStream(21)
        ests = [mc_estimate(f, 1000, root.split(k)) for k in range(1000)]
        stderr = sqrt(float(f.exact_variance) / 1000 / 1000)
        assert abs(np.mean(ests) - 2.0) < 3 * stderr

    def test_product_replicate_mean(self):
        f = product_integrand(2)
        root = RngStream(22)
        ests = [mc_estimate(f, 500, root.split(k)) for k in range(2000)]
        stderr = sqrt(float(f.exact_variance) / 500 / 2000)
        assert abs(np.mean(ests) - 0.25) < 3 * stderr


class TestRqmcEstimate:
    def test_constant_exact_any_scheme(self):
        f = constant_integrand(2, F(1, 4))
        for spec in (full_rsj(5, 2), lhs_spec(5, 2)):
            assert rqmc_estimate(f, spec, RngStream(1)) == 0.25

    def test_full_rsj_unbiased_additive(self):
        f = additive_integrand(4)
        spec = full_rsj(31, 4)
        root = RngStream(23)
        ests = np.array([rqmc_estimate(f, spec, root.split(k)) for k in range(3000)])
        stderr = ests.std(ddof=1) / sqrt(len(ests))
        assert abs(ests.mean() - 2.0) < 3 * stderr + 1e-9

    def test_no_shift_bias_exhibited(self):
        # indicator of the first cell: one lattice point always lands there,
        # so the estimator mean is 1/n instead of the volume 1/n^2
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="none")
        f = origin_box_integrand(2, F(1, 5))
        root = RngStream(24)
        ests = [rqmc_estimate(f, spec, root.split(k)) for k in range(500)]
        assert abs(np.mean(ests) - 0.2) < 1e-12  # exactly one point per set
        assert abs(np.mean(ests) - float(f.exact_mean)) > 0.1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            rqmc_estimate(additive_integrand(3), full_rsj(5, 2), RngStream(0))


class TestVarianceCompare:
    def test_requires_100_replications(self):
        with pytest.raises(ValueError):
            variance_compare(additive_integrand(2), full_rsj(5, 2), 99, RngStream(0))

    def test_deterministic(self):
        f = product_integrand(2)
        a = variance_compare(f, full_rsj(5, 2), 300, RngStream(5))
        b = variance_compare(f, full_rsj(5, 2), 300, RngStream(5))
        assert a == b

    def test_constant_trivial(self):
        res = variance_compare(constant_integrand(2, F(2)), lhs_spec(5, 2), 200, RngStream(6))
        assert res.trivial and res.dominates
        assert res.est_variance == 0.0 and res.mc_variance == 0.0

    def test_domination_quick(self):
        for spec in (full_rsj(5, 2), lhs_spec(5, 2)):
            for f in integrand_library(2):
                res = variance_compare(f, spec, 2000, RngStream(7))
                assert res.dominates, (spec.kind, f.name)
                assert res.mc_variance_exact
                assert not res.biased_capable

    def test_stratified_dominates(self):
        res = variance_compare(additive_integrand(1), stratified_spec(16), 2000, RngStream(8))
        assert res.dominates
        assert res.est_variance < res.mc_variance / 10

    def test_biased_capable_flag(self):
        spec = SchemeSpec("rsj_lattice", 5, 2, shift="none")
        res = variance_compare(origin_box_integrand(2, F(1, 5)), spec, 200, RngStream(9))
        assert res.biased_capable
        assert res.bias is not None and abs(res.bias - 0.16) < 0.01

    def test_variance_above_the_baseline_does_not_dominate(self):
        # a baseline of half the estimate: the 3-standard-error slack would
        # cover it only at a relative standard error of 1/3 or more
        f = additive_integrand(2)
        first = variance_compare(f, full_rsj(5, 2), 1000, RngStream(7))
        half = type(f)(name="half", arity=2, evaluator=f.evaluator,
                       monotone_flags=f.monotone_flags, exact_mean=f.exact_mean,
                       exact_variance=F(first.est_variance) * 5 / 2)
        res = variance_compare(half, full_rsj(5, 2), 1000, RngStream(7))
        assert res.est_variance == first.est_variance
        assert res.variance_stderr / res.est_variance < 1 / 3
        assert not res.dominates

    def test_estimated_mc_baseline_when_no_exact_variance(self):
        f = additive_integrand(2)
        bare = type(f)(name="bare", arity=2, evaluator=f.evaluator,
                       monotone_flags=f.monotone_flags, exact_mean=f.exact_mean)
        res = variance_compare(bare, full_rsj(5, 2), 400, RngStream(10))
        assert not res.mc_variance_exact
        want = float(F(2, 12)) / 5
        assert abs(res.mc_variance - want) / want < 0.5
        assert res.dominates


def test_unbiasedness_library_at_10k_replications():
    # every non-ablated scheme x every library integrand with an exact mean:
    # replicate mean within 4 standard errors over 1e4 randomizations.  Each
    # spec's point sets are drawn once and read by every integrand; the
    # estimates are those of _rqmc_estimates, checked on a prefix
    reps = 10**4
    cases = [(stratified_spec(5), 1), (lhs_spec(5, 2), 2), (full_rsj(5, 2), 2)]
    for spec, dim in cases:
        root = RngStream(1000 + spec.n * dim + zlib.crc32(spec.kind.encode()) % 97)
        pts = _unit_floats(np.concatenate([ps.nums for ps in replicate(spec, root, reps)]), spec.n)
        for f in integrand_library(dim):
            ests = _means(f, spec.n, pts)
            assert np.array_equal(ests[:257], _rqmc_estimates(f, spec, 257, root))
            stderr = ests.std(ddof=1) / sqrt(reps)
            err = abs(ests.mean() - float(f.exact_mean))
            assert err < 4 * stderr + 1e-12, (spec.kind, f.name, err, stderr)


# every field of one variance_compare cell per kind, recorded before the lab
# drew through samplers.generate (floats as float.hex, so the match is exact)
_PINNED_CELLS = [
    (full_rsj(5, 2), "0x1.faadf23137de8p-3", "0x1.fed248cdcc569p-10",
     "0x1.623baf826b46dp-13", "0x1.3e93e93e93e94p-7", "-0x1.548373b208600p-9"),
    (lhs_spec(5, 2), "0x1.ff9e45e88196dp-3", "0x1.1536f479e6668p-9",
     "0x1.720983b6c7b7bp-13", "0x1.3e93e93e93e94p-7", "-0x1.86e85df9a4c00p-13"),
    (patterson_spec(5, 2), "0x1.015a07b352a84p-2", "0x1.94786e68b580fp-10",
     "0x1.e3d0fe89f354ep-14", "0x1.3e93e93e93e94p-7", "0x1.5a07b352a8400p-10"),
    (stratified_spec(7), "0x1.ffc2693279c65p-2", "0x1.b4514b471d318p-13",
     "0x1.6636a4c143b35p-16", "0x1.8618618618618p-7", "-0x1.ecb66c31cd800p-13"),
]


@pytest.mark.parametrize("spec,mean,var,stderr,mc,bias", _PINNED_CELLS,
                         ids=[spec.kind for spec, *_ in _PINNED_CELLS])
def test_variance_cell_pinned(spec, mean, var, stderr, mc, bias):
    res = variance_compare(product_integrand(spec.dim), spec, 200, RngStream(5))
    assert res == VarianceResult(
        spec=spec, integrand="product", n=spec.n, replications=200, seed=5,
        est_mean=float.fromhex(mean), est_variance=float.fromhex(var),
        variance_stderr=float.fromhex(stderr), mc_variance=float.fromhex(mc),
        mc_variance_exact=True, dominates=True, trivial=False,
        biased_capable=spec.kind == "patterson", bias=float.fromhex(bias),
    )


def test_batch_sizes_override_stub_n_and_dim():
    cfg = {"seed": 4, "replications": 100, "sizes": [[5, 2], [3, 1]],
           "schemes": [{"kind": "lhs", "n": 7, "dim": 3}], "integrands": ["additive"]}
    results = run_variance_batch(cfg)
    assert [(r.spec, r.n) for r in results] == [(lhs_spec(5, 2), 5), (lhs_spec(3, 1), 3)]
    root = RngStream(4)
    want = [variance_compare(additive_integrand(2), lhs_spec(5, 2), 100, root.split(0)),
            variance_compare(additive_integrand(1), lhs_spec(3, 1), 100, root.split(1))]
    assert results == want


@pytest.mark.parametrize("bad", ["integrand", "scheme"])
def test_batch_builds_every_scheme_and_integrand_before_its_first_study(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(variance, "variance_compare", lambda *args: calls.append(args))
    cfg = {"seed": 1, "replications": 100, "sizes": [[5, 2], [7, 3]],
           "schemes": [{"kind": "lhs"}, {"kind": "rsj_lattice"}],
           "integrands": ["additive", "product"]}
    if bad == "integrand":
        cfg["integrands"].append("no_such")
    else:
        cfg["schemes"].append({"kind": "rsj_lattice", "jitter": "sometimes"})
    with pytest.raises(ValueError, match="no_such" if bad == "integrand" else "jitter"):
        run_variance_batch(cfg)
    assert calls == []


@pytest.mark.parametrize("key", ["replications", "sizes", "schemes", "integrands"])
def test_batch_names_a_missing_key(key):
    # run_variance_batch is the one validator: a library call gets the
    # ValueError the CLI gets, not a KeyError; load_batch_config reads JSON only
    cfg = {"seed": 1, "replications": 100, "sizes": [[5, 2]], "schemes": [{"kind": "lhs"}],
           "integrands": ["additive"]}
    del cfg[key]
    with pytest.raises(ValueError, match=f"missing key '{key}'"):
        run_variance_batch(cfg)
    assert load_batch_config('{"sizes": 3}') == {"sizes": 3}
    with pytest.raises(ValueError, match="JSON object"):
        load_batch_config("[1]")


def test_reduction_order_insensitive():
    # replications run on per-index substreams, so the job set is order-free;
    # reducing a shuffled copy must match to 1e-12 relative
    f = additive_integrand(2)
    spec = full_rsj(5, 2)
    root = RngStream(12)
    ests = np.array([rqmc_estimate(f, spec, root.split(k)) for k in range(500)])
    shuffled = ests.copy()
    np.random.default_rng(0).shuffle(shuffled)
    for reduce in (np.mean, lambda x: x.var(ddof=1)):
        a, b = reduce(ests), reduce(shuffled)
        assert abs(a - b) <= 1e-12 * abs(a)


def test_fixed_generator_positive_covariance():
    # the dependent pair of the fixed-generator lattice: estimated
    # Cov(1_Q(p1), 1_R(p2)) is positive at 3 sigma and agrees with the
    # exact value from the analyzer
    spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
    Q = AnchoredBox((F(3, 5), F(3, 5)))
    R = AnchoredBox((F(4, 5), F(4, 5)))
    exact_cov = pair_box_prob(spec, Q, R) - (
        pair_marginal_prob(spec, Q, 0) * pair_marginal_prob(spec, R, 1)
    )
    assert exact_cov == F(9, 2500)

    reps = 20000
    root = RngStream(13)
    x = np.empty(reps)
    y1 = np.empty(reps)
    y2 = np.empty(reps)
    qt = np.array([0.6, 0.6])
    rt = np.array([0.8, 0.8])
    for k in range(reps):
        pts = generate(spec, root.split(k)).floats()
        in_q = bool((pts[0] >= qt).all())
        in_r = bool((pts[1] >= rt).all())
        x[k] = in_q and in_r
        y1[k], y2[k] = in_q, in_r
    cov_est = x.mean() - y1.mean() * y2.mean()
    sigma = x.std(ddof=1) / sqrt(reps)
    assert cov_est > 3 * sigma
    assert abs(cov_est - float(exact_cov)) < 4 * sigma


# every kind and ablation at n = 31, where 257 replications take two or
# three blocks and end in a partial one
_BLOCK_SPECS = [
    stratified_spec(31),
    lhs_spec(31, 3),
    patterson_spec(31, 3),
    full_rsj(31, 3),
    SchemeSpec("rsj_lattice", 31, 3, generator=(1, 5, 12)),
    SchemeSpec("rsj_lattice", 31, 3, shift="continuous_torus"),
    SchemeSpec("rsj_lattice", 31, 3, shift="none"),
    SchemeSpec("rsj_lattice", 31, 3, jitter=False),
]


@pytest.mark.parametrize("spec", _BLOCK_SPECS,
                         ids=lambda s: f"{s.kind}-{s.generator}-{s.shift}-{s.jitter}")
def test_block_estimates_equal_serial_ones(spec):
    reps = 257
    d = spec.dim
    words = max(samplers_module._draw_words(spec), spec.n * d)
    per_block = samplers_module._BLOCK_WORDS // words
    assert 1 < per_block < reps and reps % per_block
    root = RngStream(31)
    for f in integrand_library(d) + [origin_box_integrand(d, F(1, 2)), constant_integrand(d)]:
        block = _rqmc_estimates(f, spec, reps, root)
        assert block.tolist() == [rqmc_estimate(f, spec, root.split(k)) for k in range(reps)]


def test_block_mc_baseline_equals_serial_one():
    f = smooth_monotone_integrand(3)
    bare = type(f)(name="bare", arity=3, evaluator=f.evaluator, monotone_flags=f.monotone_flags)
    root = RngStream(32)
    reps = 257
    assert samplers_module._BLOCK_WORDS // (31 * 3) < reps
    block = _mc_estimates(bare, 31, reps, root)
    assert block.tolist() == [mc_estimate(bare, 31, root.split(2**32 + k)) for k in range(reps)]
    res = variance_compare(bare, full_rsj(31, 3), reps, root)
    assert not res.mc_variance_exact
    assert res.mc_variance == float(block.var(ddof=1))


def test_arity_mismatch_is_refused_before_any_draw():
    # no stream is touched: the check runs first
    with pytest.raises(ValueError, match="arity"):
        variance_compare(additive_integrand(3), full_rsj(5, 2), 100, None)
