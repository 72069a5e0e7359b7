"""Replication-based variance comparison against the Monte Carlo baseline.

The lab estimates Var of an equal-weight quadrature over R independent
randomizations of a scheme and compares it to the MC variance Var(f)/n,
which is taken exactly whenever the integrand's variance is known in
closed form.  Integrands are coordinate-monotone so the dependence
structure of the scheme is what drives the comparison.
"""

import json
from dataclasses import dataclass, fields
from fractions import Fraction
from math import sqrt
from typing import Callable, Optional

import numpy as np

from .rng import RngStream
from .samplers import _check_size, _replication_blocks, _stream_blocks, _unit_floats
from .schemes import SchemeSpec, _as_int, is_marginally_uniform, spec_from_dict, spec_to_dict

__all__ = [
    "Integrand",
    "additive_integrand",
    "product_integrand",
    "box_indicator_integrand",
    "origin_box_integrand",
    "smooth_monotone_integrand",
    "integrand_library",
    "get_integrand",
    "VarianceResult",
    "variance_compare",
    "result_to_json_dict",
    "result_csv_header",
    "result_csv_row",
    "run_variance_batch",
]


@dataclass(frozen=True)
class Integrand:
    """A test function on [0,1)^arity with optional exact moments.

    The evaluator maps an (m, arity) array to m values, and value i must
    depend on row i alone: replication studies evaluate the points of many
    replications in one call and split the values afterwards.
    """

    name: str
    arity: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    monotone_flags: tuple
    exact_mean: Optional[Fraction] = None
    exact_variance: Optional[Fraction] = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.arity:
            raise ValueError(f"expected points of shape (m, {self.arity})")
        return np.asarray(self.evaluator(pts), dtype=np.float64)


def _check_arity(dim: int) -> None:
    """Refuse an integrand dimension below 1 (ValueError)."""
    if dim < 1:
        raise ValueError(f"integrand dimension must be at least 1, got {dim!r}")


def additive_integrand(dim: int) -> Integrand:
    """Sum of coordinates; mean d/2, variance d/12."""
    _check_arity(dim)
    return Integrand(
        name="additive",
        arity=dim,
        evaluator=lambda u: u.sum(axis=1),
        monotone_flags=("increasing",) * dim,
        exact_mean=Fraction(dim, 2),
        exact_variance=Fraction(dim, 12),
    )


def product_integrand(dim: int) -> Integrand:
    """Product of coordinates; mean (1/2)^d, variance (1/3)^d - (1/4)^d."""
    _check_arity(dim)
    return Integrand(
        name="product",
        arity=dim,
        evaluator=lambda u: u.prod(axis=1),
        monotone_flags=("increasing",) * dim,
        exact_mean=Fraction(1, 2**dim),
        exact_variance=Fraction(1, 3**dim) - Fraction(1, 4**dim),
    )


def box_indicator_integrand(anchor) -> Integrand:
    """Indicator of the anchored box [anchor, 1), anchors in [0, 1); Bernoulli moments."""
    anc = tuple(Fraction(a) for a in anchor)
    _check_arity(len(anc))
    if any(not 0 <= a < 1 for a in anc):
        raise ValueError("box anchors must lie in [0, 1)")
    lam = Fraction(1)
    for a in anc:
        lam *= 1 - a
    thresholds = np.array([float(a) for a in anc])

    def ev(u, t=thresholds):
        return (u >= t).all(axis=1).astype(np.float64)

    return Integrand(
        name="box_indicator",
        arity=len(anc),
        evaluator=ev,
        monotone_flags=("increasing",) * len(anc),
        exact_mean=lam,
        exact_variance=lam * (1 - lam),
    )


def origin_box_integrand(dim: int, edge) -> Integrand:
    """Indicator of [0, edge)^dim; decreasing in every coordinate.

    Useful for exhibiting bias of constructions that are not marginally
    uniform: its true mean is edge^dim.
    """
    _check_arity(dim)
    e = Fraction(edge)
    if not 0 < e <= 1:
        raise ValueError("edge must lie in (0, 1]")
    lam = e**dim
    t = float(e)

    def ev(u, t=t):
        return (u < t).all(axis=1).astype(np.float64)

    return Integrand(
        name="origin_box",
        arity=dim,
        evaluator=ev,
        monotone_flags=("decreasing",) * dim,
        exact_mean=lam,
        exact_variance=lam * (1 - lam),
    )


def smooth_monotone_integrand(dim: int, alpha=Fraction(1)) -> Integrand:
    """Product of factors 1 + alpha (u_i - 1/2) with alpha in (0, 2).

    Each factor is positive and increasing; mean 1, variance
    (1 + alpha^2/12)^d - 1.
    """
    _check_arity(dim)
    a = Fraction(alpha)
    if not 0 < a < 2:
        raise ValueError("alpha must lie in (0, 2)")
    af = float(a)

    def ev(u, af=af):
        return (1.0 + af * (u - 0.5)).prod(axis=1)

    return Integrand(
        name="smooth_monotone",
        arity=dim,
        evaluator=ev,
        monotone_flags=("increasing",) * dim,
        exact_mean=Fraction(1),
        exact_variance=(1 + a * a / 12) ** dim - 1,
    )


def constant_integrand(dim: int, value=Fraction(1)) -> Integrand:
    _check_arity(dim)
    c = Fraction(value)
    cf = float(c)
    return Integrand(
        name="constant",
        arity=dim,
        evaluator=lambda u, cf=cf: np.full(u.shape[0], cf),
        monotone_flags=("none",) * dim,
        exact_mean=c,
        exact_variance=Fraction(0),
    )


# get_integrand's library at a given arity, keyed by the name each integrand
# carries, in the order the unknown-name error lists them
_INTEGRANDS = {make(1).name: make for make in (
    additive_integrand,
    product_integrand,
    lambda dim: box_indicator_integrand((Fraction(3, 10),) * dim),
    lambda dim: origin_box_integrand(dim, Fraction(1, 2)),
    smooth_monotone_integrand,
    constant_integrand,
)}


def integrand_library(dim: int) -> list:
    """The standard battery at the given arity: the library's integrands increasing in every coordinate."""
    return [f for f in (make(dim) for make in _INTEGRANDS.values())
            if all(flag == "increasing" for flag in f.monotone_flags)]


def get_integrand(name: str, dim: int) -> Integrand:
    """The library's integrand of that name at the given arity; any other name raises ValueError."""
    make = _INTEGRANDS.get(name) if isinstance(name, str) else None
    if make is None:
        raise ValueError(f"unknown integrand {name!r}; library provides: {', '.join(_INTEGRANDS)}")
    return make(dim)


def _means(f: Integrand, n: int, pts: np.ndarray) -> np.ndarray:
    # equal-weight average of f over each run of n rows: one integrand call
    return f(pts).reshape(-1, n).mean(axis=1)


def _rqmc_estimates(f: Integrand, spec: SchemeSpec, replications: int,
                    rng: RngStream) -> np.ndarray:
    """f(generate(spec, rng.split(k)).floats()).mean() for k < replications,
    bit for bit, drawn and reduced a block of replications at a time."""
    n = spec.n
    return np.concatenate([_means(f, n, _unit_floats(nums, n))
                           for nums in _replication_blocks(spec, rng, replications)])


def _mc_estimates(f: Integrand, n: int, replications: int, rng: RngStream) -> np.ndarray:
    """f(s.uniform01(n * f.arity).reshape(n, f.arity)).mean() on s = rng.split(2**32 + k)
    for k < replications, bit for bit, a block at a time."""
    width = n * f.arity
    return np.concatenate([
        _means(f, n, np.concatenate([s.uniform01(width) for s in block]).reshape(-1, f.arity))
        for block in _stream_blocks(rng, replications, width, width, offset=2**32)
    ])


@dataclass(frozen=True)
class VarianceResult:
    """Replication study of one (scheme, integrand, n) cell."""

    spec: SchemeSpec
    integrand: str
    n: int
    replications: int
    seed: int
    est_mean: float
    est_variance: float
    variance_stderr: float
    mc_variance: float
    mc_variance_exact: bool
    dominates: bool
    trivial: bool
    biased_capable: bool
    bias: Optional[float] = None


def variance_compare(f: Integrand, spec: SchemeSpec, replications: int,
                     rng: RngStream) -> VarianceResult:
    """Estimate Var of the scheme quadrature from independent replications.

    Replication k draws the point set of `generate` on the substream
    rng.split(k), so each replication is reproducible on its own.  The
    substreams are split and mixed in blocks of about 2**14 words; the block
    drawer (samplers._draw_block) draws a block of lattice point sets at once
    (latin kinds one point set at a time), and each block's points go through
    one float export and one integrand call.  Every estimate equals the mean
    of f over generate(spec, rng.split(k)).floats() bit for bit, so the output
    does not depend on the blocking.
    The MC baseline is Var(f)/n exactly when the integrand's variance is
    known, otherwise it is estimated from a matching number of MC
    replications on substreams offset by 2**32 (blocked the same way).  The domination flag allows
    the estimate three standard errors of slack:
    est <= mc * (1 + 3 rel-stderr).
    """
    if replications < 100:
        raise ValueError("need at least 100 replications")
    if f.arity != spec.dim:
        raise ValueError("integrand arity does not match scheme dim")
    n = spec.n
    est = _rqmc_estimates(f, spec, replications, rng)

    est_mean = float(est.mean())
    centered = est - est.mean()
    m2 = float((centered**2).mean())
    m4 = float((centered**4).mean())
    est_var = float(est.var(ddof=1))
    var_stderr = sqrt(max(m4 - m2 * m2, 0.0) / replications)

    if f.exact_variance is not None:
        mc_var = float(f.exact_variance) / n
        mc_exact = True
    else:
        mc = _mc_estimates(f, n, replications, rng)
        mc_var = float(mc.var(ddof=1))
        mc_exact = False

    trivial = est_var == 0.0 and mc_var == 0.0
    if trivial:
        dominates = True
    else:
        rel = var_stderr / est_var if est_var > 0 else 0.0
        dominates = est_var <= mc_var * (1.0 + 3.0 * rel)

    bias = None
    if f.exact_mean is not None:
        bias = est_mean - float(f.exact_mean)

    return VarianceResult(
        spec=spec,
        integrand=f.name,
        n=n,
        replications=replications,
        seed=rng.seed,
        est_mean=est_mean,
        est_variance=est_var,
        variance_stderr=var_stderr,
        mc_variance=mc_var,
        mc_variance_exact=mc_exact,
        dominates=dominates,
        trivial=trivial,
        biased_capable=not is_marginally_uniform(spec),
        bias=bias,
    )


# the JSON and CSV columns after the scheme: the result's fields after
# spec, with the spec's dim after n
_FIELDS = ["integrand", "n", "dim", *(f.name for f in fields(VarianceResult)[3:])]
_CSV_FIELDS = ["scheme", "generator", "shift", "jitter", *_FIELDS]


def _values(res: VarianceResult) -> list:
    return [res.spec.dim if k == "dim" else getattr(res, k) for k in _FIELDS]


def result_to_json_dict(res: VarianceResult) -> dict:
    return {"scheme": spec_to_dict(res.spec), **dict(zip(_FIELDS, _values(res)))}


def result_csv_header() -> list:
    return list(_CSV_FIELDS)


def result_csv_row(res: VarianceResult) -> list:
    d = spec_to_dict(res.spec)
    gen = d["generator"]
    gen_str = gen if isinstance(gen, str) else ";".join(str(v) for v in gen)
    # floats as repr (exact round trip), a missing bias as an empty field
    return [d["kind"], gen_str, d["shift"], d["jitter"],
            *("" if v is None else repr(v) if isinstance(v, float) else v for v in _values(res))]


def run_variance_batch(config: dict) -> list:
    """Run the cross product of schemes x integrands x sizes from a config.

    Config keys: "seed", "replications", "sizes" ([[n, dim], ...]),
    "schemes" (spec dicts; each is run at every size, which sets its
    "n"/"dim" and overrides any the dict carries),
    "integrands" (names).  Returns VarianceResult objects in a stable order.
    This is the config's one validator: every key but "seed" is required,
    every size is checked (n and dim at least 1, the point-set caps MAX_N
    and MAX_COORDINATES), and every scheme and integrand is built, before
    any job runs; each refusal is one ValueError.
    """
    for key in ("replications", "sizes", "schemes", "integrands"):
        if key not in config:
            raise ValueError(f"batch config missing key {key!r}")
    seed = _as_int(config.get("seed", 0), "seed")
    replications = _as_int(config["replications"], "replications")
    for key in ("sizes", "schemes", "integrands"):
        if not isinstance(config[key], (list, tuple)):
            raise ValueError(f"{key} must be a list, got {config[key]!r}")
    sizes = []
    for size in config["sizes"]:
        if not isinstance(size, (list, tuple)) or len(size) != 2:
            raise ValueError(f"sizes entries must be [n, dim] pairs, got {size!r}")
        sizes.append(tuple(_as_int(v, "sizes") for v in size))
        _check_size(*sizes[-1])
    for stub in config["schemes"]:
        if not isinstance(stub, dict):
            raise ValueError(f"schemes entries must be spec objects, got {stub!r}")
    per_size = [[get_integrand(name, dim) for name in config["integrands"]] for (_, dim) in sizes]
    cells = [(spec_from_dict({**stub, "n": n, "dim": dim}), fs)
             for stub in config["schemes"] for (n, dim), fs in zip(sizes, per_size)]
    jobs = [(f, spec) for spec, fs in cells for f in fs]
    root = RngStream(seed)
    return [variance_compare(f, spec, replications, root.split(job))
            for job, (f, spec) in enumerate(jobs)]


def load_batch_config(text: str) -> dict:
    """The JSON object in text; run_variance_batch checks its keys and values."""
    cfg = json.loads(text)
    if not isinstance(cfg, dict):
        raise ValueError(f"batch config must be a JSON object, got {cfg!r}")
    return cfg
