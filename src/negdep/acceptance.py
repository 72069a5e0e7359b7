"""Built-in verification suite.

Each criterion is a named, self-contained check returning (passed, detail).
The exact criteria admit zero tolerance; the statistical ones run on pinned
seeds of the deterministic stream, so the whole suite is reproducible.
tests/test_acceptance.py parametrizes over this registry, and the CLI
`reproduce-paper` command runs it directly.
"""

import time
from fractions import Fraction
from itertools import product
from math import factorial, lcm, sqrt
from typing import NamedTuple

import numpy as np

from .analyzer import (
    AnchoredBox,
    _pair_counts,
    _pair_query,
    copula_equality_check,
    coordinate_independence_check,
    no_shift_mass,
    nuod_scan,
    pair_box_prob,
    shift_only_conditional,
    stratified_pair_box_prob,
    triple_distinguisher,
)
from .rng import FRAC_BITS, RngStream
from .samplers import _replication_blocks, _unit_floats, rsj_cell_matrix
from .schemes import SchemeSpec, full_rsj, lhs_spec, patterson_spec, stratified_spec
from .variance import integrand_library, variance_compare

__all__ = ["CRITERIA", "run_acceptance", "CriterionResult"]


class CriterionResult(NamedTuple):
    passed: bool
    detail: str


# -- criteria ------------------------------------------------------------------


def criterion_discrete_pair_pmf_uniform() -> CriterionResult:
    """Exhaustive cell-pair law is the constant 1/(N(N-1))^d; under 60 s.

    The fully randomized lattice's law is built as the equal mixture of the
    (N-1)^d fixed-generator grid-shift laws, each enumerated over its N - 1
    index differences, not by the one class _pair_counts reads it as.  On
    the difference rows F_g (P[z1, z2] = F_g[z2 - z1] / t_g), the mixture
    sum_g F_g L / t_g over (N-1)^d L, L = lcm of the t_g, must be L / N^d
    at every difference nonzero in all coordinates and 0 elsewhere.
    """
    t0 = time.perf_counter()
    for n in (3, 5, 7):
        for d in (1, 2, 3):
            laws = [_pair_counts(SchemeSpec("rsj_lattice", n, d, generator=g), gather=False)
                    for g in product(range(1, n), repeat=d)]
            L = lcm(*(t for _, t in laws))
            mixture = sum(F * (L // t) for F, t in laws)
            distinct = (np.indices((n,) * d) != 0).all(axis=0)
            if not np.array_equal(mixture * n**d, distinct * L):
                return CriterionResult(False, f"non-uniform pmf at N={n}, d={d}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        return CriterionResult(False, f"took {elapsed:.1f}s (budget 60s)")
    return CriterionResult(True, f"9 (N,d) grids uniform, {elapsed:.2f}s")


def criterion_fixed_generator_counterexample() -> CriterionResult:
    """Fixed generator (1,1), N=5: joint 1/100 beats marginal product 4/625."""
    spec = SchemeSpec("rsj_lattice", 5, 2, generator=(1, 1))
    Q = AnchoredBox((Fraction(3, 5), Fraction(3, 5)))
    R = AnchoredBox((Fraction(4, 5), Fraction(4, 5)))
    joint, marg_q, marg_r = _pair_query(spec, Q, R)
    prodv = marg_q * marg_r
    ok = joint == Fraction(1, 100) and prodv == Fraction(4, 625) and joint > prodv
    return CriterionResult(ok, f"joint={joint}, product={prodv}")


def criterion_nuod_certification() -> CriterionResult:
    """Zero scan violations for the fully randomized lattice and lhs, plus the
    per-coordinate factor inequality on a 50x50 anchor grid."""
    for n in (2, 3, 5, 7):
        for d in (1, 2, 3):
            for spec in (full_rsj(n, d), lhs_spec(n, d)):
                rep = nuod_scan(spec, 2 * n)
                if not rep.ok:
                    return CriterionResult(
                        False, f"violation for {spec.kind} N={n} d={d}: {rep.worst_violation}"
                    )
    for n in range(2, 9):
        for kq in range(50):
            for kr in range(50):
                q, r = Fraction(kq, 50), Fraction(kr, 50)
                if stratified_pair_box_prob(q, r, n) > (1 - q) * (1 - r):
                    return CriterionResult(False, f"factor inequality fails at N={n}, q={q}, r={r}")
    return CriterionResult(True, "24 scans clean; factor inequality holds on 50x50 grid for N=2..8")


def criterion_copula_and_independence() -> CriterionResult:
    """Lattice and lhs share the exact pair copula and coordinates factorize;
    a fixed generator (1, 2) fails both checks.  _pair_counts reads the full
    lattice as lhs's one class; criterion 1 checks that law independently."""
    for n in (3, 5):
        for d in (2, 3):
            cc = copula_equality_check(n, d)
            if not cc.equal or cc.max_discrepancy != 0:
                return CriterionResult(False, f"copula mismatch at N={n}, d={d}: {cc.max_discrepancy}")
            if not coordinate_independence_check(n, d).ok:
                return CriterionResult(False, f"independence fails at N={n}, d={d}")
    for n, want in ((3, Fraction(1, 36)), (5, Fraction(3, 400))):
        spec = SchemeSpec("rsj_lattice", n, 2, generator=(1, 2))
        cc = copula_equality_check(n, 2, spec)
        if cc.equal or cc.max_discrepancy != want or coordinate_independence_check(n, 2, spec).ok:
            return CriterionResult(False, f"generator (1,2), N={n}: copula {cc}, want discrepancy "
                                          f"{want}, and independence must fail")
    return CriterionResult(True, "copula discrepancy 0, factorization exact on {3,5}x{2,3}; g=(1,2) "
                                 "fails both; criterion 1 checks the full lattice independently")


def _lattices_holding(n: int, d: int, a: tuple, b: tuple) -> int:
    """Distinct point sets of the shifted lattice, over every generator in
    {1..n-1}^d and grid shift in Z_n^d, that hold both cell vectors."""
    seen = set()
    for g in product(range(1, n), repeat=d):
        for s in product(range(n), repeat=d):
            cells = frozenset(map(tuple, rsj_cell_matrix(g, s, n).tolist()))
            if a in cells and b in cells:
                seen.add(cells)
    return len(seen)


def criterion_triple_counts() -> CriterionResult:
    """Exactly one shifted lattice and [(N-2)!]^(d-1) latin grids contain a
    given coordinatewise-distinct pair of cell vectors."""
    cases = [(5, 2, (0, 0), (1, 2)), (5, 3, (0, 0, 0), (1, 2, 3)), (7, 2, (0, 0), (1, 2))]
    for n, d, a, b in cases:
        lat, lhsc = triple_distinguisher(n, d, a, b)
        lattices = _lattices_holding(n, d, a, b)
        want = factorial(n - 2) ** (d - 1)
        if (lat, lattices, lhsc) != (1, 1, want):
            return CriterionResult(False, f"N={n}, d={d}: got ({lat}, {lhsc}), {lattices} "
                                          f"lattices by enumeration, want (1, {want})")
    return CriterionResult(True, "counts (1, 6), (1, 36), (1, 120); one lattice among every "
                                 "(generator, shift)")


def criterion_no_shift_mass() -> CriterionResult:
    """Without the shift the first cell carries mass 1/N, not 1/N^d."""
    for n, d in ((5, 2), (3, 3)):
        mass = no_shift_mass(n, d)
        if mass != Fraction(1, n):
            return CriterionResult(False, f"N={n}, d={d}: mass {mass} != 1/{n}")
        if mass == Fraction(1, n**d):
            return CriterionResult(False, f"N={n}, d={d}: mass equals the uniform value")
    return CriterionResult(True, "mass 1/N for (5,2) and (3,3); uniform would need 1/N^d")


def criterion_fixed_distance_conditional() -> CriterionResult:
    """Shift-only randomization: conditional probability exactly 1; for the
    lattices also as the torus class sum of a box query on the probe's boxes."""
    for n in (5, 7):
        spec = SchemeSpec("rsj_lattice", n, 2, shift="continuous_torus", jitter=False)
        eps = Fraction(1, 2 * n)
        joint, _, m_r = _pair_query(spec, AnchoredBox((0, eps / 2)), AnchoredBox((0, 1 - eps / 2)))
        for route, value in (("conditional", shift_only_conditional(spec, eps)),
                             ("class sum", joint / m_r)):
            if value != 1:
                return CriterionResult(False, f"lattice N={n}: {route} {value} != 1")
    value = shift_only_conditional(patterson_spec(5, 2), Fraction(1, 10))
    if value != 1:
        return CriterionResult(False, f"patterson: conditional {value} != 1")
    return CriterionResult(True, "conditional = 1 for N in {5,7} and midpoint sampling at eps=1/(2N)")


def criterion_stratified_closed_form_oracle() -> CriterionResult:
    """Closed form equals the box probability of the enumerated cell-pair
    law and of the route pairprob takes (method "auto") on the 1/(4N) grid,
    and never exceeds (1-q)(1-r)."""
    for n in range(2, 9):
        spec = stratified_spec(n)
        for kq in range(4 * n):
            for kr in range(4 * n):
                q, r = Fraction(kq, 4 * n), Fraction(kr, 4 * n)
                closed = stratified_pair_box_prob(q, r, n)
                Q, R = AnchoredBox((q,)), AnchoredBox((r,))
                for method in ("enumeration", "auto"):
                    if closed != pair_box_prob(spec, Q, R, method=method):
                        return CriterionResult(False, f"{method} mismatch at N={n}, q={q}, r={r}")
                if closed > (1 - q) * (1 - r):
                    return CriterionResult(False, f"bound fails at N={n}, q={q}, r={r}")
    return CriterionResult(
        True, "closed form == enumeration == auto and <= (1-q)(1-r) on all 1/(4N) grids, N=2..8")


def criterion_variance_domination() -> CriterionResult:
    """Scheme variance at most the MC baseline (with 3-stderr slack) for the
    monotone battery; under 5 minutes."""
    t0 = time.perf_counter()
    reps = 10**4
    root = RngStream(20240)
    details = []
    job = 0
    for n, d in ((5, 2), (31, 4)):
        for spec in (full_rsj(n, d), lhs_spec(n, d)):
            for f in integrand_library(d):
                res = variance_compare(f, spec, reps, root.split(job))
                job += 1
                if not res.dominates:
                    return CriterionResult(
                        False,
                        f"{spec.kind} N={n} d={d} {f.name}: est {res.est_variance:.3e} "
                        f"> mc {res.mc_variance:.3e}",
                    )
                details.append(res.est_variance / res.mc_variance if res.mc_variance else 0.0)
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        return CriterionResult(False, f"took {elapsed:.0f}s (budget 300s)")
    worst = max(details)
    return CriterionResult(True, f"16 cells dominate; worst var ratio {worst:.3f}; {elapsed:.0f}s")


def _chi2_threshold_3sigma(df: int) -> float:
    # chi-square has mean df and variance 2 df
    return df + 3.0 * sqrt(2.0 * df)


def criterion_sampling_scheme_property() -> CriterionResult:
    """Marginal uniformity of the first point at 4 sigma over 1e5 draws and
    an exchangeability histogram test at 3 sigma over 1e4 draws."""
    n, d = 5, 2
    reps = 10**5
    qs = [Fraction(k, 10) for k in range(1, 10)]
    for spec, seed in ((full_rsj(n, d), 2001), (lhs_spec(n, d), 2002)):
        # the first and last point of every draw, read off the drawer's blocks
        ends = np.concatenate([nums.reshape(-1, n, d)[:, [0, -1]]
                               for nums in _replication_blocks(spec, RngStream(seed), reps)])
        first = _unit_floats(ends[:, 0], n)
        cells = ends >> FRAC_BITS
        first_cells = cells[:, 0, 0] * n + cells[:, 0, 1]
        last_cells = cells[:, 1, 0] * n + cells[:, 1, 1]
        for i in range(d):
            for q in qs:
                emp = float((first[:, i] >= float(q)).mean())
                p = float(1 - q)
                sigma = sqrt(p * (1 - p) / reps)
                if abs(emp - p) > 4 * sigma:
                    return CriterionResult(
                        False, f"{spec.kind} coord {i} q={q}: {emp:.4f} vs {p:.4f}"
                    )
        # exchangeability: cell-vector histogram of p_1 vs p_n, each taken
        # from its own half of 1e4 draws so the two samples are independent
        h1 = np.bincount(first_cells[: 5 * 10**3], minlength=n * n).astype(float)
        h2 = np.bincount(last_cells[5 * 10**3 : 10**4], minlength=n * n).astype(float)
        tot = h1 + h2
        mask = tot > 0
        chi2 = float((((h1 - h2) ** 2)[mask] / tot[mask]).sum())
        df = int(mask.sum()) - 1
        if chi2 > _chi2_threshold_3sigma(df):
            return CriterionResult(False, f"{spec.kind} exchangeability chi2 {chi2:.1f} (df {df})")
    return CriterionResult(True, "marginals within 4 sigma; exchangeability chi-square within 3 sigma")


CRITERIA = [
    ("1", "discrete-pair-pmf-uniform", criterion_discrete_pair_pmf_uniform),
    ("2", "fixed-generator-counterexample", criterion_fixed_generator_counterexample),
    ("3", "nuod-scan-certification", criterion_nuod_certification),
    ("4", "copula-and-independence", criterion_copula_and_independence),
    ("5", "triple-containment-counts", criterion_triple_counts),
    ("6", "no-shift-mass", criterion_no_shift_mass),
    ("7", "fixed-distance-conditional", criterion_fixed_distance_conditional),
    ("8", "stratified-closed-form-oracle", criterion_stratified_closed_form_oracle),
    ("9", "variance-domination", criterion_variance_domination),
    ("10", "marginal-uniformity-and-exchangeability", criterion_sampling_scheme_property),
]


def run_acceptance(ids=None) -> bool:
    """Run the selected criteria (all by default); one line per criterion,
    ending with its wall seconds.  Ids are stripped; an id that names no
    criterion raises ValueError before any criterion runs."""
    wanted = {cid.strip() for cid in ids} if ids else None
    known = [cid for cid, _, _ in CRITERIA]
    unknown = sorted((wanted or set()).difference(known))
    if unknown:
        raise ValueError(f"unknown criteria {', '.join(map(repr, unknown))}; known: {', '.join(known)}")
    all_ok = True
    for cid, name, fn in CRITERIA:
        if wanted is not None and cid not in wanted:
            continue
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} criterion {cid} ({name}): {result.detail} [{elapsed:.3f} s]")
        all_ok = all_ok and result.passed
    return all_ok
