"""Exact pairwise-dependence analysis.

Everything here is exact rational arithmetic.  The central objects are the
joint law of a pair of distinct points (as a probability mass function over
pairs of 1/n-grid cells, plus a per-cell position model) and anchored boxes
[x, 1).  On top of those sit:

  * closed-form stratified pair probabilities per coordinate,
  * the discrete cell-pair law as exact integer counts, summed over
    index-pair classes,
  * joint box probabilities for every supported scheme and ablation,
  * a negative-dependence scanner over anchored-box grids,
  * the structural checks that separate the shifted-lattice scheme from
    Latin hypercube sampling (copula equality, coordinate independence,
    triple containment counts), and
  * the ablation probes (missing shift, shift-only with fixed distances,
    fixed generator).

Jitter is never discretized: a cell pair contributes its pmf weight times
the exact overlap fraction of each anchored interval with each cell.  A
continuous torus shift is integrated in closed form as circle-arc overlaps.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial, floor, gcd, lcm, prod
from typing import NamedTuple

import numpy as np

from .exact import CircularInterval, circular_overlap, format_rational, is_prime, torus_dist
from .schemes import SchemeSpec, full_rsj, is_full_rsj, lhs_spec

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "UnsupportedSchemeError",
    "HypothesisViolatedError",
    "AnchoredBox",
    "PairLaw",
    "DependenceReport",
    "stratified_pair_box_prob",
    "patterson_pair_factor",
    "patterson_marginal_factor",
    "discrete_pair_pmf",
    "pair_box_prob",
    "pair_marginal_prob",
    "nuod_scan",
    "copula_equality_check",
    "CopulaCheck",
    "coordinate_independence_check",
    "IndependenceReport",
    "triple_distinguisher",
    "shift_only_conditional",
    "no_shift_mass",
    "report_to_json_dict",
    "scan_pairs_rows",
]

DEFAULT_BUDGET = 10**8

# scanner table products stay below this to use int64; otherwise fall back
# to python-int (object dtype) arithmetic, exact either way
_INT64_SAFE_LIMIT = 2**62


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the term budget; refusing to subsample."""


class UnsupportedSchemeError(ValueError):
    """The requested exact computation is not defined for this spec."""


class HypothesisViolatedError(ValueError):
    """A premise of the requested probe fails; the witness is in args[0]."""


@dataclass(frozen=True)
class AnchoredBox:
    """Box [anchor, 1) per coordinate; anchor coordinates in [0,1)."""

    anchor: tuple

    def __post_init__(self):
        anc = tuple(Fraction(a) for a in self.anchor)
        if any(not 0 <= a < 1 for a in anc):
            raise ValueError("anchor coordinates must lie in [0, 1)")
        object.__setattr__(self, "anchor", anc)

    @property
    def dim(self) -> int:
        return len(self.anchor)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for a in self.anchor:
            v *= 1 - a
        return v


# -- per-coordinate closed forms ---------------------------------------------


def stratified_pair_box_prob(q, r, n: int) -> Fraction:
    """Exact P(p1 >= q, p2 >= r) for a stratified pair of distinct points.

    The pair of strata is uniform over ordered distinct pairs and each point
    is uniform inside its stratum.  With eta, rho the 1-based strata of q, r
    and eps_q = eta - n q, eps_r = rho - n r the in-stratum tail fractions:

        eta != rho:  (n(1-q) - 1)(1-r) / (n-1)        (q in the lower stratum)
        eta == rho:  (n-eta)(n-eta-1+eps_q+eps_r) / (n(n-1))

    Always <= (1-q)(1-r), with equality exactly when q = 0 or r = 0.
    """
    q, r = Fraction(q), Fraction(r)
    if not (0 <= q < 1 and 0 <= r < 1):
        raise ValueError("anchors must lie in [0, 1)")
    if n < 2:
        raise ValueError("a distinct pair needs at least two strata")
    eta = floor(n * q) + 1
    rho = floor(n * r) + 1
    if eta == rho:
        a = n - eta
        eps_q = eta - n * q
        eps_r = rho - n * r
        return Fraction(a) * (a - 1 + eps_q + eps_r) / (n * (n - 1))
    if eta > rho:
        q, r = r, q
    return (n * (1 - q) - 1) * (1 - r) / (n - 1)


def _midpoint_count(q, n: int) -> int:
    """Number of cell midpoints (2c+1)/(2n) lying in [q, 1)."""
    q = Fraction(q)
    # (2c+1)/(2n) >= q  <=>  c >= (2nq - 1)/2
    lo = 2 * n * q - 1
    c_min = -(-lo.numerator // (2 * lo.denominator)) if lo > 0 else 0
    return max(0, n - c_min)


def patterson_pair_factor(q, r, n: int) -> Fraction:
    """Exact P(p1 >= q, p2 >= r) per coordinate for midpoint lattice sampling."""
    if n < 2:
        raise ValueError("a distinct pair needs at least two strata")
    cq = _midpoint_count(q, n)
    cr = _midpoint_count(r, n)
    cboth = _midpoint_count(max(Fraction(q), Fraction(r)), n)
    return Fraction(cq * cr - cboth, n * (n - 1))


def patterson_marginal_factor(q, n: int) -> Fraction:
    return Fraction(_midpoint_count(q, n), n)


# -- the discrete pair law ----------------------------------------------------


@dataclass(frozen=True)
class PairLaw:
    """Joint law of two distinct points: cell-pair pmf + position model.

    pmf maps (cells of p1, cells of p2) to exact probabilities summing to 1.
    position is "jitter" (uniform in cell), "corner" or "midpoint".
    """

    spec: SchemeSpec
    n: int
    dim: int
    pmf: dict
    position: str

    def validate(self) -> None:
        total = sum(self.pmf.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"pmf sums to {total}, expected 1")
        for z1, z2 in self.pmf:
            if any(a == b for a, b in zip(z1, z2)):
                raise ValueError("support contains a coordinate-equal cell pair")

    def marginal(self, side: int) -> dict:
        out = {}
        for (z1, z2), p in self.pmf.items():
            key = z1 if side == 0 else z2
            out[key] = out.get(key, Fraction(0)) + p
        return out


def _position_model(spec: SchemeSpec) -> str:
    if spec.kind == "patterson":
        return "midpoint"
    if spec.kind == "rsj_lattice" and not spec.jitter:
        return "corner"
    return "jitter"


def _generators(spec: SchemeSpec) -> list:
    """The generator values of each coordinate of a lattice spec.

    Midpoint (patterson) sampling counts as the generator-1 lattice: its
    distinct midpoints differ by every nonzero k/n equally often, and a
    torus shift sees only the difference of a pair.
    """
    if spec.kind == "patterson":
        return [np.ones(1, dtype=np.int64)] * spec.dim
    if spec.generator == "random":
        return [np.arange(1, spec.n, dtype=np.int64)] * spec.dim
    return [np.array([g], dtype=np.int64) for g in spec.generator]


def _difference_counts(spec: SchemeSpec) -> np.ndarray:
    """F[e]: the count of cell vector pairs (z1, z2) at each difference e = z2 - z1.

    Under a grid shift the shift fixes z1, and z2 - z1 = gamma (b - a), so
    coordinate i's n x n table of an index pair is circulant, with first
    row D_i[delta, e] = #{gamma: gamma delta = e (mod n)} for delta = b - a:
    n - 1 classes of n ordered pairs each.  The sum over classes of their
    Kronecker products is block circulant, so its first row F determines
    it.  For lhs/stratified/patterson the cells of a coordinate are an
    ordered pair of distinct strata: one class, every nonzero difference.
    """
    n = spec.n
    if spec.kind == "rsj_lattice":
        delta = np.arange(1, n)[:, None]
        rows = [np.bincount(((delta - 1) * n + g * delta % n).ravel(), minlength=(n - 1) * n)
                .reshape(n - 1, n) for g in _generators(spec)]
        weight = n
    else:
        rows = [(np.arange(n) != 0).astype(np.int64)[None]] * spec.dim
        weight = 1
    F = rows[0]
    for r in rows[1:]:
        F = (F[:, :, None] * r[:, None, :]).reshape(len(F), -1)
    return weight * F.sum(axis=0)


def _unshifted_counts(spec: SchemeSpec) -> np.ndarray:
    """P of the lattice without a shift: a sum over ordered index pairs (a, b).

    Coordinate i's table of a pair counts the generators gamma with cells
    (gamma a, gamma b); its Kronecker products are summed by enumerating
    their nonzero entries, all pairs and generators at once.
    """
    n, dim = spec.n, spec.dim
    cells = n**dim
    a, b = np.nonzero(1 - np.eye(n, dtype=np.int64))
    codes = np.zeros((len(a), 1), dtype=np.int64)
    for i, g in enumerate(_generators(spec)):
        place = n ** (dim - 1 - i)
        entry = (g * a[:, None] % n) * (place * cells) + (g * b[:, None] % n) * place
        codes = (codes[:, :, None] + entry[:, None, :]).reshape(len(a), -1)
    return np.bincount(codes.ravel(), minlength=cells * cells).reshape(cells, cells)


def _pair_counts(spec: SchemeSpec, budget=DEFAULT_BUDGET):
    """Exact integer counts of the cell-pair law, as (P, total).

    P[i, j] counts the configurations that put p1 in cell vector i and p2
    in cell vector j, with the n^dim cell vectors numbered lexicographically
    (coordinate 0 most significant); P / total is the law.  Given the index
    pair (a, b) of the two points, the generator and the shift act on each
    coordinate independently, so P is a sum over classes of index pairs of
    Kronecker products of per-coordinate n x n tables.  The budget counts
    the terms of that sum the route evaluates plus the n^(2 dim) entries of
    P: (n - 1) n^dim under a grid shift (difference classes), n (n - 1)
    |generators| without one (table nonzeros), n^dim for lhs.  Counts and
    total are divided by their common gcd.  Under a grid shift (and for
    the latin kinds) P[z1, z2] = F[z2 - z1], so every row of P is a
    permutation of the difference row F: the gcd is taken on F, and P is
    gathered from the reduced F in one pass.
    """
    n, dim = spec.n, spec.dim
    if n < 2:
        raise ValueError("a distinct pair needs n >= 2")
    cells = n**dim

    if spec.kind == "rsj_lattice":
        if spec.shift == "continuous_torus":
            raise UnsupportedSchemeError(
                "the discrete cell law is undefined for a continuous torus shift"
            )
        if spec.shift == "grid":
            terms = (n - 1) * cells
        else:
            terms = n * (n - 1) * prod(len(g) for g in _generators(spec))
    elif spec.kind in ("stratified1d", "lhs", "patterson"):
        terms = cells
    else:
        raise UnsupportedSchemeError(f"no discrete pair law for kind {spec.kind!r}")
    work = terms + cells * cells
    if work > budget:
        raise BudgetExceededError(
            f"enumeration too large: {work} terms exceeds budget {budget}"
        )
    if spec.kind == "rsj_lattice" and spec.shift == "none":
        P = _unshifted_counts(spec)
        total = int(P.sum())
        g = gcd(int(np.gcd.reduce(P, axis=None)), total)
        P //= g
        return P, total // g
    F = _difference_counts(spec)
    total = cells * int(F.sum())
    g = gcd(int(np.gcd.reduce(F)), total)
    F //= g
    # coordinate i's difference (z2_i - z1_i) mod n, on axes i (z1) and dim + i (z2)
    m = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    diffs = tuple(m.reshape([n if k in (i, dim + i) else 1 for k in range(2 * dim)])
                  for i in range(dim))
    return F.reshape((n,) * dim)[diffs].reshape(cells, cells), total // g


def _law_counts(n: int, dim: int, spec: SchemeSpec, budget):
    """_pair_counts of spec (default the full lattice), which must have size (n, dim)."""
    spec = spec if spec is not None else full_rsj(n, dim)
    if (spec.n, spec.dim) != (n, dim):
        raise ValueError("spec size does not match (n, dim)")
    return _pair_counts(spec, budget)


def discrete_pair_pmf(n: int, dim: int, spec: SchemeSpec = None,
                      budget=DEFAULT_BUDGET) -> PairLaw:
    """The exact cell-pair law of two distinct points, as a pmf dict.

    Built from the integer counts of _pair_counts: for the lattice scheme a
    sum over index-pair classes of per-coordinate (generator, shift) count
    tables; for stratified/lhs/patterson the Kronecker power of the ordered
    distinct-strata table.  Above the budget the call refuses rather than
    sampling.
    """
    spec = spec if spec is not None else full_rsj(n, dim)
    P, total = _law_counts(n, dim, spec, budget)
    i1, i2 = np.nonzero(P)
    cellv = np.array(list(product(range(n), repeat=dim)), dtype=np.int64)
    # a fixed support order (per-coordinate code z1*n + z2, coordinate 0
    # least significant): coordinate_independence_check reports the first
    # failing cell pair in this order
    codes = (cellv[i1] * n + cellv[i2]) @ (np.int64(n * n) ** np.arange(dim, dtype=np.int64))
    order = np.argsort(codes)
    cellv = [tuple(z) for z in cellv.tolist()]
    pmf = {
        (cellv[a], cellv[b]): Fraction(int(P[a, b]), total)
        for a, b in zip(i1[order].tolist(), i2[order].tolist())
    }
    law = PairLaw(spec=spec, n=n, dim=dim, pmf=pmf, position=_position_model(spec))
    law.validate()
    return law


# -- the integer kernel ------------------------------------------------------------
#
# Every enumerated query and every scan is a contraction of a count matrix
# P (cell vector of p1 x cell vector of p2) with integer cell weights: the
# joint over box pairs is J = A^T P A and the marginals are P.sum(1) @ A
# and P.sum(0) @ A, where A[z, Q] = P(point in Q | cell vector z) * den is
# the Kronecker product of one integer table per coordinate.  All
# arithmetic is on integers over a known common denominator; int64 where
# the denominator bounds every entry below _INT64_SAFE_LIMIT, python ints
# otherwise.

# box pairs per kernel block: bounds a scan's memory, and keeps a block's
# arrays in cache (2^15 ran the factorized scans fastest among 2^13..2^17)
_BLOCK = 1 << 15


def _int_dtype(bound: int):
    """int64 for values of magnitude at most bound if that is safe, else python ints."""
    return np.int64 if bound < _INT64_SAFE_LIMIT else object


def _kron(tables, dtype) -> np.ndarray:
    """Kronecker product of the tables, first table most significant."""
    out = np.ones((1, 1), dtype=dtype)
    for t in tables:
        t = np.asarray(t, dtype=dtype)
        out = (out[:, None, :, None] * t[None, :, None, :]).reshape(len(out) * len(t), -1)
    return out


def _weight_table(anchors, n: int, position: str):
    """T[c, k] = P(x >= anchors[k] | cell c) * den as an integer array, and den.

    With q = t / den, nt = n t and cell c = [c/n, (c+1)/n): jitter covers
    clamp((c+1) den - nt, 0, den) of it, a corner c/n lies in [q, 1) iff
    c den >= nt, a midpoint (2c+1)/(2n) iff (2c+1) den >= 2 nt.
    """
    den = lcm(*(a.denominator for a in anchors))
    dtype = _int_dtype(2 * (n + 1) * den)
    nts = np.array([n * a.numerator * (den // a.denominator) for a in anchors], dtype=dtype)
    c = np.arange(n, dtype=dtype)[:, None]
    if position == "jitter":
        # np.minimum/np.maximum: np.clip's call overhead dominates at small n
        return np.minimum(np.maximum((c + 1) * den - nts, 0), den), den
    if position == "corner":
        inside = c * den >= nts
    elif position == "midpoint":
        inside = (2 * c + 1) * den >= 2 * nts
    else:
        raise ValueError(f"unknown position model {position!r}")
    return inside.astype(dtype) * den, den


def _box_weights(anchors, n: int, position: str):
    """Column a[z] = P(point in [anchors, 1) | cell vector z) * den, and den."""
    tables = [_weight_table([a], n, position) for a in anchors]
    den = prod(d for _, d in tables)
    return _kron([t for t, _ in tables], _int_dtype(den))[:, 0], den


# -- joint box probabilities ---------------------------------------------------


def _is_factorized(spec: SchemeSpec) -> bool:
    return spec.kind in ("stratified1d", "lhs", "patterson") or is_full_rsj(spec)


def _count_factors(spec: SchemeSpec, budget: int) -> list:
    """The cell-pair law as count factors (P_f, total_f, k_f), over k_f coordinates each.

    Every query and every scan reads the law through these.  Stratified,
    lhs, patterson and the fully randomized lattice have one ordered
    distinct cells factor per coordinate, 1 - I over n (n - 1), given as
    P_f = None: _apply_factor applies it in O(n) (a query's budget counts
    its n cells, a scan's counts it as built).  Any other law is the one
    _pair_counts factor over every coordinate.
    """
    if spec.n < 2:
        raise ValueError("a distinct pair needs n >= 2")
    if _is_factorized(spec):
        if spec.dim * spec.n > budget:
            raise BudgetExceededError(
                f"law too large: {spec.dim * spec.n} cells exceeds budget {budget}"
            )
        return [(None, spec.n * (spec.n - 1), 1)] * spec.dim
    return [(*_pair_counts(spec, budget), spec.dim)]


def _apply_factor(P, X) -> tuple:
    """(P @ X, P.sum(axis=1)) for a count factor P and integer columns X.

    P None is 1 - I: P @ X is X.sum(0) - X, and every row sums to c - 1.
    """
    if P is None:
        return X.sum(axis=0) - X, np.full(len(X), len(X) - 1, dtype=X.dtype)
    P = P.astype(X.dtype, copy=False)
    return P @ X, P.sum(axis=1)


def _joint_factor(spec: SchemeSpec, q, r) -> Fraction:
    if spec.kind == "patterson":
        return patterson_pair_factor(q, r, spec.n)
    return stratified_pair_box_prob(q, r, spec.n)


def _shifted_pair_overlap(x1: Fraction, x2: Fraction, q: Fraction, r: Fraction) -> Fraction:
    """Measure of shifts u with x1+u in [q,1) and x2+u in [r,1) (mod 1)."""
    if q >= 1 or r >= 1:
        return Fraction(0)
    arc1 = CircularInterval((q - x1) % 1, 1 - q)
    arc2 = CircularInterval((r - x2) % 1, 1 - r)
    return circular_overlap(arc1, arc2)


def _continuous_shift_box_prob(n: int, gammas, anchors1, anchors2, budget) -> Fraction:
    """The jitterless lattice under a uniform torus shift, summed over b - a.

    The measure of shifts putting x1 in [q, 1) and x2 in [r, 1) does not
    change when x1 and x2 move together, so an index pair (a, b) enters
    through delta = b - a (mod n) only, at x1 = 0 and x2 = gamma delta / n;
    each delta in 1..n-1 stands for n ordered pairs.  gammas[i] holds the
    generator values of coordinate i (see _generators).  The budget
    counts the summed terms, sum over coordinates of |gammas[i]| x (n - 1).
    """
    work = sum(len(g) for g in gammas) * (n - 1)
    if work > budget:
        raise BudgetExceededError(
            f"continuous-shift integration too large: {work} terms exceeds budget {budget}"
        )
    per_delta = [Fraction(1)] * (n - 1)
    for i, coord_gammas in enumerate(gammas):
        overlap = [_shifted_pair_overlap(Fraction(0), Fraction(e, n), anchors1[i], anchors2[i])
                   for e in range(n)]
        for delta in range(1, n):
            acc = sum((overlap[e] for e in (coord_gammas * delta % n).tolist()), Fraction(0))
            per_delta[delta - 1] *= acc / len(coord_gammas)
    return sum(per_delta, Fraction(0)) / (n - 1)


def _is_torus(spec: SchemeSpec) -> bool:
    """Whether spec has a continuous torus shift; with jitter too it is unsupported."""
    if spec.kind == "rsj_lattice" and spec.shift == "continuous_torus":
        if spec.jitter:
            raise UnsupportedSchemeError(
                "continuous torus shift combined with jitter is not analyzed"
            )
        return True
    return False


def _check_boxes(spec: SchemeSpec, *boxes) -> None:
    if any(box.dim != spec.dim for box in boxes):
        raise ValueError("box dimension does not match the scheme")


def _factor_query(spec: SchemeSpec, factors, Q: AnchoredBox, R: AnchoredBox) -> tuple:
    """(P(p1 in Q, p2 in R), P(p1 in Q), P(p2 in R)) from the law's count factors.

    Factor f = (P_f, total_f, k_f) covers the next k_f coordinates; a_f and
    b_f are the integer weight columns of Q and R there (see _box_weights),
    over den_a and den_b.  It contributes a_f^T P_f b_f / (total_f den_a
    den_b) to the joint and P_f.sum(1) a_f / (total_f den_a), P_f.sum(0)
    b_f / (total_f den_b) to the marginals; each is the product over factors.
    """
    pos = _position_model(spec)
    nums, dens = [1, 1, 1], [1, 1, 1]
    i = 0
    for P, total, k in factors:
        a, den_a = _box_weights(Q.anchor[i:i + k], spec.n, pos)
        # pair_marginal_prob passes its one box as both Q and R
        b, den_b = (a, den_a) if R is Q else _box_weights(R.anchor[i:i + k], spec.n, pos)
        dtype = _int_dtype(total * den_a * den_b)
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
        Pb, rows = _apply_factor(P, b[:, None])
        # P_f.sum(0) b_f is the sum of P_f b_f
        terms = ((a @ Pb[:, 0], den_a * den_b), (rows @ a, den_a), (Pb.sum(), den_b))
        for j, (num, den) in enumerate(terms):
            nums[j] *= int(num)
            dens[j] *= total * den
        i += k
    return tuple(Fraction(num, den) for num, den in zip(nums, dens))


def pair_box_prob(spec: SchemeSpec, Q: AnchoredBox, R: AnchoredBox,
                  method: str = "auto", budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p1 in Q, p2 in R) for anchored boxes Q, R.

    method "auto" contracts the count factors of the law (one per
    coordinate for stratified, lhs, patterson and the fully randomized
    lattice); "enumeration" contracts the one _pair_counts factor over
    every coordinate, and "closed_form" multiplies the per-coordinate
    closed forms, which exist for the factorized laws only.  A continuous
    torus shift (jitterless) is integrated exactly via circle-arc overlaps;
    combined with jitter it is unsupported.
    """
    _check_boxes(spec, Q, R)
    if spec.n < 2:
        raise ValueError("a pair probability needs n >= 2")
    if _is_torus(spec):
        return _continuous_shift_box_prob(spec.n, _generators(spec), Q.anchor, R.anchor, budget)
    if method == "closed_form":
        if not _is_factorized(spec):
            raise UnsupportedSchemeError("no closed form for this spec; use enumeration")
        return prod((_joint_factor(spec, q, r) for q, r in zip(Q.anchor, R.anchor)),
                    start=Fraction(1))
    if method == "auto":
        factors = _count_factors(spec, budget)
    elif method == "enumeration":
        factors = [(*_pair_counts(spec, budget), spec.dim)]
    else:
        raise ValueError(f"unknown method {method!r}")
    return _factor_query(spec, factors, Q, R)[0]


def pair_marginal_prob(spec: SchemeSpec, box: AnchoredBox, side: int = 0,
                       budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p_side in box) under the pair law of the scheme, side 0 or 1."""
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, not {side!r}")
    _check_boxes(spec, box)
    if _is_torus(spec):
        # a uniform torus shift makes each coordinate uniform
        return box.volume()
    return _factor_query(spec, _count_factors(spec, budget), box, box)[1 + side]


def _pair_query(spec: SchemeSpec, Q: AnchoredBox, R: AnchoredBox,
                budget=DEFAULT_BUDGET) -> tuple:
    """(P(p1 in Q, p2 in R), P(p1 in Q), P(p2 in R)) on the default routes.

    The law's count factors are built once and contracted for all three.
    """
    _check_boxes(spec, Q, R)
    if _is_torus(spec):
        return pair_box_prob(spec, Q, R, budget=budget), Q.volume(), R.volume()
    return _factor_query(spec, _count_factors(spec, budget), Q, R)


# -- negative-dependence scan ---------------------------------------------------


@dataclass(frozen=True)
class DependenceReport:
    """Outcome of a grid scan: worst clamped excess and every witness.

    grid holds a description of the probed anchor grid (materializing all
    M^(2 dim) box pairs would be wasteful); witnesses list each violating
    (Q, R, joint, product) exactly.
    """

    spec: SchemeSpec
    grid: dict
    worst_violation: Fraction
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.worst_violation == 0

    @classmethod
    def from_witnesses(cls, spec: SchemeSpec, grid_resolution: int, witnesses) -> "DependenceReport":
        """The report of a k/grid_resolution scan that found these witnesses.

        Witnesses come in any order; the report lists them by decreasing
        excess, ties broken by decreasing anchors.
        """
        witnesses = sorted(witnesses, key=lambda w: (w[2] - w[3], w[0].anchor, w[1].anchor),
                           reverse=True)
        worst = witnesses[0][2] - witnesses[0][3] if witnesses else Fraction(0)
        grid = {
            "resolution": grid_resolution,
            "anchors": f"k/{grid_resolution} for 0 <= k < {grid_resolution}",
            "boxes_per_side": grid_resolution**spec.dim,
            "pairs": grid_resolution ** (2 * spec.dim),
            "certifies_all_boxes": _is_factorized(spec) and grid_resolution % spec.n == 0,
        }
        return cls(spec=spec, grid=grid, worst_violation=worst, witnesses=tuple(witnesses))


def _grid_anchors(grid_resolution: int) -> list:
    if grid_resolution < 1:
        raise ValueError("grid resolution must be positive")
    return [Fraction(k, grid_resolution) for k in range(grid_resolution)]


def _factor_dims(spec: SchemeSpec, factors) -> list:
    """k_f of each count factor of the law (see _count_factors), before it is built."""
    if factors is not None:
        return [k for _, _, k in factors]
    return [1] * spec.dim if _is_factorized(spec) else [spec.dim]


def _contraction_work(n: int, m: int, dims) -> int:
    """_contract's multiply-adds, sum_f c_f B_f (c_f + B_f): c_f = n^k_f, B_f = m^k_f."""
    return sum(n**k * m**k * (n**k + m**k) for k in dims)


def _check_scan_work(work: int, budget: int) -> None:
    if work > budget:
        raise BudgetExceededError(
            f"grid scan too large: {work} multiply-adds exceeds budget {budget}"
        )


def _contract(spec: SchemeSpec, anchors, budget: int, factors=None) -> list:
    """Each count factor of the law contracted with the cell weights.

    The law is the list of count factors of _count_factors (factors
    overrides it).  With A_f the weights of factor f, its joint table is
    A_f^T P_f A_f total_f and its product table (P_f.sum(1) A_f) x
    (P_f.sum(0) A_f), both
    over (total_f den_w^k_f)^2, all three divided by their common divisor.
    Returns one (A_f, P_f A_f total_f, p1_f, p2_f, den_f) per factor, all
    nonnegative integers, reduced.
    """
    if factors is None:
        factors = _count_factors(spec, budget)
    table, den_w = _weight_table(anchors, spec.n, _position_model(spec))
    contracted = []
    for P, total, k in factors:
        scale = (total * den_w**k) ** 2
        dtype = _int_dtype(scale)
        A = _kron([table] * k, dtype)
        PA, rows = _apply_factor(P, A)
        p1, p2, PA = rows @ A, PA.sum(axis=0), PA * total
        # cancel the factor's common divisor, split between the marginals
        g1, g2 = int(np.gcd.reduce(p1)), int(np.gcd.reduce(p2))
        g = gcd(scale, int(np.gcd.reduce(PA, axis=None)), g1 * g2)
        g1 = gcd(g, g1)
        contracted.append((A, PA // g, p1 // g1, p2 // (g // g1), scale // g))
    return contracted


def _certified(contracted) -> bool:
    """Whether each factor's joint table is at most its product table, entrywise.

    A box pair's joint and product are the products of one entry of each
    factor's tables, all nonnegative, so this certifies joint <= product
    for every box pair with sum_f B_f^2 comparisons.
    """
    return all((A.T @ PA <= np.multiply.outer(p1, p2)).all() for A, PA, p1, p2, _ in contracted)


def _expand(contracted):
    """Joint and product numerators over all box pairs, from the contracted factors.

    The tables over all box pairs are the Kronecker products of the
    factors' tables.  Box index h B_last + t: h numbers the leading
    factors' boxes, whose joint table is precomputed, and the last factor's
    rows A[:, t]^T (P A) are contracted per block.

    Returns (den, blocks): blocks yields (first Q index, joint, product)
    with one row per Q box and one column per R box, boxes numbered
    lexicographically; joint / den and product / den are the probabilities.
    """
    As, PAs, p1s, p2s, dens = zip(*contracted)
    den = prod(dens)
    dtype = _int_dtype(den)
    A, PA = As[-1].astype(dtype, copy=False), PAs[-1].astype(dtype, copy=False)
    lead = _kron([a.T @ pa for a, pa in zip(As[:-1], PAs[:-1])], dtype)
    p1 = _kron([v[None] for v in p1s], dtype)[0]
    p2 = _kron([v[None] for v in p2s], dtype)[0]
    boxes = len(p1)
    hs, ts = np.divmod(np.arange(boxes), A.shape[1])

    def blocks():
        step = max(1, _BLOCK // boxes)
        for start in range(0, boxes, step):
            stop = min(start + step, boxes)
            h, t = hs[start:stop], ts[start:stop]
            joint = lead[h][:, :, None] * (A[:, t].T @ PA)[:, None, :]
            yield start, joint.reshape(stop - start, boxes), np.multiply.outer(p1[start:stop], p2)

    return den, blocks()


def _pair_tables(spec: SchemeSpec, anchors, budget: int, factors=None):
    """_expand of _contract: the joint and product tables of every box pair.

    The budget counts the contraction's multiply-adds plus one comparison
    per box pair, sum_f c_f B_f (c_f + B_f) + M^(2 dim).
    """
    m = len(anchors)
    work = _contraction_work(spec.n, m, _factor_dims(spec, factors))
    _check_scan_work(work + m ** (2 * spec.dim), budget)
    return _expand(_contract(spec, anchors, budget, factors))


def nuod_scan(spec: SchemeSpec, grid_resolution: int, budget=DEFAULT_BUDGET) -> DependenceReport:
    """Check joint <= product for all anchored-box pairs on the k/M grid.

    The product side uses the scheme's exact marginals (equal to box volume
    whenever the scheme is marginally uniform).  For factorizable schemes
    both sides are multilinear in the 2*dim anchor coordinates on each cell
    of the 1/n grid, so when M is a multiple of n the corner check on this
    grid certifies the inequality for every anchored box pair (anchors at 1
    make both sides vanish, so the open upper face is trivial).

    When the law has several count factors (stratified, lhs, patterson,
    full lattice: one per coordinate), joint and product of a box pair are
    products of nonnegative per-factor entries, so checking each factor's
    M^k_f x M^k_f tables certifies every box pair, and the report has no
    witnesses.  Only if some factor fails are all M^(2 dim) box pairs
    expanded and compared.  The budget counts the contraction and the
    factor comparisons, sum_f c_f B_f (c_f + B_f) + sum_f B_f^2 (c_f = n^k_f
    cell vectors, B_f = M^k_f boxes), checked before the contraction, and
    M^(2 dim) more for an expansion, checked before it runs.  A one-factor
    law is expanded directly; its B_f^2 is M^(2 dim).

    A continuous-torus-shift spec has no cell law and is not scanned; the
    fixed-distance probe (shift_only_conditional) covers that ablation.
    """
    anchors = _grid_anchors(grid_resolution)
    witnesses = _nuod_witnesses(spec, anchors, budget)
    return DependenceReport.from_witnesses(spec, grid_resolution, witnesses)


def _nuod_witnesses(spec: SchemeSpec, anchors, budget: int, factors=None) -> list:
    """nuod_scan's witnesses: the per-factor certificate, else the expansion."""
    m, dims = len(anchors), _factor_dims(spec, factors)
    work = _contraction_work(spec.n, m, dims) + sum(m ** (2 * k) for k in dims)
    _check_scan_work(work, budget)
    contracted = _contract(spec, anchors, budget, factors)
    if len(contracted) > 1:
        if _certified(contracted):
            return []
        _check_scan_work(work + m ** (2 * spec.dim), budget)
    return _scan_witnesses(spec, anchors, _expand(contracted))


def _scan_witnesses(spec: SchemeSpec, anchors, tables) -> list:
    """(Q, R, joint, product) for every box pair with joint > product."""
    den, blocks = tables
    box = _grid_box(anchors, spec.dim)
    return [w for start, joint, prod in blocks for w in _block_witnesses(box, den, start, joint, prod)]


def _grid_box(anchors, dim: int):
    """The box of lexicographic index k over the anchors, as a function of k."""
    m = len(anchors)

    def box(k):
        return AnchoredBox(tuple(anchors[k // m ** (dim - 1 - i) % m] for i in range(dim)))

    return box


def _block_witnesses(box, den: int, start: int, joint, prod) -> list:
    """The witnesses of one _expand block (see _scan_witnesses)."""
    return [(box(start + int(q)), box(int(r)),
             Fraction(int(joint[q, r]), den), Fraction(int(prod[q, r]), den))
            for q, r in zip(*np.nonzero(joint > prod))]


# -- structural separations -----------------------------------------------------


class CopulaCheck(NamedTuple):
    """Whether two cell-pair laws are equal, and their largest pmf difference."""

    equal: bool
    max_discrepancy: Fraction


def copula_equality_check(n: int, dim: int, spec: SchemeSpec = None,
                          budget=DEFAULT_BUDGET) -> CopulaCheck:
    """Compare the cell-pair pmf of a lattice spec with the lhs pmf.

    Both laws are exact integer counts, compared over a common denominator:
    the discrepancy is the largest |P_a t_b - P_b t_a| / (t_a t_b).  The
    fully randomized lattice matches lhs exactly (discrepancy 0); a fixed
    generator does not.
    """
    P_a, t_a = _law_counts(n, dim, spec, budget)
    P_b, t_b = _law_counts(n, dim, lhs_spec(n, dim), budget)
    dtype = _int_dtype(t_a * t_b)
    # both count arrays are private to this call: scale and subtract in place
    diff = P_a.astype(dtype, copy=False)
    diff *= t_b
    scaled = P_b.astype(dtype, copy=False)
    scaled *= t_a
    diff -= scaled
    worst = Fraction(int(np.abs(diff, out=diff).max()), t_a * t_b)
    return CopulaCheck(worst == 0, worst)


@dataclass(frozen=True)
class IndependenceReport:
    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


def coordinate_independence_check(n: int, dim: int, spec: SchemeSpec = None,
                                  budget=DEFAULT_BUDGET) -> IndependenceReport:
    """Verify that coordinate pair-cells factorize over every index subset.

    For each I subset of {0..dim-1} and every assignment of cell pairs on I,
    the joint marginal over I must equal the product of single-coordinate
    marginals: on the integer counts, C_I total^(|I|-1) == prod of the c_i.
    Exact; returns the first failing assignment as witness, with subsets in
    combinations order and each coordinate's cell pairs in order of first
    appearance in the support order of discrete_pair_pmf.
    """
    P, total = _law_counts(n, dim, spec, budget)
    nn = n * n
    # C[c_0, .., c_{dim-1}] counts by per-coordinate cell pair code z1 * n + z2
    axes = [ax for i in range(dim) for ax in (i, dim + i)]
    C = P.reshape((n,) * (2 * dim)).transpose(axes).reshape((nn,) * dim)
    del P
    C = C.astype(_int_dtype(total**dim), copy=False)
    singles = [C.sum(axis=tuple(j for j in range(dim) if j != i)) for i in range(dim)]
    # compared on every code: off a coordinate's support both sides are 0
    for size in range(2, dim + 1):
        for idx in combinations(range(dim), size):
            joint = C if size == dim else C.sum(axis=tuple(j for j in range(dim) if j not in idx))
            expected = singles[idx[0]]
            for i in idx[1:]:
                expected = np.multiply.outer(expected, singles[i])
            scaled = joint * total ** (size - 1)
            if np.array_equal(scaled, expected):
                continue
            # the witness: discrete_pair_pmf orders its support by code,
            # coordinate 0 least significant (Fortran order of C), and each
            # coordinate's cell pairs go in order of first appearance there
            support = np.flatnonzero(C.ravel(order="F"))
            orders = []
            for i in idx:
                values, first = np.unique(support // nn**i % nn, return_index=True)
                orders.append(values[np.argsort(first)])
            cells = np.ix_(*orders)
            bad = scaled[cells] != expected[cells]
            at = np.unravel_index(np.argmax(bad), bad.shape)
            codes = tuple(int(o[k]) for o, k in zip(orders, at))
            return IndependenceReport(False, {
                "subset": idx,
                "cells": tuple(divmod(c, n) for c in codes),
                "joint": Fraction(int(joint[codes]), total),
                "product": prod(Fraction(int(singles[i][c]), total)
                                for i, c in zip(idx, codes)),
            })
    return IndependenceReport(True)


# cell codes per block of triple_distinguisher's lattices (8 MB of int64)
_CODE_BLOCK = 1 << 20


def triple_distinguisher(n: int, dim: int, a, b, budget=DEFAULT_BUDGET) -> tuple:
    """Count discrete n-point configurations containing both cell vectors.

    Returns (lattice_count, lhs_count): the number of distinct shifted
    lattices containing both a and b, by exhaustive construction, and of
    distinct latin grids containing both, (n-2)!^(dim-1).  Requires a, b to
    differ in every coordinate.  The budget bounds the (n-1)^dim n^dim
    lattices.
    """
    if n < 5 or not is_prime(n):
        raise ValueError("needs a prime n >= 5")
    if dim < 2:
        raise ValueError("needs dim >= 2")
    a = tuple(int(v) for v in a)
    b = tuple(int(v) for v in b)
    if len(a) != dim or len(b) != dim:
        raise ValueError("cell vectors must have length dim")
    if any(not 0 <= v < n for v in a + b):
        raise ValueError("cell indices must lie in [0, n)")
    if any(x == y for x, y in zip(a, b)):
        raise ValueError("cell vectors share a coordinate cell; they must differ everywhere")

    lattice_terms = (n - 1) ** dim * n**dim
    if lattice_terms > budget:
        raise BudgetExceededError("lattice enumeration exceeds budget")
    # codes[g, s, m]: the lexicographic cell code of point m of the lattice
    # with generator g and shift s; a lattice is its sorted row of codes.
    # Generators go in blocks of about _CODE_BLOCK codes, to bound memory.
    gens = np.array(list(product(range(1, n), repeat=dim)), dtype=np.int64)
    shifts = np.array(list(product(range(n), repeat=dim)), dtype=np.int64)
    m = np.arange(n, dtype=np.int64)
    code_a, code_b = (sum(v * n ** (dim - 1 - i) for i, v in enumerate(c)) for c in (a, b))
    step = max(1, _CODE_BLOCK // (len(shifts) * n))
    found = []
    for g in (gens[lo:lo + step] for lo in range(0, len(gens), step)):
        codes = np.zeros((len(g), len(shifts), n), dtype=np.int64)
        for i in range(dim):
            codes = codes * n + (g[:, i, None, None] * m + shifts[None, :, i, None]) % n
        hit = (codes == code_a).any(axis=2) & (codes == code_b).any(axis=2)
        found.append(np.sort(codes[hit], axis=1))
    lattice_count = len(np.unique(np.concatenate(found), axis=0))

    # latin grids keyed by the first coordinate: the grid is determined by
    # one permutation per further coordinate mapping first-cell -> cell;
    # containing a and b fixes two distinct values of each, at two distinct
    # places, which leaves (n - 2)! permutations per coordinate
    return lattice_count, factorial(n - 2) ** (dim - 1)


# -- ablation probes --------------------------------------------------------------


def no_shift_mass(n: int, dim: int, budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p1 in [0, 1/n)^dim) for the unshifted jittered lattice.

    Enumerates (generator, point index); jitter keeps each point inside its
    cell, so the event is exactly "the point's cell vector is zero".  The
    value is 1/n for every dim, which breaks marginal uniformity as soon as
    dim >= 2 (a uniform point would give 1/n^dim).
    """
    terms = (n - 1) ** dim * n
    if terms > budget:
        raise BudgetExceededError("enumeration exceeds budget")
    hits = 0
    for g in product(range(1, n), repeat=dim):
        for m in range(n):
            if all((gi * m) % n == 0 for gi in g):
                hits += 1
    return Fraction(hits, terms)


def shift_only_conditional(spec: SchemeSpec, epsilon, dim_index: int = None,
                           budget=DEFAULT_BUDGET) -> Fraction:
    """Exact P(p1 in Q | p2 in R) for the fixed-distance probe.

    Q = [0,1)^(d-1) x [eps/2, 1) and R = [0,1)^(d-1) x [1-eps/2, 1) in the
    probed coordinate.  Supported: the jitterless lattice with a continuous
    torus shift, and midpoint (patterson) sampling with the same continuous
    shift applied (without a shift its conditioning event has probability
    zero because the marginal is discrete).  The premise that all pair
    distances in the probed coordinate exceed epsilon is verified over
    every generator value and index difference b - a (with x1 = 0, since
    a common shift moves no distance); a violation raises with the witness
    positions.  The budget counts |generators| x (n - 1) terms.
    Under the premise the conditional is 1, strictly above the box volume
    1 - eps/2, so the scheme cannot be pairwise negatively dependent.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2]")
    if spec.kind == "rsj_lattice":
        if spec.shift != "continuous_torus" or spec.jitter:
            raise UnsupportedSchemeError(
                "fixed-distance probe needs a jitterless continuous-torus shift"
            )
    elif spec.kind != "patterson":
        raise UnsupportedSchemeError(f"fixed-distance probe undefined for {spec.kind!r}")
    i = spec.dim - 1 if dim_index is None else dim_index
    if not 0 <= i < spec.dim:
        raise ValueError("dim_index out of range")

    n = spec.n
    gammas = _generators(spec)[i]
    q = eps / 2
    # the other coordinates' anchors are 0, a factor 1 each, so the probed
    # coordinate alone carries P(p1 in Q, p2 in R)
    joint = _continuous_shift_box_prob(n, [gammas], [q], [1 - q], budget)
    x1 = Fraction(0)
    for gam in gammas.tolist():
        for delta in range(1, n):
            x2 = Fraction(gam * delta % n, n)
            d = torus_dist(x1, x2)
            if d <= eps:
                raise HypothesisViolatedError(
                    f"pair distance {format_rational(d)} <= epsilon "
                    f"{format_rational(eps)} at positions "
                    f"({format_rational(x1)}, {format_rational(x2)})"
                )
    return joint / q  # P(p2 in R) = eps / 2 under the uniform torus shift


# -- serialization ------------------------------------------------------------------


def _box_strings(box: AnchoredBox) -> list:
    return [format_rational(a) for a in box.anchor]


def report_to_json_dict(report: DependenceReport) -> dict:
    from .schemes import spec_to_dict

    return {
        "scheme": spec_to_dict(report.spec),
        "grid": report.grid,
        "worst_violation": format_rational(report.worst_violation),
        "violations": [
            {
                "Q": _box_strings(Q),
                "R": _box_strings(R),
                "joint": format_rational(joint),
                "product": format_rational(prodv),
            }
            for Q, R, joint, prodv in report.witnesses
        ],
    }


def scan_pairs_rows(spec: SchemeSpec, grid_resolution: int, budget=DEFAULT_BUDGET):
    """One (Q, R, joint, product, violation) row per probed grid pair.

    The full per-pair table of a scan, for CSV export; the scan's budget,
    which counts one comparison per box pair, guards the M^(2 dim) blowup.
    Rows are yielded in lexicographic anchor order.
    """
    anchors = _grid_anchors(grid_resolution)
    den, blocks = _pair_tables(spec, anchors, budget)
    boxes = [AnchoredBox(a) for a in product(anchors, repeat=spec.dim)]
    for start, joint, prod in blocks:
        for Q, jrow, prow in zip(boxes[start:], joint.tolist(), prod.tolist()):
            for R, j, p in zip(boxes, jrow, prow):
                yield Q, R, Fraction(j, den), Fraction(p, den), j > p


def _pairs_csv(spec: SchemeSpec, grid_resolution: int, budget=DEFAULT_BUDGET) -> tuple:
    """The rows of scan_pairs_rows as CSV text, and the scan's witnesses.

    Columns Q, R, joint, product, violation: anchors as num/den joined by
    ';', probabilities as reduced num/den.  A table holds few distinct
    values (the product table is an outer product), so each block reduces
    and formats every distinct joint and product numerator once and
    indexes the strings; rows are written one f-string each.
    """
    anchors = _grid_anchors(grid_resolution)
    den, blocks = _pair_tables(spec, anchors, budget)
    labels = [";".join(q) for q in product([format_rational(a) for a in anchors], repeat=spec.dim)]
    box = _grid_box(anchors, spec.dim)
    lines, witnesses = ["Q,R,joint,product,violation\n"], []
    for start, joint, prod in blocks:
        witnesses += _block_witnesses(box, den, start, joint, prod)
        cols = [_fraction_strings(joint, den), _fraction_strings(prod, den),
                (joint > prod).tolist()]
        for q, *row in zip(labels[start:], *cols):
            lines += [f"{q},{r},{j},{p},{bad}\n" for r, j, p, bad in zip(labels, *row)]
    return "".join(lines), witnesses


def _fraction_strings(table, den: int) -> list:
    """The rows of table / den as reduced "num/den" strings, one format per distinct value."""
    values, inverse = np.unique(table.ravel(), return_inverse=True)
    g = np.gcd(values, den)
    text = np.array([f"{a}/{b}" for a, b in zip((values // g).tolist(), (den // g).tolist())],
                    dtype=object)
    return text[inverse.reshape(table.shape)].tolist()
